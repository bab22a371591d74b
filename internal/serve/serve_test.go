package serve

import (
	"errors"
	"testing"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmmc"
)

// tierSetup boots a cluster, builds a tier on it, and runs fn as the
// orchestrating proc. The client process for ClientNodes[0] is created
// and handed to fn for direct-connection tests.
func tierSetup(t *testing.T, cfg Config, nodes int, fn func(p *sim.Proc, tier *Tier, cproc *vmmc.Process)) error {
	t.Helper()
	eng := sim.NewEngine()
	cluster, err := vmmc.NewCluster(eng, vmmc.Options{Nodes: nodes, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Go("serve-test", func(p *sim.Proc) {
		tier, err := Build(p, cluster, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		cproc, err := cluster.Nodes[cfg.ClientNodes[0]].NewProcess(p)
		if err != nil {
			t.Error(err)
			return
		}
		fn(p, tier, cproc)
	})
	return cluster.Start()
}

// TestServeKVRoundTrip checks the KV protocol itself: preloaded values
// come back byte-exact, missing keys report not-found, and a Put is
// visible to a later Get.
func TestServeKVRoundTrip(t *testing.T) {
	cfg := Config{
		ShardNodes:  []int{1},
		ClientNodes: []int{0},
		Conns:       1,
		Keys:        16,
		ValueBytes:  64,
	}
	err := tierSetup(t, cfg, 2, func(p *sim.Proc, tier *Tier, cproc *vmmc.Process) {
		conn, err := tier.DialShard(p, cproc, 0, 0, 0, DefaultRetryPolicy(1))
		if err != nil {
			t.Error(err)
			return
		}
		val, err := conn.Get(p, 3, 0)
		if err != nil {
			t.Errorf("get preloaded key: %v", err)
			return
		}
		if len(val) != 64 {
			t.Errorf("value length = %d, want 64", len(val))
		}
		for j, b := range val {
			if b != byte(3*31+j) {
				t.Errorf("val[%d] = %#x, want %#x", j, b, byte(3*31+j))
				break
			}
		}
		if val, err := conn.Get(p, 99, 0); err != nil || val != nil {
			t.Errorf("get missing key = (%v, %v), want (nil, nil)", val, err)
		}
		if err := conn.Put(p, 99, []byte("stored-by-test"), 0); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		val, err = conn.Get(p, 99, 0)
		if err != nil || string(val) != "stored-by-test" {
			t.Errorf("get after put = (%q, %v)", val, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServeOpenLoopResolvesAll runs a small under-capacity open-loop
// workload and checks every offered request resolves OK with zero
// transport or protocol errors — and that a double run is deterministic
// in both counters and virtual end time.
func TestServeOpenLoopResolvesAll(t *testing.T) {
	type run struct {
		ok, sends int64
		end       sim.Time
	}
	once := func() run {
		cfg := Config{
			ShardNodes:  []int{1, 2},
			ClientNodes: []int{0},
			Conns:       1,
			ServiceTime: sim.Micros(20),
			Keys:        32,
		}
		var r run
		err := tierSetup(t, cfg, 3, func(p *sim.Proc, tier *Tier, _ *vmmc.Process) {
			stats, err := tier.RunOpenLoop(p, WorkloadConfig{
				Rate:     10000,
				Requests: 60,
				Seed:     7,
				Retry:    DefaultRetryPolicy(7),
			})
			if err != nil {
				t.Error(err)
				return
			}
			if stats.Offered != 60 || stats.OK != 60 || stats.Errors != 0 {
				t.Errorf("offered/ok/errors = %d/%d/%d, want 60/60/0",
					stats.Offered, stats.OK, stats.Errors)
			}
			if got := stats.Resolved(); got != 60 {
				t.Errorf("resolved = %d, want 60", got)
			}
			var offered, served int64
			for _, sh := range tier.Shards() {
				offered += sh.Offered
				served += sh.Server().Calls
			}
			if offered != 60 || served != 60 {
				t.Errorf("shard offered/served = %d/%d, want 60/60", offered, served)
			}
			if tier.TransportErrors() != 0 {
				t.Errorf("transport errors = %d, want 0", tier.TransportErrors())
			}
			r = run{ok: stats.OK, sends: stats.Sends, end: p.Now()}
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := once(), once()
	if a != b {
		t.Errorf("double run drifted: %+v vs %+v", a, b)
	}
}

// TestServeRetryBudgetExhausted pins the retry token bucket under
// sustained rejection: total sends stay within N*(1+Ratio)+Budget,
// every call surfaces the typed retriable error, and backoff jitter is
// deterministic across a double run.
func TestServeRetryBudgetExhausted(t *testing.T) {
	const calls = 6
	pol := RetryPolicy{
		Base:   sim.Micros(20),
		Max:    sim.Micros(160),
		Budget: 3,
		Ratio:  0.5,
		Seed:   9,
	}
	type run struct {
		stats ConnStats
		end   sim.Time
	}
	once := func() run {
		cfg := Config{ShardNodes: []int{1}, ClientNodes: []int{0}, Conns: 1}
		var r run
		err := tierSetup(t, cfg, 2, func(p *sim.Proc, tier *Tier, cproc *vmmc.Process) {
			conn, err := tier.DialShard(p, cproc, 0, 0, 0, pol)
			if err != nil {
				t.Error(err)
				return
			}
			// Warm while admission is still open, then slam the door.
			if _, err := conn.Get(p, 0, 0); err != nil {
				t.Errorf("warm call: %v", err)
				return
			}
			conn.Stats = ConnStats{}
			tier.Shard(0).Server().SetAdmission(
				func(rpc.AdmitPhase, int, sim.Time, sim.Time) bool { return false })
			for i := 0; i < calls; i++ {
				if _, err := conn.Get(p, uint32(i), 0); !errors.Is(err, rpc.ErrOverloaded) {
					t.Errorf("call %d error = %v, want ErrOverloaded", i, err)
				}
			}
			r = run{stats: conn.Stats, end: p.Now()}
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := once(), once()
	bound := int64(calls*(1+pol.Ratio) + pol.Budget)
	if a.stats.Sends > bound {
		t.Errorf("sends = %d, exceeds budget bound %d", a.stats.Sends, bound)
	}
	if a.stats.Sends < calls {
		t.Errorf("sends = %d, below offered calls %d", a.stats.Sends, calls)
	}
	if a.stats.Retries == 0 || a.stats.BudgetDenied != calls {
		t.Errorf("retries/denied = %d/%d, want >0/%d",
			a.stats.Retries, a.stats.BudgetDenied, calls)
	}
	if a.stats.Retries != a.stats.Sends-calls {
		t.Errorf("retries = %d, want sends-calls = %d", a.stats.Retries, a.stats.Sends-calls)
	}
	if a != b {
		t.Errorf("double run drifted: %+v vs %+v", a, b)
	}
}

// TestServeShardStuckTyped wedges the tier — requests are generated and
// queued but no connections exist to drain them — and checks the
// engine's deadlock report comes back as a typed ShardStuckError naming
// the shard, backlog depth, and oldest request age.
func TestServeShardStuckTyped(t *testing.T) {
	cfg := Config{
		ShardNodes:  []int{1},
		ClientNodes: []int{0},
		Conns:       0, // no workers: the dispatch queue can only fill
	}
	err := tierSetup(t, cfg, 2, func(p *sim.Proc, tier *Tier, _ *vmmc.Process) {
		_, err := tier.RunOpenLoop(p, WorkloadConfig{
			Rate:     100000,
			Requests: 5,
			Seed:     3,
		})
		t.Errorf("RunOpenLoop returned (%v); expected a permanent wedge", err)
	})
	if err == nil {
		t.Fatal("cluster.Start returned nil, want a shard-stuck error")
	}
	if !errors.Is(err, ErrShardStuck) {
		t.Fatalf("error does not match ErrShardStuck: %v", err)
	}
	var sse *ShardStuckError
	if !errors.As(err, &sse) {
		t.Fatalf("error is not a *ShardStuckError: %v", err)
	}
	if sse.Shard != 0 || sse.Depth != 5 || sse.OldestAge <= 0 {
		t.Errorf("shard/depth/age = %d/%d/%v, want 0/5/>0", sse.Shard, sse.Depth, sse.OldestAge)
	}
}

// TestAdmitterPolicy pins the shared admission policy verdict by verdict:
// which checks apply at arrival and at dispatch, which counter each shed
// moves, that the hopeless-budget rule (remaining < service) applies only
// when admission is enabled, and that DepthPeak tracks the high water.
func TestAdmitterPolicy(t *testing.T) {
	const service = 30 * sim.Microsecond
	maxQueue := &AdmissionConfig{MaxQueue: 4}
	target := &AdmissionConfig{Target: 100 * sim.Microsecond}
	cases := []struct {
		name              string
		cfg               *AdmissionConfig
		phase             rpc.AdmitPhase
		depth             int
		waited, remaining sim.Time
		admit             bool
		shedArrive        int64
		shedServe         int64
	}{
		{"off/arrive over bound", nil, rpc.AdmitArrive, 9, 0, rpc.NoDeadline, true, 0, 0},
		{"off/serve past target", nil, rpc.AdmitServe, 1, 500 * sim.Microsecond, rpc.NoDeadline, true, 0, 0},
		{"off/serve hopeless", nil, rpc.AdmitServe, 1, 0, service - 1, true, 0, 0},
		{"maxqueue/arrive at bound", maxQueue, rpc.AdmitArrive, 4, 0, rpc.NoDeadline, true, 0, 0},
		{"maxqueue/arrive over bound", maxQueue, rpc.AdmitArrive, 5, 0, rpc.NoDeadline, false, 1, 0},
		{"maxqueue/serve long wait", maxQueue, rpc.AdmitServe, 2, 500 * sim.Microsecond, rpc.NoDeadline, true, 0, 0},
		{"maxqueue/serve hopeless", maxQueue, rpc.AdmitServe, 2, 0, service - 1, false, 0, 1},
		{"maxqueue/serve budget covers", maxQueue, rpc.AdmitServe, 2, 0, service, true, 0, 0},
		{"target/arrive deep", target, rpc.AdmitArrive, 50, 0, rpc.NoDeadline, true, 0, 0},
		{"target/serve within", target, rpc.AdmitServe, 3, 100 * sim.Microsecond, rpc.NoDeadline, true, 0, 0},
		{"target/serve past", target, rpc.AdmitServe, 3, 101 * sim.Microsecond, rpc.NoDeadline, false, 0, 1},
		{"target/serve hopeless", target, rpc.AdmitServe, 3, 0, service - 1, false, 0, 1},
	}
	for _, c := range cases {
		var a Admitter
		var depth trace.Gauge
		got := a.Policy(c.cfg, service, &depth)(c.phase, c.depth, c.waited, c.remaining)
		if got != c.admit || a.ShedArrive != c.shedArrive || a.ShedServe != c.shedServe ||
			a.DepthPeak != c.depth || depth.Value() != float64(c.depth) {
			t.Errorf("%s: admit/shed_arrive/shed_serve/depth_peak/gauge = %v/%d/%d/%d/%g, want %v/%d/%d/%d/%d",
				c.name, got, a.ShedArrive, a.ShedServe, a.DepthPeak, depth.Value(),
				c.admit, c.shedArrive, c.shedServe, c.depth, c.depth)
		}
	}

	var a Admitter
	var depth trace.Gauge
	policy := a.Policy(maxQueue, service, &depth)
	for _, d := range []int{3, 7, 2} {
		policy(rpc.AdmitArrive, d, 0, rpc.NoDeadline)
	}
	if a.DepthPeak != 7 || a.ShedArrive != 1 {
		t.Errorf("depth_peak/shed_arrive after depths 3,7,2 = %d/%d, want 7/1", a.DepthPeak, a.ShedArrive)
	}
}

// TestServeRejectsWrites checks that the unreplicated tier refuses a
// workload with a write mix: PutFrac is the replicated tier's knob.
func TestServeRejectsWrites(t *testing.T) {
	cfg := Config{ShardNodes: []int{1}, ClientNodes: []int{0}, Conns: 1}
	err := tierSetup(t, cfg, 2, func(p *sim.Proc, tier *Tier, _ *vmmc.Process) {
		if _, err := tier.RunOpenLoop(p, WorkloadConfig{Rate: 1000, Requests: 1, PutFrac: 0.5}); err == nil {
			t.Error("RunOpenLoop accepted PutFrac 0.5")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
