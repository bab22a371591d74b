package replica

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// tierSetup boots a cluster, builds a replicated tier on it, and runs
// fn as the orchestrating proc with a client process on ClientNodes[0].
func tierSetup(t *testing.T, cfg Config, nodes int, fn func(p *sim.Proc, tier *Tier, cproc *vmmc.Process)) error {
	t.Helper()
	eng := sim.NewEngine()
	cluster, err := vmmc.NewCluster(eng, vmmc.Options{Nodes: nodes, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Go("replica-test", func(p *sim.Proc) {
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

func testPolicy(seed uint64) serve.RetryPolicy {
	return serve.RetryPolicy{
		Base:   sim.Micros(50),
		Max:    sim.Micros(400),
		Budget: 10,
		Ratio:  0.5,
		Seed:   seed,
	}
}

// TestReplicaPlacement pins the deterministic least-loaded placement:
// shards*R distinct nodes taken balanced from the pool prefix, stable
// across calls, with clear errors for short or duplicated pools.
func TestReplicaPlacement(t *testing.T) {
	got, err := place(3, 2, []int{0, 1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1}, {2, 3}, {4, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("place(3, 2, 0..6) = %v, want %v", got, want)
	}
	again, err := place(3, 2, []int{0, 1, 2, 3, 4, 5, 6})
	if err != nil || !reflect.DeepEqual(again, got) {
		t.Errorf("placement not deterministic: %v vs %v (err %v)", again, got, err)
	}
	if _, err := place(2, 3, []int{1, 2, 3, 4, 5}); err == nil {
		t.Error("place accepted 2x3 replicas on 5 nodes")
	}
	if _, err := place(1, 2, []int{1, 1, 2}); err == nil {
		t.Error("place accepted a duplicated candidate node")
	}
}

// TestReplicaVersionedKV exercises the write path end to end: a Put
// through the primary bumps the per-key version, the asynchronous apply
// lands the same version and bytes on the follower, and reads from
// either replica report the version tag.
func TestReplicaVersionedKV(t *testing.T) {
	cfg := Config{
		Shards:      1,
		R:           2,
		Nodes:       []int{1, 2},
		ClientNodes: []int{0},
		Keys:        8,
		ValueBytes:  32,
	}
	err := tierSetup(t, cfg, 3, func(p *sim.Proc, tier *Tier, cproc *vmmc.Process) {
		grp, err := tier.DialGroup(p, cproc, 0, 0, 0, testPolicy(1))
		if err != nil {
			t.Error(err)
			return
		}
		for j := 0; j < 2; j++ {
			val, ver, found, err := grp.GetFrom(p, j, 0, 0)
			if err != nil || !found || ver != 1 || len(val) != 32 {
				t.Errorf("replica %d preload = (len %d, ver %d, found %v, %v), want (32, 1, true, nil)", j, len(val), ver, found, err)
			}
		}
		ver, err := grp.Put(p, 0, []byte("v2-bytes"), 0)
		if err != nil || ver != 2 {
			t.Errorf("put = (ver %d, %v), want (2, nil)", ver, err)
			return
		}
		// The primary replies before the follower apply: give the applier
		// a moment, then the follower must hold version 2 byte-exact.
		p.Sleep(sim.Millisecond)
		val, fver, found, err := grp.GetFrom(p, 1, 0, 0)
		if err != nil || !found || fver != 2 || string(val) != "v2-bytes" {
			t.Errorf("follower after apply = (%q, ver %d, found %v, %v), want (v2-bytes, 2, true, nil)", val, fver, found, err)
		}
		follower := tier.Set(0).Replicas[1]
		if follower.Applies != 1 {
			t.Errorf("follower applies = %d, want 1", follower.Applies)
		}
		if follower.Dead {
			t.Error("follower marked dead on a healthy tier")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReplicaReadYourWrites covers both halves of the guarantee. The
// put-then-read loop asserts the invariant itself: a read issued right
// after a Put never resolves below the version the Put returned. Then
// the stale-follower window is staged directly — the primary's store
// advanced, the follower's asynchronous apply "still in flight" — and
// reads the router lands on the follower must take the primary
// fallback, which the test requires to fire.
func TestReplicaReadYourWrites(t *testing.T) {
	cfg := Config{
		Shards:      1,
		R:           2,
		Nodes:       []int{1, 2},
		ClientNodes: []int{0},
		Keys:        8,
		ValueBytes:  32,
	}
	err := tierSetup(t, cfg, 3, func(p *sim.Proc, tier *Tier, cproc *vmmc.Process) {
		grp, err := tier.DialGroup(p, cproc, 0, 0, 0, testPolicy(2))
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 10; i++ {
			ver, err := grp.Put(p, 0, []byte("ryw"), 0)
			if err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
			_, got, found, _, _, err := grp.GetRYW(p, 0, ver, 0)
			if err != nil || !found {
				t.Errorf("read %d = (found %v, %v)", i, found, err)
				return
			}
			if got < ver {
				t.Errorf("read %d saw version %d after writing %d", i, got, ver)
				return
			}
		}
		// Stage the window the loop above cannot hold open: the primary
		// is at version 99 and the follower's apply has not landed.
		primary := tier.Set(0).Replicas[0]
		primary.store[0] = entry{ver: 99, val: primary.store[0].val}
		fallbacks := 0
		for i := 0; i < 20; i++ {
			_, got, found, replica, fb, err := grp.GetRYW(p, 0, 99, 0)
			if err != nil || !found || got < 99 {
				t.Errorf("stale-window read %d = (ver %d, found %v, %v), want >= 99", i, got, found, err)
				return
			}
			if fb {
				fallbacks++
				if replica != 0 {
					t.Errorf("fallback read %d served by replica %d, want the primary", i, replica)
				}
			}
		}
		if fallbacks == 0 {
			t.Error("no read ever hit the stale follower; the fallback path went unexercised")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReplicaFailoverRetriesElsewhere is the retry-routing regression
// test: with every replica shedding everything, a request burns its
// whole retry budget, and the recorded attempt sequence must never name
// the same replica twice in a row — each retry went somewhere else
// while alternatives were alive.
func TestReplicaFailoverRetriesElsewhere(t *testing.T) {
	cfg := Config{
		Shards:      1,
		R:           3,
		Nodes:       []int{1, 2, 3},
		ClientNodes: []int{0},
		Keys:        8,
	}
	err := tierSetup(t, cfg, 4, func(p *sim.Proc, tier *Tier, cproc *vmmc.Process) {
		// Ratio 2 keeps the token bucket earning faster than one retry
		// per request spends it, so every request in the loop retries.
		pol := testPolicy(3)
		pol.Ratio = 2
		grp, err := tier.DialGroup(p, cproc, 0, 0, 0, pol)
		if err != nil {
			t.Error(err)
			return
		}
		// Warm each connection first so the shed storm below is pure
		// protocol, then shed everything.
		for j := 0; j < 3; j++ {
			if _, _, _, err := grp.GetFrom(p, j, 0, 0); err != nil {
				t.Errorf("warm %d: %v", j, err)
			}
		}
		for _, rep := range tier.Set(0).Replicas {
			rep.Server().SetAdmission(func(rpc.AdmitPhase, int, sim.Time, sim.Time) bool { return false })
		}
		var cur []int
		tier.SetAttemptHook(func(shard, replica int) {
			if shard != 0 {
				t.Errorf("attempt on shard %d, want 0", shard)
			}
			cur = append(cur, replica)
		})
		total := 0
		for i := 0; i < 5; i++ {
			cur = nil
			_, _, _, _, err := grp.Get(p, 0, p.Now()+10*sim.Millisecond)
			if !errors.Is(err, rpc.ErrOverloaded) {
				t.Errorf("get %d err = %v, want ErrOverloaded", i, err)
				return
			}
			if len(cur) < 2 {
				t.Errorf("get %d made %d attempts; retries did not run", i, len(cur))
				return
			}
			total += len(cur)
			// The regression: within one request's retry chain, no two
			// consecutive attempts may target the same replica while the
			// others are alive.
			for k := 1; k < len(cur); k++ {
				if cur[k] == cur[k-1] {
					t.Errorf("get %d retried replica %d back to back (chain %v)", i, cur[k], cur)
					return
				}
			}
		}
		if total < 12 {
			t.Errorf("only %d attempts across 5 requests; retry budget went unused", total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReplicaKillFailover kills a follower mid-stream: every read after
// the kill must still succeed — a read that lands on the dead replica
// times out after its clamped attempt budget and fails over — with zero
// transport errors, and the markdown window must keep later reads off
// the corpse entirely.
func TestReplicaKillFailover(t *testing.T) {
	cfg := Config{
		Shards:      1,
		R:           2,
		Nodes:       []int{1, 2},
		ClientNodes: []int{0},
		Keys:        8,
		Routing:     RoutingConfig{AttemptTimeout: sim.Micros(120)},
	}
	err := tierSetup(t, cfg, 3, func(p *sim.Proc, tier *Tier, cproc *vmmc.Process) {
		grp, err := tier.DialGroup(p, cproc, 0, 0, 0, testPolicy(4))
		if err != nil {
			t.Error(err)
			return
		}
		for j := 0; j < 2; j++ {
			if _, _, _, err := grp.GetFrom(p, j, 0, 0); err != nil {
				t.Errorf("warm %d: %v", j, err)
			}
		}
		var attempts []int
		tier.SetAttemptHook(func(_, replica int) { attempts = append(attempts, replica) })

		tier.KillReplica(0, 1)
		deadAttempts := 0
		for i := 0; i < 40; i++ {
			_, ver, found, replica, err := grp.Get(p, 0, p.Now()+2*sim.Millisecond)
			if err != nil || !found || ver != 1 {
				t.Errorf("get %d = (ver %d, found %v, replica %d, %v), want a clean read", i, ver, found, replica, err)
				return
			}
			if replica != 0 {
				t.Errorf("get %d reportedly served by dead replica %d", i, replica)
				return
			}
		}
		for _, a := range attempts {
			if a == 1 {
				deadAttempts++
			}
		}
		if deadAttempts == 0 {
			t.Error("no attempt ever routed to the dead replica; the failover path went unexercised")
		}
		if deadAttempts > 3 {
			t.Errorf("%d attempts hit the dead replica; markdown did not keep reads off it", deadAttempts)
		}
		if n := tier.TransportErrors(); n != 0 {
			t.Errorf("transport errors = %d, want 0", n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReplicaApplierCutsOffDeadFollower: with the follower dead, the
// primary's applier loses applyFailCutoff consecutive applies, marks
// the follower dead, and later puts stop queueing for it — the
// replication stream does not wedge behind a corpse.
func TestReplicaApplierCutsOffDeadFollower(t *testing.T) {
	cfg := Config{
		Shards:      1,
		R:           2,
		Nodes:       []int{1, 2},
		ClientNodes: []int{0},
		Keys:        8,
	}
	err := tierSetup(t, cfg, 3, func(p *sim.Proc, tier *Tier, cproc *vmmc.Process) {
		grp, err := tier.DialGroup(p, cproc, 0, 0, 0, testPolicy(5))
		if err != nil {
			t.Error(err)
			return
		}
		tier.KillReplica(0, 1)
		for i := 0; i < applyFailCutoff+1; i++ {
			if _, err := grp.Put(p, 0, []byte("after-kill"), 0); err != nil {
				t.Errorf("put %d through the primary: %v", i, err)
				return
			}
		}
		p.Sleep(10 * sim.Millisecond)
		follower := tier.Set(0).Replicas[1]
		if !follower.Dead {
			t.Errorf("follower not cut off after %d lost applies (fails %d)", applyFailCutoff, follower.ApplyFails)
		}
		if follower.ApplyFails < applyFailCutoff {
			t.Errorf("apply fails = %d, want at least %d", follower.ApplyFails, applyFailCutoff)
		}
		if n := tier.ApplyBacklog(0); n != 0 {
			t.Errorf("apply backlog = %d after cutoff, want 0", n)
		}
		if _, err := grp.Put(p, 0, []byte("post-cutoff"), 0); err != nil {
			t.Errorf("put after cutoff: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runOpenLoopOnce builds a fresh 2-shard R=2 tier and drives a small
// mixed workload through it, returning the stats.
func runOpenLoopOnce(t *testing.T) *Stats {
	t.Helper()
	cfg := Config{
		Shards:      2,
		R:           2,
		Nodes:       []int{1, 2, 3, 4},
		ClientNodes: []int{0},
		Conns:       2,
		Keys:        16,
		Admission:   &serve.AdmissionConfig{MaxQueue: 6, Target: sim.Micros(120)},
		Routing:     RoutingConfig{AttemptTimeout: sim.Micros(120)},
	}
	var stats *Stats
	err := tierSetup(t, cfg, 5, func(p *sim.Proc, tier *Tier, cproc *vmmc.Process) {
		s, err := tier.RunOpenLoop(p, serve.WorkloadConfig{
			Rate:     20000,
			Requests: 400,
			Theta:    0.8,
			PutFrac:  0.2,
			Deadline: sim.Micros(400),
			Seed:     0x51ab1e,
			Retry:    testPolicy(0x51ab1e),
		})
		if err != nil {
			t.Error(err)
			return
		}
		stats = s
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestReplicaOpenLoopDeterminism runs the same mixed workload twice on
// fresh engines and requires identical stats — the property every sweep
// cell's double-run check builds on — plus the run-level invariants:
// every request resolves, no untyped errors, no read-your-writes
// violations.
func TestReplicaOpenLoopDeterminism(t *testing.T) {
	a := runOpenLoopOnce(t)
	b := runOpenLoopOnce(t)
	if a == nil || b == nil {
		t.Fatal("no stats")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("stats differ across identical runs:\n a: %+v\n b: %+v", a, b)
	}
	if a.Resolved() != a.Offered {
		t.Errorf("resolved %d of %d offered", a.Resolved(), a.Offered)
	}
	if a.Errors != 0 {
		t.Errorf("untyped errors = %d, want 0", a.Errors)
	}
	if a.RYWViolations != 0 {
		t.Errorf("read-your-writes violations = %d, want 0", a.RYWViolations)
	}
	if a.OK == 0 || a.Puts == 0 {
		t.Errorf("degenerate run: OK=%d puts=%d", a.OK, a.Puts)
	}
}

// TestReplicaBuildRejectsBadConfigs pins the construction guards: the
// node pool must fit Shards*R distinct servers and the slot layout must
// stay clear of the reply-tag range.
func TestReplicaBuildRejectsBadConfigs(t *testing.T) {
	eng := sim.NewEngine()
	cluster, err := vmmc.NewCluster(eng, vmmc.Options{Nodes: 3, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Go("replica-badcfg", func(p *sim.Proc) {
		if _, err := Build(p, cluster, Config{Shards: 2, R: 2, Nodes: []int{1, 2}, ClientNodes: []int{0}}); err == nil {
			t.Error("Build accepted 2x2 replicas on 2 nodes")
		}
		if _, err := Build(p, cluster, Config{Shards: 1, R: 1, Nodes: []int{1}, ClientNodes: []int{0}, Conns: 300}); err == nil {
			t.Error("Build accepted a slot layout colliding with the reply tag range")
		}
	})
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
}
