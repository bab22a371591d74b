package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"testing"
	"time"
)

// The anchor tests run the harness's workloads at the sweeps' own
// settings and require the sweeps' committed results, which shows the
// harness drives the same public code the sweeps do.

// TestA2AMatchesScalesweep: scalesweep's 64-node row in BENCH_scale.json
// is 5330.714 us of virtual time and 3,687,233 dispatched events.
func TestA2AMatchesScalesweep(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node exchange")
	}
	s := newSession(false)
	cfg := a2aDefault(0)
	cfg.scalesweep = true
	res, err := runA2A(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%.3f", res.virtElapsed.Micros()); got != "5330.714" {
		t.Errorf("virtual time %s us, want 5330.714", got)
	}
	if got := s.eng.SchedStats().Dispatched; got != 3687233 {
		t.Errorf("events %d, want 3687233", got)
	}
	if res.failed != 0 || res.attempted != 8064 {
		t.Errorf("%d of %d messages failed, want 0 of 8064", res.failed, res.attempted)
	}
}

// TestKVMatchesReplicasweep: replicasweep's "r=2 rate=30000" row in
// BENCH_replica.json serves 239 of 240 requests with p50 121.571 us.
func TestKVMatchesReplicasweep(t *testing.T) {
	s := newSession(false)
	res, err := runKV(s, kvReplicasweep(240))
	if err != nil {
		t.Fatal(err)
	}
	sortTimes(res.lat)
	kv := res.kv
	if kv.ok != 239 || kv.late != 1 || kv.sends != 242 || kv.rywFallbacks != 2 {
		t.Errorf("outcomes %+v, want ok 239, late 1, sends 242, ryw fallbacks 2", *kv)
	}
	if got := fmt.Sprintf("%.3f/%.3f/%.3f", quantile(res.lat, 500).Micros(),
		quantile(res.lat, 990).Micros(), quantile(res.lat, 999).Micros()); got != "121.571/220.971/348.440" {
		t.Errorf("p50/p99/p999 %s us, want 121.571/220.971/348.440", got)
	}
	if kv.rywViolations != 0 || kv.badValues != 0 {
		t.Errorf("%d read-your-writes violations and %d wrong values, want none", kv.rywViolations, kv.badValues)
	}
	if res.kvApplies != 34 {
		t.Errorf("applies %d, want 34", res.kvApplies)
	}
}

// TestWorkloadsRepeat: two runs of one seed agree on every virtual-time
// result, and another seed gives other inputs.
func TestWorkloadsRepeat(t *testing.T) {
	run := func(seed uint64) string {
		s := newSession(false)
		cfg := allreduceDefault(seed)
		cfg.iters = 2
		res, err := runAllReduce(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("seed %d: %d of %d all-reduces wrong", seed, res.failed, res.attempted)
		}
		report, _ := s.finish()
		sortTimes(res.lat)
		return digest("allreduce", 0, res, report)
	}
	a, b, c := run(1), run(1), run(2)
	if a != b {
		t.Errorf("seed 1 digests differ: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 give the same digest %s", a)
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct{ fn, file, want string }{
		{"repro/internal/mem.(*AddressSpace).Translate", "/src/internal/mem/addrspace.go", "mem"},
		{"repro/internal/vmmc.(*Node).deliverSignal", "/src/internal/vmmc/driver.go", "driver"},
		{"repro/internal/vmmc.(*Process).SendMsg", "/src/internal/vmmc/process.go", "vmmc"},
		{"repro/internal/sim.(*Proc).PollEvery.func1", "/src/internal/sim/proc.go", "sim"},
		{"repro/internal/ether.(*Bus).Send", "/src/internal/ether/ether.go", "other"},
		{"main.runKV", "/src/perfbench/kv.go", "harness"},
		{"runtime.mapaccess2", "/go/src/runtime/map.go", ""},
	} {
		if got := layerOf(tc.fn, tc.file); got != tc.want {
			t.Errorf("layerOf(%q) = %q, want %q", tc.fn, got, tc.want)
		}
	}
}

var spinSink uint64

// TestAttributeProfile decodes a real CPU profile: time spent in this
// package's code lands in "harness".
func TestAttributeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	r := rng(1)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		spinSink += r.next()
	}
	pprof.StopCPUProfile()
	got := map[string]int64{}
	if err := attributeProfile(buf.Bytes(), got); err != nil {
		t.Fatal(err)
	}
	if got["harness"] == 0 {
		t.Errorf("no samples charged to the harness: %v", got)
	}
}
