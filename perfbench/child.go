package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmmc"
)

// Each run of a workload happens in a child process of its own. The
// simulator's daemon processes stay parked when a run ends, and with
// them the whole simulated cluster, so runs in one process would pile up
// memory; a fresh process per run also gives every run the same start.

// result is one run of a workload, as the workload reports it.
type result struct {
	memBytes     int64      // simulated physical memory, all nodes
	virtElapsed  sim.Time   // measured phase, virtual time
	payloadBytes int64      // application bytes delivered in it
	lat          []sim.Time // per-operation virtual latencies
	attempted    int
	failed       int

	kv        *kvOutcome
	kvSheds   int64
	kvApplies int64
}

func backingBytes(c *vmmc.Cluster) int64 {
	var n int64
	for _, node := range c.Nodes {
		n += int64(node.Phys.Size())
	}
	return n
}

// record is what a child reports to the parent about its run.
type record struct {
	Digest        string
	Attempted     int
	Failed        int
	SetupS        float64 // host seconds to the start of the measured phase
	RunS          float64 // host seconds of the measured phase
	AllocMB       float64
	PeakHeapMB    float64
	Mallocs       uint64
	Events        uint64 // dispatched over the whole run
	MeasureEvents uint64 // dispatched in the measured phase
	VirtElapsedUS float64
	PayloadBytes  int64
	LatCount      int
	LatUS         map[int]float64 // per-mille quantile -> virtual us
	LatMeanUS     float64
	KV            string `json:",omitempty"`

	// Traced runs only.
	Layer      []layerValue     `json:",omitempty"`
	CPUSamples map[string]int64 `json:",omitempty"`
	GCCPU      float64
	AllCPU     float64
	SinkEvents int64
	SinkNS     int64
	PhaseSpans int
	OpSpans    int
}

// latQuantiles are the per-mille quantiles a record carries.
var latQuantiles = []int{500, 900, 990, 999}

// childRun runs the workload once and prints its record as JSON.
func childRun(w *workload, seed uint64, traced bool, spansPath string) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := readCPU()
	heap := startHeapSampler()
	s := newSession(traced)
	var prof bytes.Buffer
	profiling := false
	if traced {
		s.onMeasure = func() {
			runtime.SetCPUProfileRate(500)
			profiling = pprof.StartCPUProfile(&prof) == nil
		}
	}
	res, err := w.run(s, seed)
	if profiling {
		pprof.StopCPUProfile()
	}
	peak := heap.stop()
	runtime.ReadMemStats(&m1)
	cpu1 := readCPU()
	if err != nil {
		return err
	}
	st := s.eng.SchedStats()
	report, snap := s.finish()
	sortTimes(res.lat)
	rec := record{
		Digest:        digest(w.name, seed, res, report),
		Attempted:     res.attempted,
		Failed:        res.failed,
		SetupS:        s.measureWall.Sub(s.t0).Seconds(),
		RunS:          s.runEnd.Sub(s.measureWall).Seconds(),
		AllocMB:       float64(m1.TotalAlloc-m0.TotalAlloc) / mb,
		PeakHeapMB:    float64(peak) / mb,
		Mallocs:       m1.Mallocs - m0.Mallocs,
		Events:        st.Dispatched,
		MeasureEvents: st.Dispatched - s.measureEvts,
		VirtElapsedUS: res.virtElapsed.Micros(),
		PayloadBytes:  res.payloadBytes,
		LatCount:      len(res.lat),
		LatUS:         map[int]float64{},
	}
	for _, q := range latQuantiles {
		rec.LatUS[q] = quantile(res.lat, q).Micros()
	}
	var total sim.Time
	for _, l := range res.lat {
		total += l
	}
	rec.LatMeanUS = total.Micros() / float64(max(len(res.lat), 1))
	if res.kv != nil {
		rec.KV = fmt.Sprintf("%+v", *res.kv)
	}
	if traced {
		if !profiling {
			return fmt.Errorf("cpu profile did not start")
		}
		rec.CPUSamples = map[string]int64{}
		if err := attributeProfile(prof.Bytes(), rec.CPUSamples); err != nil {
			return err
		}
		rec.GCCPU, rec.AllCPU = cpu1[0]-cpu0[0], cpu1[1]-cpu0[1]
		rec.SinkEvents, rec.SinkNS = s.sink.events, s.sink.ns
		rec.Layer = layerMetrics(s, res, report, snap, st)
		rec.PhaseSpans, rec.OpSpans = len(s.phases), len(s.ops)
		if spansPath != "" {
			if err := writeSpans(spansPath, w.name, seed, s); err != nil {
				return err
			}
		}
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// digest hashes a run's virtual-time results: outcome counts, every
// latency sample, and the analyzer's report. Host-time quantities and
// simulator-internal counts (events) are left out, so a change that
// only speeds the simulator up keeps the digest.
func digest(name string, seed uint64, r *result, report *analysis.Report) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s seed=%d elapsed=%d payload=%d attempted=%d failed=%d\n",
		name, seed, r.virtElapsed, r.payloadBytes, r.attempted, r.failed)
	if r.kv != nil {
		fmt.Fprintf(h, "%+v\n", *r.kv)
	}
	for _, l := range r.lat {
		fmt.Fprintf(h, "%d\n", l)
	}
	report.WriteJSON(h, "") // hash writes cannot fail
	return hex.EncodeToString(h.Sum(nil))
}

// resourceClasses are the analyzer classes whose busy fraction and
// queue wait the traced run reports.
var resourceClasses = []string{"bus-pci", "host-dma", "send-dma", "recv-dma", "link-tx", "lcp"}

// counterSum adds every registry counter whose name ends in one of the
// suffixes, over all nodes.
func counterSum(snap trace.Snapshot, suffixes ...string) float64 {
	var n int64
	for _, c := range snap.Counters {
		for _, s := range suffixes {
			if strings.HasSuffix(c.Name, s) {
				n += c.Value
			}
		}
	}
	return float64(n)
}

// layerValue is one per-layer metric a traced run measures by itself.
type layerValue struct {
	Name, Unit, Note string
	Value            float64
}

// layerMetrics gathers the per-layer metrics one traced run measures by
// itself, in print order: simulator counts, layer counters, the
// analyzer's modeled resource figures and the medians of the harness's
// operation spans.
func layerMetrics(s *session, res *result, report *analysis.Report, snap trace.Snapshot, st sim.SchedStats) []layerValue {
	var kv kvOutcome
	if res.kv != nil {
		kv = *res.kv
	}
	out := []layerValue{
		{"sim.events", "count", "(simulator, whole run)", float64(st.Dispatched)},
		{"sim.peak_event_heap", "count", "(simulator)", float64(st.PeakHeapLen)},
		{"mem.backing_mb", "MB", "(simulated physical memory, all nodes)", float64(res.memBytes) / mb},
		{"trace.events", "count", "(trace events the analyzer consumed)", float64(s.sink.events)},
		{"vmmc.sends_short", "count", "(LCP counters, all nodes)", counterSum(snap, "/lcp_sends_short")},
		{"vmmc.sends_long", "count", "", counterSum(snap, "/lcp_sends_long")},
		{"lanai.packets_out", "count", "", counterSum(snap, "/lcp_packets_out")},
		{"lanai.loop_iters", "count", "", counterSum(snap, "/lcp_tight_loop_iterations", "/lcp_main_loop_iterations")},
		{"myrinet.wire_bytes", "bytes", "", counterSum(snap, "/bytes_injected")},
		{"lanai.rl_retransmits", "count", "", counterSum(snap, "/rl_retransmits")},
		{"lanai.tlb_misses", "count", "", counterSum(snap, "/tlb_misses")},
		{"coll.payload_msgs", "count", "", counterSum(snap, "coll/payload_msgs")},
		{"coll.credit_stalls", "count", "", counterSum(snap, "coll/credit_stalls")},
		{"rpc.sends", "count", "(kv client and tier counters)", float64(kv.sends)},
		{"rpc.retries", "count", "", float64(kv.retries)},
		{"serve.sheds", "count", "", float64(res.kvSheds)},
		{"replica.ryw_fallbacks", "count", "", float64(kv.rywFallbacks)},
		{"replica.applies", "count", "", float64(res.kvApplies)},
	}
	for _, class := range resourceClasses {
		var rs analysis.ResourceStat
		for _, have := range report.Resources {
			if have.Class == class {
				rs = have
			}
		}
		out = append(out,
			layerValue{class + ".busy_frac", "fraction", "(virtual, analyzer, busiest instance)", rs.BusyFrac},
			layerValue{class + ".wait_p99_us", "us", fmt.Sprintf("(virtual, analyzer, %d waits)", rs.WaitCount), float64(rs.WaitP99NS) / 1000})
	}
	var sram float64
	for _, o := range report.Occupancies {
		if o.Class == "sram" {
			sram = o.PeakFrac
		}
	}
	opMedian := func(name string) (float64, int) {
		var ls []sim.Time
		for _, sp := range s.ops {
			if sp.Name == name {
				ls = append(ls, sim.Time(sp.VirtEnd-sp.VirtStart))
			}
		}
		sortTimes(ls)
		return quantile(ls, 500).Micros(), len(ls)
	}
	send, nSend := opMedian("vmmc.send_complete")
	ar, nAR := opMedian("coll.allreduce")
	return append(out,
		layerValue{"lanai.sram_peak_frac", "fraction", "(virtual, analyzer)", sram},
		layerValue{"vmmc.send_complete_us", "us", fmt.Sprintf("(virtual, median of %d SendMsg->WaitSend spans)", nSend), send},
		layerValue{"coll.allreduce_us", "us", fmt.Sprintf("(virtual, median of %d AllReduce spans)", nAR), ar})
}

// writeSpans writes one traced run's spans as JSON.
func writeSpans(path, name string, seed uint64, s *session) error {
	spans := append(append([]span{}, s.phases...), s.ops...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].WallStart < spans[j].WallStart })
	b, err := json.Marshal(map[string]any{"workload": name, "seed": seed, "spans": spans})
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// readCPU returns the runtime's GC and total CPU-seconds estimates.
func readCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// heapSampler polls the bytes held in heap objects every millisecond
// and keeps the largest value: the run's peak heap.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}
