package bench

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/lanai"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// ScaleConfig parameterizes the scalesweep experiment.
type ScaleConfig struct {
	// Nodes lists the cluster sizes to sweep. Empty selects the default
	// 16 -> 64 -> 256 ladder.
	Nodes []int
	// MsgBytes is the per-message payload (at most one page: each
	// sender owns one page-sized slot in every receiver's export, which
	// keeps a 256-node all-to-all inside the 2048-entry outgoing page
	// table). Zero selects 1024.
	MsgBytes int
	// Rounds is how many messages each ordered node pair exchanges.
	// Zero selects 2.
	Rounds int
	// Out, when non-empty, writes the machine-readable BENCH_scale.json
	// artifact here.
	Out string
}

// ScaleResult is one row of the sweep, mixing virtual-time quantities
// (deterministic) with wall-clock simulator throughput (host-dependent).
type ScaleResult struct {
	Nodes          int
	Messages       int
	PayloadBytes   int64
	VirtualElapsed sim.Time
	GoodputMBps    float64
	Events         uint64
	WallSeconds    float64
	EventsPerSec   float64
	AllocsPerEvent float64
	PeakEventHeap  int
	Compactions    uint64
	HeapSysMB      float64
}

// barrier parks processes until target of them have arrived, then
// releases the generation together. Reusable across phases.
type barrier struct {
	c         *sim.Cond
	n, target int
	gen       int
}

func newBarrier(eng *sim.Engine, target int) *barrier {
	return &barrier{c: sim.NewCond(eng), target: target}
}

func (b *barrier) await(p *sim.Proc) {
	gen := b.gen
	if b.n++; b.n == b.target {
		b.n = 0
		b.gen++
		b.c.Broadcast()
		return
	}
	for gen == b.gen {
		b.c.Wait(p)
	}
}

// sema is a counting semaphore over virtual time. The import phase runs
// under one: the daemons' handshake rides the shared Ethernet, whose
// serializing medium congests past the retry budget if every node fires
// its imports at once — the cap keeps the offered load inside what the
// bus can carry, as a real job launcher's staged startup would.
type sema struct {
	c      *sim.Cond
	active int
	limit  int
}

func newSema(eng *sim.Engine, limit int) *sema {
	return &sema{c: sim.NewCond(eng), limit: limit}
}

func (s *sema) acquire(p *sim.Proc) {
	for s.active >= s.limit {
		s.c.Wait(p)
	}
	s.active++
}

func (s *sema) release() {
	s.active--
	s.c.Signal()
}

// ScaleSweep runs all-to-all traffic on growing clusters and reports both
// the model's goodput (virtual time) and the simulator's own throughput
// (events per wall-clock second) — the quantity BENCH_scale.json tracks
// across PRs. The smallest configuration runs twice and the sweep fails
// on any virtual-time or event-count drift between the two runs, so a CI
// smoke invocation doubles as a determinism check.
func ScaleSweep(cfg ScaleConfig) (Table, error) {
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = []int{16, 64, 256}
	}
	if cfg.MsgBytes == 0 {
		cfg.MsgBytes = 1024
	}
	if cfg.MsgBytes > mem.PageSize {
		return Table{}, fmt.Errorf("bench: scalesweep message %d exceeds one page", cfg.MsgBytes)
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 2
	}

	t := Table{
		Title: "Scale sweep: all-to-all traffic, virtual goodput vs simulator throughput",
		Columns: []string{"nodes", "messages", "virtual time", "goodput",
			"events", "wall time", "events/sec", "allocs/event", "peak heap", "compactions"},
	}

	var (
		results []ScaleResult
		reports []*analysis.Report
	)
	for i, n := range cfg.Nodes {
		run := func() (ScaleResult, error) { return runScaleCase(n, cfg.MsgBytes, cfg.Rounds) }
		var (
			r   ScaleResult
			rep *analysis.Report
			err error
		)
		if i == 0 {
			// Wall-clock fields differ run to run; virtual time and the
			// event count may not.
			r, rep, err = runTwice("scalesweep", fmt.Sprintf("%d nodes", n), run, func(a, b ScaleResult) bool {
				return a.VirtualElapsed == b.VirtualElapsed && a.Events == b.Events
			})
		} else {
			r, err = run()
			rep = takeAnalysis()
		}
		if err != nil {
			return t, err
		}
		results = append(results, r)
		reports = append(reports, rep)
		t.Notes = append(t.Notes, analysisNote(fmt.Sprintf("%d nodes", n), rep))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%d", r.Messages),
			fmt.Sprintf("%.1f us", r.VirtualElapsed.Micros()),
			fmt.Sprintf("%.1f MB/s", r.GoodputMBps),
			fmt.Sprintf("%d", r.Events),
			fmt.Sprintf("%.2f s", r.WallSeconds),
			fmt.Sprintf("%.0f", r.EventsPerSec),
			fmt.Sprintf("%.2f", r.AllocsPerEvent),
			fmt.Sprintf("%d", r.PeakEventHeap),
			fmt.Sprintf("%d", r.Compactions),
		})
	}
	if cfg.Out != "" {
		if err := writeScaleJSON(cfg, results, reports); err != nil {
			return t, err
		}
	}
	return t, nil
}

// runScaleCase boots an n-node cluster with the reliability layer on (the
// retransmit timers are the cancel-churn stress the heap compaction
// exists for) and runs the all-to-all exchange.
func runScaleCase(nodes, msgBytes, rounds int) (ScaleResult, error) {
	eng := observedEngine()
	eng.ObserveScheduler()

	// Each node exports one page per sender (tag = sender ID); importers
	// map exactly one page per peer, staying far inside the 2048-entry
	// outgoing page table even at 256 nodes.
	window := nodes * mem.PageSize
	memBytes := window + 64*mem.PageSize
	// Scale tuning. Two defaults in the link layer are sized for the
	// paper's 4-node, single-switch testbed and collapse on a deep switch
	// chain:
	//   - stragglers (in-sequence packets the AckEvery cadence skips) are
	//     acknowledged only by the sender's timeout-retransmit round, so
	//     this workload's sparse per-pair traffic pays a redundant
	//     retransmission per message. A delayed ack well under the RTO
	//     acks each step's packet promptly instead.
	//   - the 2 ms MaxRTO clamp caps the sender's patience at ~11 ms,
	//     while a large all-to-all step legitimately queues more than
	//     that behind the chain's trunk links. An impatient sender
	//     retransmits whole go-back-N windows into the congestion, the
	//     spiral exhausts the retry budget, and healthy peers are
	//     declared unreachable. Raising the clamp and the budget lets the
	//     adaptive RTO track the real (milliseconds) RTT.
	relCfg := lanai.DefaultReliability()
	relCfg.AckDelay = 25 * sim.Microsecond
	relCfg.MaxRTO = 50 * sim.Millisecond
	relCfg.MaxRetries = 12
	c, err := vmmc.NewCluster(eng, vmmc.Options{
		Nodes: nodes, MemBytes: memBytes, Reliable: true, Reliability: &relCfg,
	})
	if err != nil {
		return ScaleResult{}, err
	}

	var (
		exported  = newBarrier(eng, nodes)
		imported  = newBarrier(eng, nodes)
		step      = newBarrier(eng, nodes)
		finished  = newBarrier(eng, nodes)
		importSem = newSema(eng, 8)
		start     sim.Time
		elapsed   sim.Time
	)
	final := byte(rounds%250 + 1)
	for i := 0; i < nodes; i++ {
		i := i
		c.Go(fmt.Sprintf("sweep:%d", i), func(p *sim.Proc) {
			if i == 0 {
				markPhase(eng, "export")
			}
			proc, err := c.Nodes[i].NewProcess(p)
			if err != nil {
				panic(err)
			}
			buf, err := proc.Malloc(window)
			if err != nil {
				panic(err)
			}
			for j := 0; j < nodes; j++ {
				if j == i {
					continue
				}
				off := mem.VirtAddr(j * mem.PageSize)
				if err := proc.Export(p, uint32(j+1), buf+off, mem.PageSize, nil, false); err != nil {
					panic(err)
				}
			}
			exported.await(p)
			if i == 0 {
				markPhase(eng, "import")
			}

			importSem.acquire(p)
			dests := make([]vmmc.ProxyAddr, nodes)
			for j := 0; j < nodes; j++ {
				if j == i {
					continue
				}
				dest, _, err := proc.Import(p, j, uint32(i+1))
				if err != nil {
					panic(err)
				}
				dests[j] = dest
			}
			importSem.release()
			src, err := proc.Malloc(mem.PageSize)
			if err != nil {
				panic(err)
			}
			payload := make([]byte, msgBytes)
			imported.await(p)
			if i == 0 {
				start = p.Now()
				markPhase(eng, "exchange")
			}

			// Ring-shifted schedule: in step s every node sends to
			// (i+s) mod n, so each node receives exactly one message per
			// step and no receiver ever sees an incast burst. The
			// per-step barrier bounds skew, the way MPI all-to-all
			// implementations pace a shifted exchange.
			for r := 1; r <= rounds; r++ {
				marker := byte(r%250 + 1)
				for k := range payload {
					payload[k] = marker
				}
				if err := proc.Write(src, payload); err != nil {
					panic(err)
				}
				for s := 1; s < nodes; s++ {
					j := (i + s) % nodes
					seq, err := proc.SendMsg(p, src, dests[j], msgBytes, vmmc.SendOptions{})
					if err != nil {
						panic(err)
					}
					// Local completion frees the source page for the
					// next step; delivery is confirmed by the flag scan
					// at the end.
					if err := proc.WaitSend(p, seq); err != nil {
						panic(err)
					}
					step.await(p)
				}
			}

			if i == 0 {
				markPhase(eng, "drain")
			}
			// In-order delivery per pair: the final round's marker in a
			// slot means every earlier round landed there too. PollUntil
			// parks between deposits rather than spinning — at 256 nodes
			// the tail of retransmitted deliveries stretches over enough
			// virtual time that a 0.1 us spin loop would dominate the
			// whole simulation's event count.
			for j := 0; j < nodes; j++ {
				if j == i {
					continue
				}
				flag := buf + mem.VirtAddr(j*mem.PageSize+msgBytes-1)
				proc.PollUntil(p, func() bool {
					b, err := proc.AS.ReadBytes(flag, 1)
					return err == nil && b[0] == final
				})
			}
			finished.await(p)
			if i == 0 {
				elapsed = p.Now() - start
			}
		})
	}

	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	wallStart := time.Now()
	if err := c.Start(); err != nil {
		if os.Getenv("SCALE_DEBUG") != "" {
			snap := eng.MetricsSnapshot()
			for _, cv := range snap.Counters {
				fmt.Printf("DBG counter %-44s %v\n", cv.Name, cv.Value)
			}
			n, reason := c.Net.Dropped()
			fmt.Printf("DBG net dropped %d, last reason: %s\n", n, reason)
		}
		return ScaleResult{}, err
	}
	wall := time.Since(wallStart).Seconds()
	runtime.ReadMemStats(&msAfter)
	if err := capture(eng); err != nil {
		return ScaleResult{}, err
	}

	st := eng.SchedStats()
	msgs := nodes * (nodes - 1) * rounds
	payload := int64(msgs) * int64(msgBytes)
	r := ScaleResult{
		Nodes:          nodes,
		Messages:       msgs,
		PayloadBytes:   payload,
		VirtualElapsed: elapsed,
		Events:         st.Dispatched,
		WallSeconds:    wall,
		PeakEventHeap:  st.PeakHeapLen,
		Compactions:    st.Compactions,
		HeapSysMB:      float64(msAfter.HeapSys) / (1 << 20),
	}
	if elapsed > 0 {
		r.GoodputMBps = float64(payload) / elapsed.Seconds() / 1e6
	}
	if wall > 0 {
		r.EventsPerSec = float64(st.Dispatched) / wall
	}
	if st.Dispatched > 0 {
		r.AllocsPerEvent = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(st.Dispatched)
	}
	return r, nil
}

// writeScaleJSON emits the bench-trajectory artifact. Keys are written in
// a fixed order; wall-clock fields are host-dependent by nature, so this
// file is a performance record, not a golden artifact. The per-config
// verdicts and the final full analysis report are virtual-time-only and
// therefore deterministic.
func writeScaleJSON(cfg ScaleConfig, rs []ScaleResult, reps []*analysis.Report) error {
	f, err := os.Create(cfg.Out)
	if err != nil {
		return fmt.Errorf("bench: scale artifact: %w", err)
	}
	fmt.Fprintf(f, "{\n")
	fmt.Fprintf(f, "  \"benchmark\": \"vmmc-scalesweep\",\n")
	fmt.Fprintf(f, "  \"traffic\": \"all-to-all\",\n")
	fmt.Fprintf(f, "  \"msg_bytes\": %d,\n", cfg.MsgBytes)
	fmt.Fprintf(f, "  \"rounds\": %d,\n", cfg.Rounds)
	fmt.Fprintf(f, "  \"configs\": [\n")
	for i, r := range rs {
		comma := ","
		if i == len(rs)-1 {
			comma = ""
		}
		verdict := ""
		if i < len(reps) && reps[i] != nil {
			verdict = reps[i].Verdict
		}
		fmt.Fprintf(f, "    {\"nodes\": %d, \"messages\": %d, \"payload_bytes\": %d, "+
			"\"virtual_elapsed_us\": %.3f, \"goodput_mb_s\": %.2f, "+
			"\"events_dispatched\": %d, \"wall_seconds\": %.3f, \"events_per_sec\": %.0f, "+
			"\"allocs_per_event\": %.3f, \"peak_event_heap\": %d, \"compactions\": %d, "+
			"\"heap_sys_mb\": %.1f, \"verdict\": %q}%s\n",
			r.Nodes, r.Messages, r.PayloadBytes,
			r.VirtualElapsed.Micros(), r.GoodputMBps,
			r.Events, r.WallSeconds, r.EventsPerSec,
			r.AllocsPerEvent, r.PeakEventHeap, r.Compactions,
			r.HeapSysMB, verdict, comma)
	}
	fmt.Fprintf(f, "  ],\n")
	// Full top-k report of the largest configuration.
	if n := len(reps); n > 0 && reps[n-1] != nil {
		fmt.Fprintf(f, "  \"analysis\": %s\n", analysisJSON(reps[n-1], "  ")[2:])
	} else {
		fmt.Fprintf(f, "  \"analysis\": null\n")
	}
	fmt.Fprintf(f, "}\n")
	if cerr := f.Close(); cerr != nil {
		return fmt.Errorf("bench: scale artifact: %w", cerr)
	}
	return nil
}
