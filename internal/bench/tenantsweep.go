package bench

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/analysis"
	"repro/internal/coll"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/vmmc"
	"repro/internal/xdr"
)

// TenantConfig parameterizes the tenantsweep experiment.
type TenantConfig struct {
	// Calls is the victim's vRPC count per cell. Zero selects 32.
	Calls int
	// AggBytes is the aggressor's all-reduce payload. Zero selects 128 KB
	// (the noisy-neighbor size from the issue).
	AggBytes int
	// AggRate is the aggressor's link budget under QoS in bytes/sec.
	// Zero selects 40 MB/s — a quarter of the 160 MB/s wire.
	AggRate float64
	// Rates are the declared aggressor budgets for the qos=on rate sweep,
	// in bytes/sec. These should sit well below the wire rate so the pacer
	// demonstrably engages during the measured window (the default AggRate
	// of 40 MB/s rarely does for short runs). Nil selects 5, 10 and
	// 20 MB/s; an explicit empty slice is replaced by the default too.
	Rates []float64
	// Out, when non-empty, writes the BENCH_tenant.json artifact here.
	// Every quantity is virtual-time derived, so the file is
	// byte-identical across runs.
	Out string
}

// TenantResult is one cell: the victim's vRPC latency distribution under
// a given co-residency regime, plus the isolation machinery's counters.
// All fields are deterministic; the sweep double-runs every cell and
// fails on drift.
type TenantResult struct {
	Case       string
	QoS        bool
	Crashed    bool
	Rate       float64 // aggressor's declared link budget, 0 when solo
	Calls      int
	P50        sim.Time
	P99        sim.Time
	Max        sim.Time
	AggOps     int64 // aggressor all-reduces completed
	Throttles  int64 // aggressor sends delayed by the link pacer
	Throttled  sim.Time
	Preempts   int64 // victim short sends served between aggressor chunks
	VictimErrs int64
}

// TenantSweep is the noisy-neighbor experiment: a latency-sensitive
// vRPC tenant shares a two-node cluster with a bulk tenant running
// 128 KB all-reduces. Cells measure the victim's p50/p99 call latency
// solo, shared with QoS off (the aggressor monopolizes the LCP and
// link), shared with QoS on (short-send preemption plus a token-bucket
// link budget on the aggressor's class), and shared with the aggressor
// killed mid-run (blast-radius containment: the victim must finish with
// zero errors). Each cell runs twice and must not drift, so the
// BENCH_tenant.json artifact is a determinism witness; per-tenant
// attribution rides in each cell's analysis report.
func TenantSweep(cfg TenantConfig) (Table, error) {
	if cfg.Calls == 0 {
		cfg.Calls = 32
	}
	if cfg.AggBytes == 0 {
		cfg.AggBytes = 128 << 10
	}
	if cfg.AggRate == 0 {
		cfg.AggRate = 40e6
	}
	if len(cfg.Rates) == 0 {
		cfg.Rates = []float64{5e6, 10e6, 20e6}
	}
	sort.Float64s(cfg.Rates)

	t := Table{
		Title: "Tenant sweep: victim vRPC latency vs a 128 KB all-reduce neighbor (2 nodes)",
		Columns: []string{"case", "calls", "p50", "p99", "max",
			"agg ops", "throttles", "throttled", "preempts"},
	}

	type cell struct {
		name      string
		aggressor bool
		qos       bool
		crash     bool
		rate      float64 // declared aggressor budget, cfg.AggRate when 0
	}
	cells := []cell{
		{name: "solo"},
		{name: "shared qos=off", aggressor: true},
		{name: "shared qos=on", aggressor: true, qos: true},
		{name: "crash qos=on", aggressor: true, qos: true, crash: true},
	}
	// The rate sweep: the qos=on cell repeated at declared budgets low
	// enough that the pacer engages inside the measured window, pinning
	// the victim-p99-vs-rate curve.
	for _, rate := range cfg.Rates {
		cells = append(cells, cell{
			name:      fmt.Sprintf("shared qos=on rate=%gMB/s", rate/1e6),
			aggressor: true, qos: true, rate: rate,
		})
	}

	var (
		results []TenantResult
		reports []*analysis.Report
	)
	for _, cl := range cells {
		caseCfg := cfg
		if cl.rate != 0 {
			caseCfg.AggRate = cl.rate
		}
		r, rep, err := runTwice("tenantsweep", cl.name, func() (TenantResult, error) {
			return runTenantCase(cl.name, cl.aggressor, cl.qos, cl.crash, caseCfg)
		}, nil)
		if err != nil {
			return t, err
		}
		results = append(results, r)
		reports = append(reports, rep)
		t.Notes = append(t.Notes, analysisNote(cl.name, rep))
		t.Rows = append(t.Rows, []string{
			r.Case,
			fmt.Sprintf("%d", r.Calls),
			fmt.Sprintf("%.1f us", r.P50.Micros()),
			fmt.Sprintf("%.1f us", r.P99.Micros()),
			fmt.Sprintf("%.1f us", r.Max.Micros()),
			fmt.Sprintf("%d", r.AggOps),
			fmt.Sprintf("%d", r.Throttles),
			fmt.Sprintf("%.1f us", r.Throttled.Micros()),
			fmt.Sprintf("%d", r.Preempts),
		})
	}

	// The acceptance property: QoS must bound the victim's tail. A shared
	// run with QoS on may not be slower than the same run with QoS off at
	// p99, and both shared cells must beat nothing — the solo cell is the
	// floor.
	var off, on TenantResult
	var sweep []TenantResult
	for _, r := range results {
		switch {
		case r.Case == "shared qos=off":
			off = r
		case r.Case == "shared qos=on":
			on = r
		case r.QoS && !r.Crashed && r.Rate != 0:
			sweep = append(sweep, r)
		}
	}
	if on.P99 >= off.P99 {
		return t, fmt.Errorf("bench: tenantsweep: qos=on p99 %.1f us did not improve on qos=off %.1f us",
			on.P99.Micros(), off.P99.Micros())
	}

	// Rate-sweep acceptance: at every swept budget the pacer must have
	// demonstrably engaged (nonzero throttles) yet the victim's tail must
	// still beat the unpaced shared run — the whole point of deficit-skip
	// scheduling is that a heavily paced neighbor cannot make the victim
	// worse. Along the curve (rates ascending), a looser aggressor budget
	// must not reduce the pacer's accumulated deferral time: throttled
	// time per unit of budget is monotone.
	for i, r := range sweep {
		if r.Throttles == 0 {
			return t, fmt.Errorf("bench: tenantsweep %q: pacer never engaged (0 throttles); sweep rate too high",
				r.Case)
		}
		if r.P99 >= off.P99 {
			return t, fmt.Errorf("bench: tenantsweep %q: victim p99 %.1f us did not beat qos=off %.1f us",
				r.Case, r.P99.Micros(), off.P99.Micros())
		}
		if i > 0 && r.Throttled > sweep[i-1].Throttled {
			return t, fmt.Errorf("bench: tenantsweep: throttled time not monotone: %q %.1f us > %q %.1f us",
				r.Case, r.Throttled.Micros(), sweep[i-1].Case, sweep[i-1].Throttled.Micros())
		}
	}

	if cfg.Out != "" {
		if err := writeTenantJSON(cfg, results, reports); err != nil {
			return t, err
		}
	}
	return t, nil
}

// runTenantCase boots a two-node reliable cluster, admits the victim
// (and optionally the aggressor) through the tenant manager, runs the
// workloads, and distills the victim's latency distribution.
func runTenantCase(name string, aggressor, qos, crash bool, cfg TenantConfig) (TenantResult, error) {
	eng := observedEngine()
	c, err := vmmc.NewCluster(eng, vmmc.Options{Nodes: 2, MemBytes: 16 << 20, Reliable: true})
	if err != nil {
		return TenantResult{}, err
	}
	mgr := tenant.NewManager(c)
	mgr.SetQoS(qos)

	res := TenantResult{Case: name, QoS: qos}
	if aggressor {
		res.Rate = cfg.AggRate
	}
	var runErr error
	var latencies []sim.Time

	c.Go("tenantsweep", func(p *sim.Proc) {
		// Two tenants per node means partitioned budgets: two full-size
		// TLB carves do not fit one board's SRAM.
		small := vmmc.ProcLimits{SendQueueEntries: 8, TLBEntries: 256}

		var agg *tenant.Tenant
		var aggOps int64
		stop := false
		aggDone := 0
		aggCond := sim.NewCond(eng)
		if aggressor {
			agg, err = mgr.Admit(p, tenant.Spec{
				Name: "bulk", Nodes: []int{0, 1}, Limits: small,
				LinkBytesPerSec: cfg.AggRate, LinkBurstBytes: 16 << 10,
			})
			if err != nil {
				runErr = err
				return
			}
			// Default credit depth (2×16 KB): the ring algorithms split
			// oversized rounds into credit-window sub-rounds, so the 64 KB
			// per-round block at n=2 no longer needs a deepened pipeline.
			comms, err := coll.Build(p, agg.Procs, coll.Options{})
			if err != nil {
				runErr = err
				return
			}
			for r := range comms {
				r := r
				w := eng.Go(fmt.Sprintf("bulk-rank%d", r), func(rp *sim.Proc) {
					defer func() { aggDone++; aggCond.Broadcast() }()
					cm := comms[r]
					in := collVector(cfg.AggBytes, r)
					out := make([]byte, len(in))
					fout := make([]byte, 4)
					for {
						// The stop decision is itself collective: each rank
						// contributes its local view and all ranks exit in
						// the same iteration. A bare per-rank check races —
						// one rank can enter the next all-reduce just before
						// stop flips while its peer sees the flag and exits,
						// stranding the first mid-collective.
						flag := []int32{0}
						if stop {
							flag[0] = 1
						}
						if err := cm.AllReduce(rp, coll.EncodeInt32s(flag), fout, coll.OpMax, coll.Int32, coll.Tree); err != nil {
							if agg.State() == tenant.Admitted && runErr == nil {
								runErr = fmt.Errorf("bench: tenantsweep %s: aggressor rank %d: %w", name, r, err)
							}
							return
						}
						if votes, err := coll.DecodeInt32s(fout); err != nil || votes[0] != 0 {
							return
						}
						if err := cm.AllReduce(rp, in, out, coll.OpSum, coll.Int32, coll.Ring); err != nil {
							// Expected only after a kill (the crash cell);
							// anywhere else it is a real failure.
							if agg.State() == tenant.Admitted && runErr == nil {
								runErr = fmt.Errorf("bench: tenantsweep %s: aggressor rank %d: %w", name, r, err)
							}
							return
						}
						if r == 0 {
							aggOps++
						}
					}
				})
				agg.AddWorker(w)
			}
		}

		victim, err := mgr.Admit(p, tenant.Spec{
			Name: "victim", Nodes: []int{0, 1}, Limits: small,
		})
		if err != nil {
			runErr = err
			return
		}
		srv, err := rpc.NewServer(p, victim.Procs[1], 1)
		if err != nil {
			runErr = err
			return
		}
		srv.Register(1, 1, 1, func(sp *sim.Proc, args *xdr.Decoder, results *xdr.Encoder) uint32 {
			v, err := args.Uint32()
			if err != nil {
				return xdr.AcceptGarbageArgs
			}
			results.PutUint32(v + 1)
			return xdr.AcceptSuccess
		})
		srv.Start()
		cli, err := rpc.Dial(p, victim.Procs[0], 1, 0)
		if err != nil {
			runErr = err
			return
		}

		// Warmup calls populate the TLBs and pin the RPC windows so the
		// measured tail reflects neighbor interference, not cold start.
		const warmup = 4
		for i := 0; i < warmup+cfg.Calls; i++ {
			begin := p.Now()
			callErr := cli.Call(p, 1, 1, 1, func(enc *xdr.Encoder) {
				enc.PutUint32(uint32(i))
			}, func(dec *xdr.Decoder) error {
				v, err := dec.Uint32()
				if err != nil {
					return err
				}
				if v != uint32(i)+1 {
					return fmt.Errorf("echo returned %d, want %d", v, i+1)
				}
				return nil
			})
			if callErr != nil {
				runErr = fmt.Errorf("bench: tenantsweep %s: call %d: %w", name, i, callErr)
				return
			}
			if i < warmup {
				continue
			}
			latencies = append(latencies, p.Now()-begin)
			if crash && i-warmup == cfg.Calls/2-1 {
				// The neighbor crashes mid-run; the victim must not notice.
				if err := mgr.Kill("bulk"); err != nil {
					runErr = err
					return
				}
				res.Crashed = true
			}
		}

		if agg != nil {
			// Read the pacer's attribution before teardown frees the class.
			// The aggressor's class is the only budgeted one on these
			// boards, so its per-class stats must reconcile exactly with
			// the scheduler's totals — the deficit-skip path (Defer /
			// TryCharge) must attribute every deferral the same way the
			// blocking path attributed its sleeps.
			for _, id := range agg.Nodes {
				if ls := c.Nodes[id].Board.LinkScheduler(); ls != nil {
					n, d := ls.ClassStats(agg.Class)
					if n != ls.Throttles || d != ls.ThrottledTime {
						runErr = fmt.Errorf("bench: tenantsweep %s: node %d pacer attribution leak: class (%d, %v) vs total (%d, %v)",
							name, id, n, d, ls.Throttles, ls.ThrottledTime)
						return
					}
					res.Throttles += n
					res.Throttled += d
				}
			}
			res.AggOps = aggOps
			if agg.State() == tenant.Admitted {
				stop = true
				for aggDone < len(agg.Procs) {
					aggCond.Wait(p)
				}
				mgr.EmitUsage(agg)
			}
		}
		mgr.EmitUsage(victim)

		verrs := victim.Procs[0].Errors()
		rerrs := victim.Procs[1].Errors()
		res.VictimErrs = verrs.SendFailures + verrs.ImportFailures +
			rerrs.SendFailures + rerrs.ImportFailures
	})
	if err := c.Start(); err != nil {
		return TenantResult{}, err
	}
	if runErr != nil {
		return TenantResult{}, runErr
	}
	if err := capture(eng); err != nil {
		return TenantResult{}, err
	}
	if res.VictimErrs != 0 {
		return TenantResult{}, fmt.Errorf("bench: tenantsweep %s: victim surfaced %d errors, want 0",
			name, res.VictimErrs)
	}
	if crash && !res.Crashed {
		return TenantResult{}, fmt.Errorf("bench: tenantsweep %s: crash cell never killed the aggressor", name)
	}

	res.Calls = len(latencies)
	sorted := append([]sim.Time(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	res.P50 = quantileMil(sorted, 500)
	res.P99 = quantileMil(sorted, 990)
	res.Max = sorted[len(sorted)-1]
	for i := 0; i < 2; i++ {
		st := c.Nodes[i].LCP.Stats()
		res.Preempts += st.ShortPreempts
	}
	return res, nil
}

// writeTenantJSON emits the noisy-neighbor artifact: per-cell victim
// latency quantiles, isolation counters, and the per-cell analysis
// verdict (which names the contended resource), with the last cell's
// full report — including its per-tenant attribution — embedded. Keys
// are written in a fixed order and every value is virtual-time derived,
// so the file is byte-identical across runs.
func writeTenantJSON(cfg TenantConfig, rs []TenantResult, reps []*analysis.Report) error {
	f, err := os.Create(cfg.Out)
	if err != nil {
		return fmt.Errorf("bench: tenant artifact: %w", err)
	}
	fmt.Fprintf(f, "{\n")
	fmt.Fprintf(f, "  \"benchmark\": \"vmmc-tenantsweep\",\n")
	fmt.Fprintf(f, "  \"calls\": %d,\n", cfg.Calls)
	fmt.Fprintf(f, "  \"aggressor_bytes\": %d,\n", cfg.AggBytes)
	fmt.Fprintf(f, "  \"aggressor_rate_b_s\": %.0f,\n", cfg.AggRate)
	fmt.Fprintf(f, "  \"sweep_rates_b_s\": [")
	for i, r := range cfg.Rates {
		if i > 0 {
			fmt.Fprintf(f, ", ")
		}
		fmt.Fprintf(f, "%.0f", r)
	}
	fmt.Fprintf(f, "],\n")
	fmt.Fprintf(f, "  \"cases\": [\n")
	for i, r := range rs {
		comma := ","
		if i == len(rs)-1 {
			comma = ""
		}
		verdict := ""
		if i < len(reps) && reps[i] != nil {
			verdict = reps[i].Verdict
		}
		fmt.Fprintf(f, "    {\"case\": %q, \"qos\": %t, \"crashed\": %t, \"rate_b_s\": %.0f, \"calls\": %d, "+
			"\"p50_us\": %.3f, \"p99_us\": %.3f, \"max_us\": %.3f, "+
			"\"agg_ops\": %d, \"throttles\": %d, \"throttled_us\": %.3f, "+
			"\"preempts\": %d, \"victim_errors\": %d, \"verdict\": %q}%s\n",
			r.Case, r.QoS, r.Crashed, r.Rate, r.Calls,
			r.P50.Micros(), r.P99.Micros(), r.Max.Micros(),
			r.AggOps, r.Throttles, r.Throttled.Micros(),
			r.Preempts, r.VictimErrs, verdict, comma)
	}
	fmt.Fprintf(f, "  ],\n")
	if n := len(reps); n > 0 && reps[n-1] != nil {
		fmt.Fprintf(f, "  \"analysis\": %s\n", analysisJSON(reps[n-1], "  ")[2:])
	} else {
		fmt.Fprintf(f, "  \"analysis\": null\n")
	}
	fmt.Fprintf(f, "}\n")
	if cerr := f.Close(); cerr != nil {
		return fmt.Errorf("bench: tenant artifact: %w", cerr)
	}
	return nil
}
