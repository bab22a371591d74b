package bench

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/coll"
	"repro/internal/fault"
	"repro/internal/lanai"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// CollConfig parameterizes the collective-communication sweep.
type CollConfig struct {
	// Nodes lists communicator sizes (one rank per node). Empty selects
	// 4 -> 8 -> 16.
	Nodes []int
	// Sizes lists all-reduce vector sizes in bytes (int32 sum vectors).
	// Empty selects 64 B -> 1 KB -> 16 KB -> 128 KB, straddling the
	// tree/ring crossover.
	Sizes []int
	// Iters is how many measured all-reduces each cell runs (after one
	// barrier-synchronized warmup). Zero selects 2.
	Iters int
	// Out, when non-empty, writes the machine-readable BENCH_coll.json
	// artifact here.
	Out string
}

// CollResult is one cell: an (n ranks, vector size, algorithm) triple.
type CollResult struct {
	Nodes        int
	Bytes        int
	Algo         coll.Algorithm
	PerOp        sim.Time // measured virtual time per all-reduce
	ModelEst     sim.Time // the cost model's prediction for this cell
	ModelChoice  bool     // Auto would pick this algorithm here
	PayloadMsgs  int64    // credited payload messages the cell moved
	CreditStalls int64
}

// CollHealResult is the heal-interop cell: a ring all-reduce sequence on
// the diamond fabric with a link outage healed under it.
type CollHealResult struct {
	Nodes, Bytes   int
	Rounds         int
	CleanElapsed   sim.Time
	HealedElapsed  sim.Time
	ResultsMatch   bool
	SendFailures   int64
	Retransmits    int64
	HealedMessages int64
}

// CollSweep measures all-reduce completion time across communicator
// sizes, vector sizes, and both algorithm families, checks the measured
// crossover against the cost model, and finishes with the heal-interop
// cell. The smallest cell runs twice and the sweep fails on any
// virtual-time or event-count drift, so BENCH_coll.json is byte-identical
// across runs and machines.
func CollSweep(cfg CollConfig) (Table, error) {
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = []int{4, 8, 16}
	}
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = []int{64, 1 << 10, 16 << 10, 128 << 10}
	}
	if cfg.Iters == 0 {
		cfg.Iters = 2
	}
	t := Table{
		Title: "Collective sweep: all-reduce (int32 sum), binomial tree vs pipelined ring",
		Columns: []string{"nodes", "bytes", "algorithm", "per-op", "model est",
			"auto picks", "payload msgs", "credit stalls"},
	}

	var (
		results []CollResult
		reports []*analysis.Report
	)
	for _, n := range cfg.Nodes {
		for _, size := range cfg.Sizes {
			for _, algo := range []coll.Algorithm{coll.Tree, coll.Ring} {
				run := func() (CollResult, error) { return runCollCase(n, size, algo, cfg.Iters) }
				var (
					r   CollResult
					rep *analysis.Report
					err error
				)
				if n == cfg.Nodes[0] && size == cfg.Sizes[0] && algo == coll.Tree {
					r, rep, err = runTwice("collsweep", fmt.Sprintf("%d nodes/%d B %s", n, size, algo), run, nil)
				} else {
					r, err = run()
					rep = takeAnalysis()
				}
				if err != nil {
					return t, err
				}
				results = append(results, r)
				reports = append(reports, rep)
				pick := ""
				if r.ModelChoice {
					pick = "<-"
				}
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%d", r.Nodes),
					fmt.Sprintf("%d", r.Bytes),
					r.Algo.String(),
					fmt.Sprintf("%.1f us", r.PerOp.Micros()),
					fmt.Sprintf("%.1f us", r.ModelEst.Micros()),
					pick,
					fmt.Sprintf("%d", r.PayloadMsgs),
					fmt.Sprintf("%d", r.CreditStalls),
				})
			}
		}
	}

	heal, err := runCollHealCase()
	if err != nil {
		return t, err
	}
	healRep := takeAnalysis()
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("%d", heal.Nodes),
		fmt.Sprintf("%d", heal.Bytes),
		"ring+heal",
		fmt.Sprintf("%.1f us", heal.HealedElapsed.Micros()),
		fmt.Sprintf("%.1f us", heal.CleanElapsed.Micros()),
		"",
		fmt.Sprintf("match=%v", heal.ResultsMatch),
		fmt.Sprintf("fails=%d", heal.SendFailures),
	})
	t.Notes = append(t.Notes,
		"auto picks: the calibrated cost model's per-cell choice; it must track the measured minimum at the extremes",
		"ring+heal row: 3 chained ring all-reduces on the diamond fabric across a healed link outage; 'model est' column holds the fault-free elapsed time")
	if n := len(results); n > 0 {
		last := results[n-1]
		t.Notes = append(t.Notes, analysisNote(
			fmt.Sprintf("%d nodes, %d B, %s", last.Nodes, last.Bytes, last.Algo), reports[n-1]))
	}
	t.Notes = append(t.Notes, analysisNote("ring+heal", healRep))

	if cfg.Out != "" {
		if err := writeCollJSON(cfg, results, reports, heal, healRep); err != nil {
			return t, err
		}
	}
	return t, nil
}

// runCollCase measures one sweep cell: barrier-synchronized warmup, then
// iters all-reduces, all on a default single-fabric cluster.
func runCollCase(nodes, size int, algo coll.Algorithm, iters int) (CollResult, error) {
	eng := observedEngine()
	c, err := vmmc.NewCluster(eng, vmmc.Options{Nodes: nodes})
	if err != nil {
		return CollResult{}, err
	}
	res := CollResult{Nodes: nodes, Bytes: size, Algo: algo}
	var runErr error
	c.Go("collsweep", func(p *sim.Proc) {
		procs := make([]*vmmc.Process, nodes)
		for i := range procs {
			if procs[i], err = c.Nodes[i].NewProcess(p); err != nil {
				runErr = err
				return
			}
		}
		comms, err := coll.Build(p, procs, coll.Options{})
		if err != nil {
			runErr = err
			return
		}
		model := comms[0].Model()
		res.ModelEst = model.Estimate(coll.KAllReduce, algo, nodes, size, 16<<10)
		res.ModelChoice = model.Choose(coll.KAllReduce, nodes, size, 16<<10) == algo

		var start, finish sim.Time
		done := 0
		cond := sim.NewCond(eng)
		for r := range comms {
			r := r
			eng.Go(fmt.Sprintf("rank%d", r), func(rp *sim.Proc) {
				cm := comms[r]
				in := collVector(size, r)
				out := make([]byte, len(in))
				work := func() {
					if err := cm.AllReduce(rp, in, out, coll.OpSum, coll.Int32, algo); err != nil {
						runErr = fmt.Errorf("bench: collsweep rank %d: %w", r, err)
					}
				}
				work() // warmup: pipelines, TLBs, and handlers are hot after this
				if err := cm.Barrier(rp); err != nil {
					runErr = err
				}
				if r == 0 {
					start = rp.Now()
				}
				for i := 0; i < iters && runErr == nil; i++ {
					work()
				}
				if err := cm.Barrier(rp); err != nil {
					runErr = err
				}
				if r == 0 {
					finish = rp.Now()
				}
				done++
				cond.Broadcast()
			})
		}
		for done < nodes {
			cond.Wait(p)
		}
		res.PerOp = (finish - start) / sim.Time(iters)
	})
	if err := c.Start(); err != nil {
		return CollResult{}, err
	}
	if runErr != nil {
		return CollResult{}, runErr
	}
	if err := capture(eng); err != nil {
		return CollResult{}, err
	}
	snap := eng.MetricsSnapshot()
	res.PayloadMsgs, _ = snap.Counter("coll/payload_msgs")
	res.CreditStalls, _ = snap.Counter("coll/credit_stalls")
	return res, nil
}

// collVector is the deterministic int32 sum input of one rank.
func collVector(bytes, rank int) []byte {
	v := make([]int32, bytes/4)
	for i := range v {
		v[i] = int32((rank+1)*(i%31+1) - 16)
	}
	return coll.EncodeInt32s(v)
}

// runCollHealCase chains ring all-reduces on the diamond fabric twice —
// fault-free, then with a mid-sequence link outage under the healing
// layer — and requires byte-identical results with zero visible errors.
func runCollHealCase() (CollHealResult, error) {
	const nodes = 4
	const size = 16 << 10
	const rounds = 3
	run := func(withOutage bool) ([][]byte, sim.Time, int64, int64, error) {
		eng := observedEngine()
		pl := fault.NewPlan(eng, 0x4EA1)
		relCfg := lanai.DefaultReliability()
		relCfg.MaxRetries = 8
		relCfg.AckDelay = 25 * sim.Microsecond
		c, err := vmmc.NewCluster(eng, vmmc.Options{
			Nodes:       nodes,
			Reliable:    true,
			Reliability: &relCfg,
			Faults:      pl,
			BuildFabric: DiamondFabric,
			Heal: &vmmc.HealConfig{
				ProbeInterval: 500 * sim.Microsecond,
				MaxRounds:     64,
				MaxDepth:      4,
				ProbeTimeout:  8 * sim.Microsecond,
			},
		})
		if err != nil {
			return nil, 0, 0, 0, err
		}
		results := make([][]byte, nodes)
		var elapsed sim.Time
		var fails int64
		var runErr error
		c.Go("collsweep:heal", func(p *sim.Proc) {
			procs := make([]*vmmc.Process, nodes)
			for i := range procs {
				if procs[i], err = c.Nodes[i].NewProcess(p); err != nil {
					runErr = err
					return
				}
			}
			comms, err := coll.Build(p, procs, coll.Options{})
			if err != nil {
				runErr = err
				return
			}
			if withOutage {
				pl.LinkOutage(c.Nodes[2].Board.NIC.ID,
					p.Now()+400*sim.Microsecond, p.Now()+3*sim.Millisecond)
			}
			start := p.Now()
			done := 0
			cond := sim.NewCond(eng)
			for r := range comms {
				r := r
				eng.Go(fmt.Sprintf("rank%d", r), func(rp *sim.Proc) {
					acc := collVector(size, r)
					out := make([]byte, len(acc))
					for i := 0; i < rounds; i++ {
						if err := comms[r].AllReduce(rp, acc, out, coll.OpSum, coll.Int32, coll.Ring); err != nil {
							runErr = fmt.Errorf("bench: collsweep heal rank %d: %w", r, err)
							break
						}
						copy(acc, out)
					}
					results[r] = out
					done++
					cond.Broadcast()
				})
			}
			for done < nodes {
				cond.Wait(p)
			}
			elapsed = p.Now() - start
			for _, proc := range procs {
				fails += proc.Errors().SendFailures
			}
		})
		if err := c.Start(); err != nil {
			return nil, 0, 0, 0, err
		}
		if runErr != nil {
			return nil, 0, 0, 0, runErr
		}
		if err := capture(eng); err != nil {
			return nil, 0, 0, 0, err
		}
		var retrans int64
		for _, cv := range eng.MetricsSnapshot().Counters {
			if strings.HasSuffix(cv.Name, "/rl_retransmits") {
				retrans += cv.Value
			}
		}
		return results, elapsed, fails, retrans, nil
	}

	clean, cleanElapsed, cleanFails, _, err := run(false)
	if err != nil {
		return CollHealResult{}, err
	}
	healed, healedElapsed, healedFails, retrans, err := run(true)
	if err != nil {
		return CollHealResult{}, err
	}
	res := CollHealResult{
		Nodes: nodes, Bytes: size, Rounds: rounds,
		CleanElapsed:  cleanElapsed,
		HealedElapsed: healedElapsed,
		ResultsMatch:  true,
		SendFailures:  cleanFails + healedFails,
		Retransmits:   retrans,
	}
	for r := range clean {
		if string(clean[r]) != string(healed[r]) {
			res.ResultsMatch = false
		}
	}
	if !res.ResultsMatch {
		return res, fmt.Errorf("bench: collsweep heal cell: healed results differ from fault-free")
	}
	if res.SendFailures != 0 {
		return res, fmt.Errorf("bench: collsweep heal cell: %d application-visible send failures, want 0", res.SendFailures)
	}
	if healedElapsed <= cleanElapsed {
		return res, fmt.Errorf("bench: collsweep heal cell: healed run (%v) not slower than fault-free (%v)",
			healedElapsed, cleanElapsed)
	}
	return res, nil
}

func writeCollJSON(cfg CollConfig, rs []CollResult, reps []*analysis.Report, heal CollHealResult, healRep *analysis.Report) error {
	f, err := os.Create(cfg.Out)
	if err != nil {
		return fmt.Errorf("bench: coll artifact: %w", err)
	}
	fmt.Fprintf(f, "{\n")
	fmt.Fprintf(f, "  \"benchmark\": \"vmmc-collsweep\",\n")
	fmt.Fprintf(f, "  \"operation\": \"allreduce-int32-sum\",\n")
	fmt.Fprintf(f, "  \"iters\": %d,\n", cfg.Iters)
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
		fmt.Fprintf(f, "    {\"nodes\": %d, \"bytes\": %d, \"algorithm\": %q, "+
			"\"per_op_us\": %.3f, \"model_est_us\": %.3f, \"model_choice\": %v, "+
			"\"payload_msgs\": %d, \"credit_stalls\": %d, \"verdict\": %q}%s\n",
			r.Nodes, r.Bytes, r.Algo.String(),
			r.PerOp.Micros(), r.ModelEst.Micros(), r.ModelChoice,
			r.PayloadMsgs, r.CreditStalls, verdict, comma)
	}
	fmt.Fprintf(f, "  ],\n")
	healVerdict := ""
	if healRep != nil {
		healVerdict = healRep.Verdict
	}
	fmt.Fprintf(f, "  \"heal_interop\": {\"nodes\": %d, \"bytes\": %d, \"rounds\": %d, "+
		"\"clean_elapsed_us\": %.3f, \"healed_elapsed_us\": %.3f, "+
		"\"results_match\": %v, \"send_failures\": %d, \"retransmits\": %d, "+
		"\"verdict\": %q},\n",
		heal.Nodes, heal.Bytes, heal.Rounds,
		heal.CleanElapsed.Micros(), heal.HealedElapsed.Micros(),
		heal.ResultsMatch, heal.SendFailures, heal.Retransmits, healVerdict)
	if n := len(reps); n > 0 && reps[n-1] != nil {
		fmt.Fprintf(f, "  \"analysis\": %s\n", analysisJSON(reps[n-1], "  ")[2:])
	} else {
		fmt.Fprintf(f, "  \"analysis\": null\n")
	}
	fmt.Fprintf(f, "}\n")
	if cerr := f.Close(); cerr != nil {
		return fmt.Errorf("bench: coll artifact: %w", cerr)
	}
	return nil
}
