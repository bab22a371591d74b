package bench

import (
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/lanai"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// ServeConfig parameterizes the servesweep experiment.
type ServeConfig struct {
	// Rates are the total offered loads in requests/sec. They must
	// straddle the tier's capacity knee: the sweep fails if every rate
	// lands on one side. Nil selects 15000, 30000 and 60000.
	Rates []float64
	// Shards are the shard counts to sweep the rate grid over. Nil
	// selects just 2.
	Shards []int
	// Requests is the offered request count per cell. Zero selects 240.
	Requests int
	// Out, when non-empty, writes the BENCH_serve.json artifact here.
	Out string
}

// Fixed tier geometry and policy for the sweep. The deadline sits well
// below the time an unbounded server queue takes to drain at full conn
// fan-in (conns * service), so past the knee the no-admission baseline
// must burn client timeouts while the admission cells shed early.
const (
	serveConns    = 12 // connections (= workers) per shard
	serveService  = 30 * sim.Microsecond
	serveDeadline = 400 * sim.Microsecond
	serveMaxQueue = 6                     // admission: arrival-queue bound
	serveTarget   = 120 * sim.Microsecond // admission: CoDel sojourn target
	serveKeys     = 64
	serveHotTheta = 1.3 // Zipf exponent of the hot-shard cell
	serveSeed     = 0x5E2F7E01
)

// Outcome is the part of a serving cell's result both tiers report:
// the run's outcome counts, its servers' admission counters, and the
// latency quantiles. It holds no slices, so results embedding it stay
// comparable for the double-run check.
type Outcome struct {
	Offered  int64
	OK       int64
	Late     int64
	Rejected int64
	Expired  int64
	TimedOut int64
	Dropped  int64
	Errors   int64

	Sends        int64
	Retries      int64
	BudgetDenied int64
	ShedArrive   int64
	ShedServe    int64
	DepthPeak    int

	P50     sim.Time // OK (in-deadline) request latency
	P99     sim.Time
	P999    sim.Time
	ShedP99 sim.Time // latency to a typed rejection: the fail-fast metric

	GoodputFrac   float64 // OK / Offered
	Elapsed       sim.Time
	TransportErrs int64
}

// fill distills a run's stats, its servers' admission counters and the
// tier's transport error count into o. Elapsed is the caller's.
func (o *Outcome) fill(stats *serve.Stats, adms []*serve.Admitter, transportErrs int64) {
	o.Offered = stats.Offered
	o.OK = stats.OK
	o.Late = stats.Late
	o.Rejected = stats.Rejected
	o.Expired = stats.Expired
	o.TimedOut = stats.TimedOut
	o.Dropped = stats.Dropped
	o.Errors = stats.Errors
	o.Sends = stats.Sends
	o.Retries = stats.Retries
	o.BudgetDenied = stats.BudgetDenied
	for _, a := range adms {
		o.ShedArrive += a.ShedArrive
		o.ShedServe += a.ShedServe
		if a.DepthPeak > o.DepthPeak {
			o.DepthPeak = a.DepthPeak
		}
	}
	o.P50 = quantileMil(stats.LatOK, 500)
	o.P99 = quantileMil(stats.LatOK, 990)
	o.P999 = quantileMil(stats.LatOK, 999)
	o.ShedP99 = quantileMil(stats.LatShed, 990)
	if stats.Offered > 0 {
		o.GoodputFrac = float64(stats.OK) / float64(stats.Offered)
	}
	o.TransportErrs = transportErrs
}

// ServeResult is one cell: the serving outcome plus the shard geometry.
// All fields are deterministic; the sweep double-runs every cell and
// fails on drift.
type ServeResult struct {
	Case      string
	Shards    int
	Rate      float64
	Admission bool
	Outcome
	HotOffered int64 // shard 0's offered share (the Zipf-hot shard)
}

// ServeSweep drives the sharded KV serving tier across offered-load
// rates under open-loop Poisson arrivals with deadlines, comparing
// server-side admission control off (the paper-era baseline: queue
// everything) against on (bounded queue + CoDel-style sojourn shedding)
// at every rate. Satellite cells add a Zipf-hot shard and a mid-run
// link outage healed by the self-healing layer. Acceptance is checked
// in-sweep: past the capacity knee admission must not lose goodput,
// admitted requests keep a bounded tail, typed rejections resolve well
// inside the deadline, and the outage cell finishes with zero victim
// errors. Every cell runs twice and must not drift, so BENCH_serve.json
// is byte-identical across runs.
func ServeSweep(cfg ServeConfig) (Table, error) {
	if len(cfg.Rates) == 0 {
		cfg.Rates = []float64{15000, 30000, 60000}
	}
	if len(cfg.Shards) == 0 {
		cfg.Shards = []int{2}
	}
	if cfg.Requests == 0 {
		cfg.Requests = 240
	}

	t := Table{
		Title: "Serve sweep: open-loop KV tier, admission control off/on across the capacity knee",
		Columns: []string{"case", "rate", "ok", "late", "rej", "exp", "t/o", "drop",
			"p50", "p99", "p999", "shed p99", "goodput"},
	}

	type cell struct {
		name      string
		shards    int
		rate      float64
		admission bool
		theta     float64
		edge      sim.Time
	}
	var cells []cell
	for _, shards := range cfg.Shards {
		for _, rate := range cfg.Rates {
			for _, adm := range []bool{false, true} {
				mode := "off"
				if adm {
					mode = "on"
				}
				cells = append(cells, cell{
					name:      fmt.Sprintf("s=%d rate=%g adm=%s", shards, rate, mode),
					shards:    shards,
					rate:      rate,
					admission: adm,
				})
			}
		}
	}
	maxShards := cfg.Shards[len(cfg.Shards)-1]
	maxRate := cfg.Rates[len(cfg.Rates)-1]
	cells = append(cells, cell{
		name:   fmt.Sprintf("hot shard s=%d rate=%g theta=%g", maxShards, maxRate, serveHotTheta),
		shards: maxShards, rate: maxRate, admission: true,
		theta: serveHotTheta, edge: 25 * sim.Microsecond,
	})

	var (
		results []ServeResult
		reports []*analysis.Report
	)
	add := func(name string, run func() (ServeResult, error)) error {
		r, rep, err := runTwice("servesweep", name, run, nil)
		if err != nil {
			return err
		}
		results = append(results, r)
		reports = append(reports, rep)
		t.Notes = append(t.Notes, analysisNote(name, rep))
		t.Rows = append(t.Rows, serveRow(r))
		return nil
	}
	for _, cl := range cells {
		err := add(cl.name, func() (ServeResult, error) {
			return runServeCell(cl.name, cl.shards, cl.rate, cl.admission, cl.theta, cl.edge, cfg.Requests)
		})
		if err != nil {
			return t, err
		}
	}

	// The outage pair: same workload on the diamond fabric, clean and
	// with a mid-run link outage under the healing layer.
	for _, outage := range []bool{false, true} {
		name := "fault clean"
		if outage {
			name = "fault outage+heal"
		}
		if err := add(name, func() (ServeResult, error) { return runServeFaultCell(name, outage, cfg.Requests) }); err != nil {
			return t, err
		}
	}

	if err := serveAcceptance(cfg, results); err != nil {
		return t, err
	}
	if cfg.Out != "" {
		if err := writeServeJSON(cfg, results, reports); err != nil {
			return t, err
		}
	}
	return t, nil
}

// serveAcceptance enforces the sweep's robustness properties on the
// collected cells.
func serveAcceptance(cfg ServeConfig, results []ServeResult) error {
	byCell := make(map[string]ServeResult, len(results))
	for _, r := range results {
		byCell[r.Case] = r
	}
	for _, shards := range cfg.Shards {
		// The knee: the highest rate the no-admission baseline still
		// serves at >=95% goodput. The grid must straddle it.
		knee := -1
		for i, rate := range cfg.Rates {
			off := byCell[fmt.Sprintf("s=%d rate=%g adm=off", shards, rate)]
			if off.GoodputFrac >= 0.95 {
				knee = i
			}
		}
		if knee < 0 {
			return fmt.Errorf("bench: servesweep s=%d: every rate is past the knee; lower -serve-rates", shards)
		}
		if knee == len(cfg.Rates)-1 {
			return fmt.Errorf("bench: servesweep s=%d: no rate past the knee; raise -serve-rates", shards)
		}
		for _, rate := range cfg.Rates[knee+1:] {
			off := byCell[fmt.Sprintf("s=%d rate=%g adm=off", shards, rate)]
			on := byCell[fmt.Sprintf("s=%d rate=%g adm=on", shards, rate)]
			// Past the knee admission control must pay for itself:
			// shedding work early may not cost goodput.
			if on.OK < off.OK {
				return fmt.Errorf("bench: servesweep s=%d rate=%g: goodput(on)=%d < goodput(off)=%d",
					shards, rate, on.OK, off.OK)
			}
			if on.ShedArrive+on.ShedServe == 0 {
				return fmt.Errorf("bench: servesweep s=%d rate=%g: admission never engaged past the knee", shards, rate)
			}
			// Shed requests fail fast as typed errors — well inside the
			// deadline a timeout would burn — and admitted requests keep
			// a bounded tail.
			if on.Rejected+on.Expired == 0 {
				return fmt.Errorf("bench: servesweep s=%d rate=%g: no typed rejections reached clients", shards, rate)
			}
			if on.ShedP99 >= serveDeadline {
				return fmt.Errorf("bench: servesweep s=%d rate=%g: shed p99 %.1f us not inside the %.0f us deadline",
					shards, rate, on.ShedP99.Micros(), serveDeadline.Micros())
			}
			if on.OK > 0 && on.P99 > serveDeadline {
				return fmt.Errorf("bench: servesweep s=%d rate=%g: admitted p99 %.1f us exceeds the deadline",
					shards, rate, on.P99.Micros())
			}
		}
	}
	for _, r := range results {
		if r.Errors != 0 {
			return fmt.Errorf("bench: servesweep %q: %d untyped errors, want 0", r.Case, r.Errors)
		}
		if r.TransportErrs != 0 {
			return fmt.Errorf("bench: servesweep %q: %d transport errors, want 0", r.Case, r.TransportErrs)
		}
	}
	clean, outage := byCell["fault clean"], byCell["fault outage+heal"]
	if outage.OK != outage.Offered || outage.TimedOut != 0 {
		return fmt.Errorf("bench: servesweep outage cell lost requests: %+v", outage)
	}
	// The stall must be visible in the tail — requests in flight during
	// the outage wait out the link's recovery — while the open-loop
	// stream absorbs it: zero victim errors, nothing lost or timed out.
	if outage.P999 <= clean.P999 {
		return fmt.Errorf("bench: servesweep: outage p999 %.1f us not above clean %.1f us; the outage never bit",
			outage.P999.Micros(), clean.P999.Micros())
	}
	return nil
}

func serveRow(r ServeResult) []string {
	return []string{
		r.Case,
		fmt.Sprintf("%.0f/s", r.Rate),
		fmt.Sprintf("%d", r.OK),
		fmt.Sprintf("%d", r.Late),
		fmt.Sprintf("%d", r.Rejected),
		fmt.Sprintf("%d", r.Expired),
		fmt.Sprintf("%d", r.TimedOut),
		fmt.Sprintf("%d", r.Dropped),
		fmt.Sprintf("%.1f us", r.P50.Micros()),
		fmt.Sprintf("%.1f us", r.P99.Micros()),
		fmt.Sprintf("%.1f us", r.P999.Micros()),
		fmt.Sprintf("%.1f us", r.ShedP99.Micros()),
		fmt.Sprintf("%.1f%%", r.GoodputFrac*100),
	}
}

// runServeCell boots a fresh cluster (node 0 = client front end, nodes
// 1..shards = shard servers), builds the tier, and runs one open-loop
// workload through it.
func runServeCell(name string, shards int, rate float64, admission bool, theta float64, edge sim.Time, requests int) (ServeResult, error) {
	eng := observedEngine()
	c, err := vmmc.NewCluster(eng, vmmc.Options{Nodes: shards + 1, MemBytes: 16 << 20})
	if err != nil {
		return ServeResult{}, err
	}
	res := ServeResult{Case: name, Shards: shards, Rate: rate, Admission: admission}
	var runErr error
	c.Go("servesweep", func(p *sim.Proc) {
		shardNodes := make([]int, shards)
		for i := range shardNodes {
			shardNodes[i] = i + 1
		}
		tcfg := serve.Config{
			ShardNodes:  shardNodes,
			ClientNodes: []int{0},
			Conns:       serveConns,
			ServiceTime: serveService,
			Keys:        serveKeys,
		}
		if admission {
			tcfg.Admission = &serve.AdmissionConfig{MaxQueue: serveMaxQueue, Target: serveTarget}
		}
		tier, err := serve.Build(p, c, tcfg)
		if err != nil {
			runErr = err
			return
		}
		start := p.Now()
		stats, err := tier.RunOpenLoop(p, serve.WorkloadConfig{
			Rate:        rate,
			Requests:    requests,
			Theta:       theta,
			Deadline:    serveDeadline,
			EdgeLatency: edge,
			Seed:        serveSeed ^ uint64(shards)<<32 ^ uint64(rate),
			Retry:       serve.DefaultRetryPolicy(serveSeed + 1),
		})
		if err != nil {
			runErr = err
			return
		}
		res.Elapsed = p.Now() - start
		fillServeResult(&res, tier, stats)
	})
	if err := c.Start(); err != nil {
		return ServeResult{}, err
	}
	if runErr != nil {
		return ServeResult{}, fmt.Errorf("bench: servesweep %s: %w", name, runErr)
	}
	if err := capture(eng); err != nil {
		return ServeResult{}, err
	}
	return res, nil
}

// runServeFaultCell runs a single-shard tier across the diamond fabric
// (client on edge0, shard on edge1, every request crossing a spine)
// with the reliability and healing layers on. The outage variant takes
// the shard's link down mid-run; recovery must be invisible to clients:
// no deadline is set, so every request simply completes once healing
// and retransmission deliver it.
func runServeFaultCell(name string, outage bool, requests int) (ServeResult, error) {
	eng := observedEngine()
	pl := fault.NewPlan(eng, serveSeed)
	relCfg := lanai.DefaultReliability()
	relCfg.MaxRetries = 8
	relCfg.AckDelay = 25 * sim.Microsecond
	c, err := vmmc.NewCluster(eng, vmmc.Options{
		Nodes:       4,
		MemBytes:    16 << 20,
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
		return ServeResult{}, err
	}
	const faultRate = 10000
	res := ServeResult{Case: name, Shards: 1, Rate: faultRate}
	var runErr error
	c.Go("servesweep:fault", func(p *sim.Proc) {
		tier, err := serve.Build(p, c, serve.Config{
			ShardNodes:  []int{2},
			ClientNodes: []int{0},
			Conns:       4,
			ServiceTime: serveService,
			Keys:        serveKeys,
		})
		if err != nil {
			runErr = err
			return
		}
		start := p.Now()
		stats, err := tier.RunOpenLoop(p, serve.WorkloadConfig{
			Rate:     faultRate,
			Requests: requests,
			Seed:     serveSeed + 2,
			Retry:    serve.DefaultRetryPolicy(serveSeed + 3),
			OnMeasure: func(measure sim.Time) {
				if outage {
					// A third of the way into the measured stream, for
					// 3 ms — long enough that go-back-N stalls and the
					// healing layer must carry the recovery.
					at := measure + 4*sim.Millisecond
					pl.LinkOutage(c.Nodes[2].Board.NIC.ID, at, at+3*sim.Millisecond)
				}
			},
		})
		if err != nil {
			runErr = err
			return
		}
		res.Elapsed = p.Now() - start
		fillServeResult(&res, tier, stats)
	})
	if err := c.Start(); err != nil {
		return ServeResult{}, err
	}
	if runErr != nil {
		return ServeResult{}, fmt.Errorf("bench: servesweep %s: %w", name, runErr)
	}
	if err := capture(eng); err != nil {
		return ServeResult{}, err
	}
	return res, nil
}

// fillServeResult distills workload stats and tier counters into a cell
// result.
func fillServeResult(res *ServeResult, tier *serve.Tier, stats *serve.Stats) {
	var adms []*serve.Admitter
	for _, sh := range tier.Shards() {
		adms = append(adms, &sh.Admitter)
	}
	res.fill(stats, adms, tier.TransportErrors())
	res.HotOffered = tier.Shard(0).Offered
}

// quantileMil picks the q-th per-mille of an ascending list by the
// nearest-rank method (q of 990 = p99, 999 = p99.9).
func quantileMil(sorted []sim.Time, q int) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	idx := (q*len(sorted) + 999) / 1000
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// writeServeJSON emits the serving-tier artifact: the full load-vs-
// latency grid with outcome counts and admission counters per cell, and
// the last cell's analysis report (including its per-shard serve
// attribution) embedded. Keys are written in a fixed order and every
// value is virtual-time derived, so the file is byte-identical across
// runs.
func writeServeJSON(cfg ServeConfig, rs []ServeResult, reps []*analysis.Report) error {
	f, err := os.Create(cfg.Out)
	if err != nil {
		return fmt.Errorf("bench: serve artifact: %w", err)
	}
	fmt.Fprintf(f, "{\n")
	fmt.Fprintf(f, "  \"benchmark\": \"vmmc-servesweep\",\n")
	fmt.Fprintf(f, "  \"requests\": %d,\n", cfg.Requests)
	fmt.Fprintf(f, "  \"conns_per_shard\": %d,\n", serveConns)
	fmt.Fprintf(f, "  \"service_us\": %.1f,\n", serveService.Micros())
	fmt.Fprintf(f, "  \"deadline_us\": %.1f,\n", serveDeadline.Micros())
	fmt.Fprintf(f, "  \"max_queue\": %d,\n", serveMaxQueue)
	fmt.Fprintf(f, "  \"sojourn_target_us\": %.1f,\n", serveTarget.Micros())
	fmt.Fprintf(f, "  \"rates_per_s\": [")
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
		fmt.Fprintf(f, "    {\"case\": %q, \"shards\": %d, \"rate_per_s\": %.0f, \"admission\": %t, "+
			"\"offered\": %d, \"ok\": %d, \"late\": %d, \"rejected\": %d, \"expired\": %d, "+
			"\"timed_out\": %d, \"dropped\": %d, \"errors\": %d, "+
			"\"sends\": %d, \"retries\": %d, \"budget_denied\": %d, "+
			"\"shed_arrive\": %d, \"shed_serve\": %d, \"depth_peak\": %d, "+
			"\"p50_us\": %.3f, \"p99_us\": %.3f, \"p999_us\": %.3f, \"shed_p99_us\": %.3f, "+
			"\"goodput_frac\": %.4f, \"elapsed_us\": %.3f, \"transport_errors\": %d, \"verdict\": %q}%s\n",
			r.Case, r.Shards, r.Rate, r.Admission,
			r.Offered, r.OK, r.Late, r.Rejected, r.Expired,
			r.TimedOut, r.Dropped, r.Errors,
			r.Sends, r.Retries, r.BudgetDenied,
			r.ShedArrive, r.ShedServe, r.DepthPeak,
			r.P50.Micros(), r.P99.Micros(), r.P999.Micros(), r.ShedP99.Micros(),
			r.GoodputFrac, r.Elapsed.Micros(), r.TransportErrs, verdict, comma)
	}
	fmt.Fprintf(f, "  ],\n")
	if n := len(reps); n > 0 && reps[n-1] != nil {
		fmt.Fprintf(f, "  \"analysis\": %s\n", analysisJSON(reps[n-1], "  ")[2:])
	} else {
		fmt.Fprintf(f, "  \"analysis\": null\n")
	}
	fmt.Fprintf(f, "}\n")
	if cerr := f.Close(); cerr != nil {
		return fmt.Errorf("bench: serve artifact: %w", cerr)
	}
	return nil
}
