package bench

import (
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// ReplicaConfig parameterizes the replicasweep experiment.
type ReplicaConfig struct {
	// Rs are the replication factors to sweep. Every value must divide
	// the fixed 6-server pool (1, 2, 3, or 6); the tier geometry keeps
	// total capacity equal across them — R=1 runs 6 shards of one
	// replica, R=3 runs 2 shards of three — so goodput differences are
	// pure replication effects. Nil selects 1, 2 and 3.
	Rs []int
	// Rates are the total offered loads in requests/sec. With the
	// default Zipf skew they must straddle the R=1 tier's capacity knee
	// (its hottest shard saturates first); the sweep fails if every rate
	// lands on one side. Nil selects 30000 and 70000.
	Rates []float64
	// Requests is the offered request count per cell. Zero selects 240.
	Requests int
	// Out, when non-empty, writes the BENCH_replica.json artifact here.
	Out string
}

// Fixed geometry and policy for the sweep. Six server nodes and 24
// worker connections total, split evenly across however many shards the
// replication factor leaves; admission, deadline, and service time
// match the servesweep values so per-server capacity carries over.
const (
	replicaServers    = 6
	replicaClients    = 2 // front-end nodes; workers split across them
	replicaTotalConns = 24
	replicaService    = 30 * sim.Microsecond
	replicaDeadline   = 400 * sim.Microsecond
	// The per-attempt clamp must clear the worst admitted latency
	// (sojourn target + service + RTT), or healthy-but-busy replicas
	// trigger attempt-timeout storms; 250 us leaves a dead replica
	// costing well under the request deadline.
	replicaAttempt  = 250 * sim.Microsecond
	replicaMaxQueue = 6
	replicaTarget   = 120 * sim.Microsecond
	replicaKeys     = 60 // divisible by every default shard count
	replicaTheta    = 1.1
	replicaPutFrac  = 0.15
	replicaHotTheta = 1.3
	replicaHotRate  = 45000
	replicaKillRate = 30000
	replicaSeed     = 0x9E11CA01
)

// maxR bounds the per-replica arrays in ReplicaResult; the result
// struct must stay comparable (no slices) for the double-run check.
const maxR = replicaServers

// ReplicaResult is one cell: outcome counts, latency quantiles, and the
// routing/replication counters. All fields are deterministic; the sweep
// double-runs every cell and fails on drift.
type ReplicaResult struct {
	Case   string
	R      int
	Shards int
	Rate   float64
	Static bool
	Outcome

	Puts          int64
	RYWFallbacks  int64
	RYWViolations int64

	Applies       int64
	ApplyFails    int64
	ApplySkipped  int64
	DeadFollowers int

	// HotOffered is the router's per-replica attempt count on shard 0 —
	// the Zipf-hot shard — for the routing-flatness comparison.
	HotOffered [maxR]int64
	HotServed  [maxR]int64
}

// hotSpread is the flatness metric: max minus min per-replica attempts
// on the hot shard. Load-aware routing should drive it toward zero;
// static key-hash routing concentrates the hottest key on one replica.
func (r ReplicaResult) hotSpread() int64 {
	lo, hi := r.HotOffered[0], r.HotOffered[0]
	for j := 1; j < r.R; j++ {
		if r.HotOffered[j] < lo {
			lo = r.HotOffered[j]
		}
		if r.HotOffered[j] > hi {
			hi = r.HotOffered[j]
		}
	}
	return hi - lo
}

// ReplicaSweep drives the replicated KV tier across replication factors
// at equal total capacity: the same six servers and 24 workers serve
// every cell, so R=1 is six one-copy shards and R=3 is two three-copy
// shards. Under Zipf-skewed open-loop load the unreplicated tier
// saturates its hottest shard first, while replicated tiers spread that
// shard's reads across R servers via hint-fed two-choice routing —
// acceptance requires R>=2 to beat R=1 on goodput past the knee.
// Satellite cells compare static key-hash routing against load-aware
// routing on a hot shard (the per-replica attempt spread must flatten)
// and kill a follower mid-measurement (goodput must stay 100% with zero
// client-visible errors, the kill surfacing only in tail latency and
// the primary's apply-failure counters). Every cell runs twice and must
// not drift, so BENCH_replica.json is byte-identical across runs.
func ReplicaSweep(cfg ReplicaConfig) (Table, error) {
	if len(cfg.Rs) == 0 {
		cfg.Rs = []int{1, 2, 3}
	}
	if len(cfg.Rates) == 0 {
		cfg.Rates = []float64{30000, 70000}
	}
	if cfg.Requests == 0 {
		cfg.Requests = 240
	}
	for _, r := range cfg.Rs {
		if r < 1 || r > maxR || replicaServers%r != 0 || replicaTotalConns%(replicaClients*(replicaServers/r)) != 0 {
			return Table{}, fmt.Errorf("bench: replicasweep: R=%d does not divide the %d-server pool", r, replicaServers)
		}
	}

	t := Table{
		Title: "Replica sweep: R-way shard replication at equal total capacity, load-aware routing, replica kill",
		Columns: []string{"case", "rate", "ok", "late", "rej", "exp", "t/o",
			"ryw fb", "p50", "p99", "p999", "goodput"},
	}

	type cell struct {
		name     string
		r        int
		rate     float64
		static   bool
		theta    float64
		putFrac  float64
		deadline sim.Time
		kill     bool
	}
	var cells []cell
	for _, r := range cfg.Rs {
		for _, rate := range cfg.Rates {
			cells = append(cells, cell{
				name: fmt.Sprintf("r=%d rate=%g", r, rate),
				r:    r, rate: rate,
				theta: replicaTheta, putFrac: replicaPutFrac, deadline: replicaDeadline,
			})
		}
	}
	// The routing pair: same hot-shard workload, static key-hash routing
	// against load-aware two-choice.
	for _, static := range []bool{true, false} {
		mode := "loadaware"
		if static {
			mode = "static"
		}
		cells = append(cells, cell{
			name: fmt.Sprintf("hot r=3 rate=%g route=%s", float64(replicaHotRate), mode),
			r:    3, rate: replicaHotRate, static: static,
			theta: replicaHotTheta, deadline: replicaDeadline,
		})
	}
	// The kill pair: same workload, clean and with a follower killed
	// mid-measurement. No request deadline: with failover working, every
	// request must complete, so goodput is exactly 100% and the kill can
	// only show up in the tail.
	for _, kill := range []bool{false, true} {
		name := "kill clean"
		if kill {
			name = "kill follower"
		}
		cells = append(cells, cell{
			name: name,
			r:    2, rate: replicaKillRate,
			putFrac: replicaPutFrac, kill: kill,
		})
	}

	var (
		results []ReplicaResult
		reports []*analysis.Report
	)
	for _, cl := range cells {
		r, rep, err := runTwice("replicasweep", cl.name, func() (ReplicaResult, error) {
			return runReplicaCell(cl.name, cl.r, cl.rate, cl.static, cl.theta, cl.putFrac, cl.deadline, cl.kill, cfg.Requests)
		}, nil)
		if err != nil {
			return t, err
		}
		results = append(results, r)
		reports = append(reports, rep)
		t.Notes = append(t.Notes, analysisNote(cl.name, rep))
		t.Rows = append(t.Rows, replicaRow(r))
	}

	if err := replicaAcceptance(cfg, results); err != nil {
		return t, err
	}
	if cfg.Out != "" {
		if err := writeReplicaJSON(cfg, results, reports); err != nil {
			return t, err
		}
	}
	return t, nil
}

// replicaAcceptance enforces the sweep's replication properties on the
// collected cells.
func replicaAcceptance(cfg ReplicaConfig, results []ReplicaResult) error {
	byCell := make(map[string]ReplicaResult, len(results))
	for _, r := range results {
		byCell[r.Case] = r
	}
	for _, r := range results {
		if r.Errors != 0 {
			return fmt.Errorf("bench: replicasweep %q: %d untyped errors, want 0", r.Case, r.Errors)
		}
		if r.RYWViolations != 0 {
			return fmt.Errorf("bench: replicasweep %q: %d read-your-writes violations, want 0", r.Case, r.RYWViolations)
		}
		if r.TransportErrs != 0 {
			return fmt.Errorf("bench: replicasweep %q: %d transport errors, want 0", r.Case, r.TransportErrs)
		}
	}

	// The R ablation: at equal total capacity, replication must pay for
	// itself past the knee — the skewed load saturates R=1's hot shard
	// while R>=2 spreads it. The knee is the highest rate R=1 still
	// serves at >=95% goodput; the grid must straddle it.
	hasBase := false
	for _, r := range cfg.Rs {
		if r == 1 {
			hasBase = true
		}
	}
	if hasBase {
		knee := -1
		for i, rate := range cfg.Rates {
			if byCell[fmt.Sprintf("r=1 rate=%g", rate)].GoodputFrac >= 0.95 {
				knee = i
			}
		}
		if knee < 0 {
			return fmt.Errorf("bench: replicasweep: every rate is past the R=1 knee; lower -replica-rates")
		}
		if knee == len(cfg.Rates)-1 {
			return fmt.Errorf("bench: replicasweep: no rate past the R=1 knee; raise -replica-rates")
		}
		for _, rate := range cfg.Rates[knee+1:] {
			base := byCell[fmt.Sprintf("r=1 rate=%g", rate)]
			for _, r := range cfg.Rs {
				if r == 1 {
					continue
				}
				rep := byCell[fmt.Sprintf("r=%d rate=%g", r, rate)]
				if rep.OK <= base.OK {
					return fmt.Errorf("bench: replicasweep rate=%g: goodput(R=%d)=%d does not beat goodput(R=1)=%d at equal capacity",
						rate, r, rep.OK, base.OK)
				}
			}
		}
	}

	// The routing pair: load-aware two-choice must flatten the hot
	// shard's per-replica attempt spread relative to static key-hash
	// routing, and may not lose goodput doing it.
	static := byCell[fmt.Sprintf("hot r=3 rate=%g route=static", float64(replicaHotRate))]
	aware := byCell[fmt.Sprintf("hot r=3 rate=%g route=loadaware", float64(replicaHotRate))]
	if aware.hotSpread() >= static.hotSpread() {
		return fmt.Errorf("bench: replicasweep: load-aware hot-shard spread %d not below static %d",
			aware.hotSpread(), static.hotSpread())
	}
	if aware.OK < static.OK {
		return fmt.Errorf("bench: replicasweep: load-aware goodput %d below static %d on the hot shard",
			aware.OK, static.OK)
	}

	// The kill pair: losing a follower mid-measurement may cost nothing
	// but tail latency. Every request completes, nothing times out or
	// errors at a client, the replication stream records the loss, and
	// the kill is visible where it should be — the tail — not the median.
	clean, kill := byCell["kill clean"], byCell["kill follower"]
	if kill.OK != kill.Offered {
		return fmt.Errorf("bench: replicasweep kill cell lost goodput: %d OK of %d offered", kill.OK, kill.Offered)
	}
	if kill.TimedOut != 0 || kill.Rejected != 0 || kill.Expired != 0 || kill.Dropped != 0 {
		return fmt.Errorf("bench: replicasweep kill cell surfaced client-visible failures: %+v", kill)
	}
	if kill.DeadFollowers != 1 || kill.ApplyFails == 0 {
		return fmt.Errorf("bench: replicasweep kill cell: applier missed the dead follower (dead=%d apply_fails=%d)",
			kill.DeadFollowers, kill.ApplyFails)
	}
	if kill.P999 <= clean.P999 {
		return fmt.Errorf("bench: replicasweep: kill p999 %.1f us not above clean %.1f us; the kill never bit",
			kill.P999.Micros(), clean.P999.Micros())
	}
	if kill.P50 > clean.P50+10*sim.Microsecond {
		return fmt.Errorf("bench: replicasweep: kill moved the median (%.1f us vs clean %.1f us); failover was not contained to the tail",
			kill.P50.Micros(), clean.P50.Micros())
	}
	return nil
}

func replicaRow(r ReplicaResult) []string {
	return []string{
		r.Case,
		fmt.Sprintf("%.0f/s", r.Rate),
		fmt.Sprintf("%d", r.OK),
		fmt.Sprintf("%d", r.Late),
		fmt.Sprintf("%d", r.Rejected),
		fmt.Sprintf("%d", r.Expired),
		fmt.Sprintf("%d", r.TimedOut),
		fmt.Sprintf("%d", r.RYWFallbacks),
		fmt.Sprintf("%.1f us", r.P50.Micros()),
		fmt.Sprintf("%.1f us", r.P99.Micros()),
		fmt.Sprintf("%.1f us", r.P999.Micros()),
		fmt.Sprintf("%.1f%%", r.GoodputFrac*100),
	}
}

// runReplicaCell boots a fresh cluster (nodes 0 and 7 = client front
// ends, nodes 1..6 = servers), builds the replicated tier, and runs one
// open-loop workload through it. Two front-end nodes keep the worker
// count per client process at half the send-queue depth, so concurrent
// sends can never overflow the doorbell ring. kill schedules a follower
// KillProcess two milliseconds into the measured stream.
func runReplicaCell(name string, r int, rate float64, static bool, theta, putFrac float64, deadline sim.Time, kill bool, requests int) (ReplicaResult, error) {
	eng := observedEngine()
	c, err := vmmc.NewCluster(eng, vmmc.Options{Nodes: replicaServers + replicaClients, MemBytes: 32 << 20})
	if err != nil {
		return ReplicaResult{}, err
	}
	shards := replicaServers / r
	res := ReplicaResult{Case: name, R: r, Shards: shards, Rate: rate, Static: static}
	var runErr error
	c.Go("replicasweep", func(p *sim.Proc) {
		nodes := make([]int, replicaServers)
		for i := range nodes {
			nodes[i] = i + 1
		}
		clients := make([]int, replicaClients)
		for i := 1; i < replicaClients; i++ {
			clients[i] = replicaServers + i // node 0, then 7, 8, ...
		}
		tier, err := replica.Build(p, c, replica.Config{
			Shards:      shards,
			R:           r,
			Nodes:       nodes,
			ClientNodes: clients,
			Conns:       replicaTotalConns / (replicaClients * shards),
			ServiceTime: replicaService,
			Keys:        replicaKeys,
			Admission:   &serve.AdmissionConfig{MaxQueue: replicaMaxQueue, Target: replicaTarget},
			Routing: replica.RoutingConfig{
				Static:         static,
				AttemptTimeout: replicaAttempt,
				Seed:           replicaSeed ^ uint64(r)<<8,
			},
		})
		if err != nil {
			runErr = err
			return
		}
		start := p.Now()
		stats, err := tier.RunOpenLoop(p, serve.WorkloadConfig{
			Rate:     rate,
			Requests: requests,
			Theta:    theta,
			PutFrac:  putFrac,
			Deadline: deadline,
			Seed:     replicaSeed ^ uint64(r)<<32 ^ uint64(rate),
			Retry:    serve.DefaultRetryPolicy(replicaSeed + 1),
			OnMeasure: func(measure sim.Time) {
				if kill {
					eng.Go("replicasweep:kill", func(kp *sim.Proc) {
						kp.Sleep(measure + 2*sim.Millisecond - kp.Now())
						tier.KillReplica(0, 1)
					})
				}
			},
		})
		if err != nil {
			runErr = err
			return
		}
		res.Elapsed = p.Now() - start
		fillReplicaResult(&res, tier, stats)
	})
	if err := c.Start(); err != nil {
		return ReplicaResult{}, err
	}
	if runErr != nil {
		return ReplicaResult{}, fmt.Errorf("bench: replicasweep %s: %w", name, runErr)
	}
	if err := capture(eng); err != nil {
		return ReplicaResult{}, err
	}
	return res, nil
}

// fillReplicaResult distills workload stats and tier counters into a
// cell result.
func fillReplicaResult(res *ReplicaResult, tier *replica.Tier, stats *replica.Stats) {
	var adms []*serve.Admitter
	for _, set := range tier.Sets() {
		for _, rep := range set.Replicas {
			adms = append(adms, &rep.Admitter)
			res.Applies += rep.Applies
			res.ApplyFails += rep.ApplyFails
			res.ApplySkipped += rep.ApplySkipped
			if rep.Dead {
				res.DeadFollowers++
			}
		}
	}
	res.fill(&stats.Stats, adms, tier.TransportErrors())
	res.Puts = stats.Puts
	res.RYWFallbacks = stats.RYWFallbacks
	res.RYWViolations = stats.RYWViolations
	for j, rep := range tier.Set(0).Replicas {
		res.HotOffered[j] = rep.Offered
		res.HotServed[j] = rep.Server().Calls
	}
}

// writeReplicaJSON emits the replication artifact: the R ablation grid,
// the routing pair with per-replica hot-shard attempt counts, the kill
// pair, and the last cell's analysis report (including its per-replica
// attribution) embedded. Keys are written in a fixed order and every
// value is virtual-time derived, so the file is byte-identical across
// runs.
func writeReplicaJSON(cfg ReplicaConfig, rs []ReplicaResult, reps []*analysis.Report) error {
	f, err := os.Create(cfg.Out)
	if err != nil {
		return fmt.Errorf("bench: replica artifact: %w", err)
	}
	fmt.Fprintf(f, "{\n")
	fmt.Fprintf(f, "  \"benchmark\": \"vmmc-replicasweep\",\n")
	fmt.Fprintf(f, "  \"requests\": %d,\n", cfg.Requests)
	fmt.Fprintf(f, "  \"servers\": %d,\n", replicaServers)
	fmt.Fprintf(f, "  \"total_conns\": %d,\n", replicaTotalConns)
	fmt.Fprintf(f, "  \"service_us\": %.1f,\n", replicaService.Micros())
	fmt.Fprintf(f, "  \"deadline_us\": %.1f,\n", replicaDeadline.Micros())
	fmt.Fprintf(f, "  \"attempt_us\": %.1f,\n", replicaAttempt.Micros())
	fmt.Fprintf(f, "  \"put_frac\": %.2f,\n", replicaPutFrac)
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
		fmt.Fprintf(f, "    {\"case\": %q, \"r\": %d, \"shards\": %d, \"rate_per_s\": %.0f, \"static_routing\": %t, "+
			"\"offered\": %d, \"ok\": %d, \"late\": %d, \"rejected\": %d, \"expired\": %d, "+
			"\"timed_out\": %d, \"dropped\": %d, \"errors\": %d, "+
			"\"sends\": %d, \"retries\": %d, \"budget_denied\": %d, "+
			"\"puts\": %d, \"ryw_fallbacks\": %d, \"ryw_violations\": %d, "+
			"\"shed_arrive\": %d, \"shed_serve\": %d, \"depth_peak\": %d, "+
			"\"applies\": %d, \"apply_fails\": %d, \"apply_skipped\": %d, \"dead_followers\": %d, "+
			"\"hot_offered\": [",
			r.Case, r.R, r.Shards, r.Rate, r.Static,
			r.Offered, r.OK, r.Late, r.Rejected, r.Expired,
			r.TimedOut, r.Dropped, r.Errors,
			r.Sends, r.Retries, r.BudgetDenied,
			r.Puts, r.RYWFallbacks, r.RYWViolations,
			r.ShedArrive, r.ShedServe, r.DepthPeak,
			r.Applies, r.ApplyFails, r.ApplySkipped, r.DeadFollowers)
		for j := 0; j < r.R; j++ {
			if j > 0 {
				fmt.Fprintf(f, ", ")
			}
			fmt.Fprintf(f, "%d", r.HotOffered[j])
		}
		fmt.Fprintf(f, "], "+
			"\"p50_us\": %.3f, \"p99_us\": %.3f, \"p999_us\": %.3f, \"shed_p99_us\": %.3f, "+
			"\"goodput_frac\": %.4f, \"elapsed_us\": %.3f, \"transport_errors\": %d, \"verdict\": %q}%s\n",
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
		return fmt.Errorf("bench: replica artifact: %w", cerr)
	}
	return nil
}
