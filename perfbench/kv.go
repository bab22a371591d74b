package main

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// kvConfig is the replicated key-value workload: replicasweep's R=2 tier
// (six servers, three shards of two replicas, two front-end nodes with
// 24 connections) under an open loop of Poisson arrivals.
type kvConfig struct {
	requests int
	rate     float64 // offered requests per second of virtual time
	theta    float64 // Zipf exponent over keys
	putFrac  float64
	deadline sim.Time // per-request deadline; 0 means none
	// loadSeed drives arrivals, keys and the put mix; routeSeed the
	// router's two-choice sampling; retrySeed the retry jitter.
	loadSeed, routeSeed, retrySeed uint64
}

// replicasweep's tier geometry and policy.
const (
	kvServers = 6
	kvR       = 2
	kvShards  = kvServers / kvR
	kvConns   = 24 / (2 * kvShards) // per (front end, shard)
	kvKeys    = 60
)

// kvDefault is the benchmark's workload: replicasweep's r=2 rate=30000
// cell, run longer and without a request deadline, so every request
// completes and the tail shows queueing instead of refusals.
func kvDefault(seed uint64) kvConfig {
	r := rng(seed ^ 0x4b5)
	return kvConfig{
		requests: 12000, rate: 20000, theta: 1.1, putFrac: 0.15,
		loadSeed: r.next(), routeSeed: r.next(), retrySeed: r.next(),
	}
}

// kvReplicasweep is replicasweep's r=2 rate=30000 cell with its seeds.
func kvReplicasweep(requests int) kvConfig {
	const seed = 0x9E11CA01
	return kvConfig{
		requests: requests, rate: 30000, theta: 1.1, putFrac: 0.15,
		deadline:  400 * sim.Microsecond,
		loadSeed:  seed ^ uint64(kvR)<<32 ^ uint64(30000),
		routeSeed: seed ^ uint64(kvR)<<8,
		retrySeed: seed + 1,
	}
}

// kvOutcome counts request outcomes. The categories are the ones
// replica.Stats uses.
type kvOutcome struct {
	ok, late, rejected, expired, timedOut, dropped, errs int
	sends, retries, rywFallbacks, rywViolations          int64
	badValues                                            int
	okBytes                                              int64
}

func (o *kvOutcome) notOK() int {
	return o.late + o.rejected + o.expired + o.timedOut + o.dropped + o.errs
}

// kvReq is one generated request.
type kvReq struct {
	key      uint32
	put      bool
	seq      int
	arrival  sim.Time
	wall     int64 // host clock at arrival, for the traced run's span
	deadline sim.Time
}

// kvRead is an OK read kept for the value check.
type kvRead struct {
	key uint32
	ver uint64
	val []byte
}

type kvQueue struct {
	items  []kvReq
	cond   *sim.Cond
	closed bool
}

// putValue is the value write seq stores under key.
func putValue(key uint32, seq, n int) []byte {
	val := make([]byte, n)
	for i := range val {
		val[i] = byte(int(key)*17 + seq + i)
	}
	return val
}

// preloadValue is the version-1 value replica.Build stores under key.
func preloadValue(key uint32, n int) []byte {
	val := make([]byte, n)
	for i := range val {
		val[i] = byte(int(key)*31 + i)
	}
	return val
}

// runKV builds the tier and drives the open loop through the public
// client API: Group.Put for writes and Group.GetRYW for reads, against
// the highest version the load has written. Each request is timed from
// its scheduled arrival.
func runKV(s *session, cfg kvConfig) (*result, error) {
	c, err := vmmc.NewCluster(s.eng, vmmc.Options{Nodes: kvServers + 2, MemBytes: 32 << 20})
	if err != nil {
		return nil, err
	}
	res := &result{memBytes: backingBytes(c)}
	var (
		load   *kvLoad
		runErr error
	)
	c.Go("kv", func(p *sim.Proc) {
		s.phase("export")
		servers := make([]int, kvServers)
		for i := range servers {
			servers[i] = i + 1
		}
		tier, err := replica.Build(p, c, replica.Config{
			Shards:      kvShards,
			R:           kvR,
			Nodes:       servers,
			ClientNodes: []int{0, kvServers + 1},
			Conns:       kvConns,
			ServiceTime: 30 * sim.Microsecond,
			Keys:        kvKeys,
			Admission:   &serve.AdmissionConfig{MaxQueue: 6, Target: 120 * sim.Microsecond},
			Routing: replica.RoutingConfig{
				AttemptTimeout: 250 * sim.Microsecond,
				Seed:           cfg.routeSeed,
			},
		})
		if err != nil {
			runErr = err
			return
		}
		s.phase("import")
		if load, res.virtElapsed, runErr = kvOpenLoop(s, p, c, tier, cfg); runErr != nil {
			return
		}
		// Read the tier's counters when the last request resolves, as
		// replicasweep does; follower applies still in flight stay out.
		for _, set := range tier.Sets() {
			for _, rep := range set.Replicas {
				res.kvSheds += rep.ShedArrive + rep.ShedServe
				res.kvApplies += rep.Applies
			}
		}
	})
	if err := c.Start(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	s.markRunEnd()

	out := &load.out
	for _, rd := range load.reads {
		if !load.valueOK(rd) {
			out.badValues++
		}
	}
	res.attempted = cfg.requests
	res.failed = out.notOK() + int(out.rywViolations) + out.badValues
	res.payloadBytes = out.okBytes
	res.lat = load.lat
	res.kv = out
	return res, nil
}

// kvLoad is one open-loop run's client side: the outcomes, the latency
// samples, and the reads and writes kept for the value check.
type kvLoad struct {
	s        *session
	valBytes int
	want     []uint64 // highest version written per key: the read-your-writes floor
	out      kvOutcome
	lat      []sim.Time
	reads    []kvRead
	// putSeq maps each (key, version) a put returned to the put's
	// sequence number; uncertain lists, per key, the puts that did not
	// return OK, whose version may still have been assigned.
	putSeq    map[[2]uint64]int
	uncertain map[uint32][]int
}

// valueOK checks that an OK read returned the value written under its
// version.
func (l *kvLoad) valueOK(rd kvRead) bool {
	if rd.ver == 1 {
		return bytes.Equal(rd.val, preloadValue(rd.key, l.valBytes))
	}
	if seq, ok := l.putSeq[[2]uint64{uint64(rd.key), rd.ver}]; ok {
		return bytes.Equal(rd.val, putValue(rd.key, seq, l.valBytes))
	}
	for _, seq := range l.uncertain[rd.key] {
		if bytes.Equal(rd.val, putValue(rd.key, seq, l.valBytes)) {
			return true
		}
	}
	return false
}

// kvOpenLoop dials every worker connection, warms each replica, and
// runs the open-loop generator until every request has resolved. It
// follows replica.Tier.RunOpenLoop step for step, so at replicasweep's
// settings it reproduces that sweep's results.
func kvOpenLoop(s *session, p *sim.Proc, c *vmmc.Cluster, tier *replica.Tier, cfg kvConfig) (*kvLoad, sim.Time, error) {
	eng := s.eng
	tc := tier.Config()
	load := &kvLoad{
		s: s, valBytes: tc.ValueBytes, want: make([]uint64, tc.Keys),
		putSeq: make(map[[2]uint64]int), uncertain: make(map[uint32][]int),
	}
	for i := range load.want {
		load.want[i] = 1 // preloaded version
	}
	queues := make([]*kvQueue, tc.Shards)
	for i := range queues {
		queues[i] = &kvQueue{cond: sim.NewCond(eng)}
	}
	type worker struct {
		grp   *replica.Group
		shard int
	}
	var workers []worker
	retry := serve.DefaultRetryPolicy(cfg.retrySeed)
	for cIdx, node := range tc.ClientNodes {
		proc, err := c.Nodes[node].NewProcess(p)
		if err != nil {
			return nil, 0, err
		}
		for sIdx := 0; sIdx < tc.Shards; sIdx++ {
			for k := 0; k < tc.Conns; k++ {
				pol := retry
				pol.Seed = cfg.loadSeed ^ (uint64(cIdx)<<40 | uint64(sIdx)<<20 | uint64(k))
				grp, err := tier.DialGroup(p, proc, cIdx, sIdx, k, pol)
				if err != nil {
					return nil, 0, err
				}
				for j := 0; j < tc.R; j++ {
					if _, _, _, err := grp.GetFrom(p, j, uint32(sIdx), 0); err != nil {
						return nil, 0, fmt.Errorf("warm call s%dr%d: %w", sIdx, j, err)
					}
				}
				workers = append(workers, worker{grp: grp, shard: sIdx})
			}
		}
	}
	// Warm-up traffic stays out of the measured counters.
	for _, set := range tier.Sets() {
		for _, rep := range set.Replicas {
			rep.Server().Calls = 0
			rep.Offered = 0
			rep.Applies = 0
			rep.StaleApplies = 0
		}
	}
	s.phase("measure")
	start := p.Now()

	resolved := 0
	doneCond := sim.NewCond(eng)
	for wi, w := range workers {
		w := w
		q := queues[w.shard]
		eng.Go(fmt.Sprintf("kv:worker:%d", wi), func(wp *sim.Proc) {
			for {
				for len(q.items) == 0 && !q.closed {
					q.cond.Wait(wp)
				}
				if len(q.items) == 0 {
					return
				}
				req := q.items[0]
				q.items = q.items[1:]
				load.serve(wp, w.grp, req)
				resolved++
				doneCond.Broadcast()
			}
		})
	}

	arrivals := rng(cfg.loadSeed + 0x5eed)
	keys := rng(cfg.loadSeed ^ 0xface)
	ops := rng(cfg.loadSeed ^ 0xbead)
	z := newZipf(tc.Keys, cfg.theta)
	next := p.Now()
	for i := 0; i < cfg.requests; i++ {
		next += sim.Time(arrivals.exp(float64(sim.Second) / cfg.rate))
		if next > p.Now() {
			p.Sleep(next - p.Now())
		}
		key := uint32(z.draw(&keys))
		put := cfg.putFrac > 0 && ops.unit() < cfg.putFrac
		var dl sim.Time
		if cfg.deadline > 0 {
			dl = p.Now() + cfg.deadline
		}
		q := queues[int(key)%tc.Shards]
		q.items = append(q.items, kvReq{key: key, put: put, seq: i, arrival: p.Now(), wall: s.wallNow(), deadline: dl})
		q.cond.Signal()
	}
	s.phase("drain")
	for _, q := range queues {
		q.closed = true
		q.cond.Broadcast()
	}
	for resolved < cfg.requests {
		doneCond.Wait(p)
	}
	elapsed := p.Now() - start
	for _, w := range workers {
		load.out.sends += w.grp.Stats.Sends
		load.out.retries += w.grp.Stats.Retries
	}
	tier.EmitUsage()
	return load, elapsed, nil
}

// serve resolves one request on a worker's group, as the replicated
// tier's own serveRequest does, and records its outcome.
func (l *kvLoad) serve(wp *sim.Proc, grp *replica.Group, req kvReq) {
	out := &l.out
	if req.deadline != 0 && wp.Now() >= req.deadline {
		out.dropped++
		return
	}
	var (
		err error
		rd  = kvRead{key: req.key}
	)
	if req.put {
		var ver uint64
		ver, err = grp.Put(wp, req.key, putValue(req.key, req.seq, l.valBytes), req.deadline)
		if err == nil {
			l.putSeq[[2]uint64{uint64(req.key), ver}] = req.seq
			if ver > l.want[req.key] {
				l.want[req.key] = ver
			}
		} else {
			l.uncertain[req.key] = append(l.uncertain[req.key], req.seq)
		}
	} else {
		minVer := l.want[req.key]
		var fallback bool
		rd.val, rd.ver, _, _, fallback, err = grp.GetRYW(wp, req.key, minVer, req.deadline)
		if fallback {
			out.rywFallbacks++
		}
		if err == nil && rd.ver < minVer {
			out.rywViolations++
		}
	}
	l.s.op("replica.request", req.wall, req.arrival)
	switch {
	case err == nil:
		if req.deadline != 0 && wp.Now() > req.deadline {
			out.late++
			return
		}
		out.ok++
		out.okBytes += int64(l.valBytes)
		l.lat = append(l.lat, wp.Now()-req.arrival)
		if !req.put {
			l.reads = append(l.reads, rd)
		}
	case errors.Is(err, rpc.ErrOverloaded):
		out.rejected++
	case errors.Is(err, rpc.ErrDeadlineExceeded):
		out.expired++
	case errors.Is(err, rpc.ErrRPCTimeout):
		out.timedOut++
	case errors.Is(err, serve.ErrDeadlinePassed):
		out.dropped++
	default:
		out.errs++
	}
}
