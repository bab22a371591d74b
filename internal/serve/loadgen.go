package serve

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// WorkloadConfig describes one open-loop run against a serving tier.
type WorkloadConfig struct {
	Rate     float64 // offered requests/second, Poisson arrivals
	Requests int     // total offered requests
	Theta    float64 // Zipf exponent over keys (0 = uniform)
	// PutFrac is the fraction of requests that are writes. Only the
	// replicated tier serves writes; serve.Tier rejects PutFrac > 0.
	PutFrac  float64
	Deadline sim.Time // per-request budget, measured from arrival
	// EdgeLatency models the internet hop between the user and the
	// Ethernet-side front end, one way. It delays the request before it
	// reaches a connection and is added once more to the user-perceived
	// latency for the response path.
	EdgeLatency sim.Time
	Seed        uint64
	Retry       RetryPolicy
	// OnMeasure, when set, is invoked once dialing and warm-up complete,
	// just before the open-loop generator starts. Fault cells use it to
	// script an outage or a replica kill relative to the measured phase
	// — first contact costs milliseconds of setup, so absolute
	// scheduling would land faults in the warm-up instead of the stream.
	OnMeasure func(start sim.Time)
}

// Stats is the outcome of an open-loop run. Every offered request
// resolves exactly once, into one of the seven outcome counts.
type Stats struct {
	Offered  int64
	OK       int64 // served within its deadline
	Late     int64 // served, but past its deadline (not goodput)
	Rejected int64 // typed ErrOverloaded after retries/budget
	Expired  int64 // typed server-side deadline expiry
	TimedOut int64 // client-side timeout (no verdict heard)
	Dropped  int64 // expired client-side before it could be sent
	Errors   int64 // anything else (must stay zero)

	Sends        int64 // RPCs on the wire, fresh + retries
	Retries      int64
	BudgetDenied int64

	LatOK []sim.Time // user-perceived latency of OK requests (sorted)
	// LatShed is the time from a shed request's final send attempt to
	// its typed rejection (sorted) — the fail-fast metric. A typed
	// verdict arrives in roughly an RTT where a timeout burns the whole
	// deadline plus the reply grace; queue wait and earlier retries'
	// backoff are policy-driven and excluded.
	LatShed []sim.Time
}

// Resolved sums every terminal outcome.
func (s *Stats) Resolved() int64 {
	return s.OK + s.Late + s.Rejected + s.Expired + s.TimedOut + s.Dropped + s.Errors
}

// Request is one generated user request.
type Request struct {
	Key      uint32
	Put      bool // a write, drawn with probability WorkloadConfig.PutFrac
	Seq      int  // generation index
	Arrival  sim.Time
	Deadline sim.Time // 0 when the workload has no deadline
}

// dispatchQueue is the per-shard client-side queue between the arrival
// generator and the connection workers.
type dispatchQueue struct {
	items  []Request
	cond   *sim.Cond
	closed bool
}

// Core is the state every serving tier shares: the cluster it runs on,
// every process it created, and the dispatch queues of the open-loop
// run in progress. serve.Tier and replica.Tier embed it.
type Core struct {
	Cluster *vmmc.Cluster
	procs   []*vmmc.Process
	queues  []*dispatchQueue // set while Drive runs, for ShardStuckError
}

// NewProcess creates a process on cluster node node and records it for
// TransportErrors.
func (c *Core) NewProcess(p *sim.Proc, node int) (*vmmc.Process, error) {
	proc, err := c.Cluster.Nodes[node].NewProcess(p)
	if err != nil {
		return nil, err
	}
	c.procs = append(c.procs, proc)
	return proc, nil
}

// TransportErrors sums send and import failures across every process
// the tier created (servers and client front ends) — the "zero victim
// errors" check for fault and kill cells.
func (c *Core) TransportErrors() int64 {
	total := int64(0)
	for _, pr := range c.procs {
		e := pr.Errors()
		total += e.SendFailures + e.ImportFailures
	}
	return total
}

// Worker is one connection worker of an open-loop run.
type Worker struct {
	// Retrier is the worker's retry state: its LastSend anchors the
	// fail-fast latency and its Stats are summed into the run's totals.
	*Retrier
	// Resolve serves one request and returns the error that decides
	// its outcome.
	Resolve func(p *sim.Proc, req Request) error
}

// OpenLoop is a tier's side of an open-loop run: its front-end geometry
// and the steps that differ between tiers.
type OpenLoop struct {
	Name        string // error and worker-process name prefix
	ClientNodes []int
	Shards      int // key k is dispatched to shard k mod Shards
	Keys        int
	Conns       int // workers per (client node, shard)
	// Dial opens worker conn from client cIdx to shard sIdx on proc and
	// warms it: first contact pays the ether-daemon import, which
	// belongs to setup, not to the measured open-loop phase.
	Dial func(p *sim.Proc, proc *vmmc.Process, cIdx, sIdx, conn int, pol RetryPolicy) (Worker, error)
	// Reset zeroes the counters warm traffic moved. It runs once every
	// worker is dialed, before WorkloadConfig.OnMeasure.
	Reset func()
	// Arrive sees each request as the generator queues it for shard.
	Arrive func(shard int, req Request)
}

// Drive runs workload w open-loop and records the outcomes in stats: a
// Poisson arrival generator feeds per-shard dispatch queues; Conns
// workers per (client node, shard) drain them through budgeted-retry
// connections. Open loop means arrivals never slow down because the
// system is busy — exactly the regime where overload turns metastable
// without admission control. The orchestrating proc p blocks until
// every offered request resolves.
func (c *Core) Drive(p *sim.Proc, w WorkloadConfig, o OpenLoop, stats *Stats) error {
	if w.Rate <= 0 || w.Requests <= 0 {
		return fmt.Errorf("%s: workload needs positive rate and request count", o.Name)
	}
	eng := c.Cluster.Eng
	zipf := newZipfTable(o.Keys, w.Theta)

	// Client-side dispatch queues, visible to the deadlock wrapper for
	// the duration of the run.
	queues := make([]*dispatchQueue, o.Shards)
	for i := range queues {
		queues[i] = &dispatchQueue{cond: sim.NewCond(eng)}
	}
	c.queues = queues
	defer func() { c.queues = nil }()

	type shardWorker struct {
		Worker
		shard int
	}
	var workers []shardWorker
	for cIdx, node := range o.ClientNodes {
		proc, err := c.NewProcess(p, node)
		if err != nil {
			return err
		}
		for sIdx := 0; sIdx < o.Shards; sIdx++ {
			for k := 0; k < o.Conns; k++ {
				pol := w.Retry
				pol.Seed = w.Seed ^ (uint64(cIdx)<<40 | uint64(sIdx)<<20 | uint64(k))
				wk, err := o.Dial(p, proc, cIdx, sIdx, k, pol)
				if err != nil {
					return err
				}
				workers = append(workers, shardWorker{wk, sIdx})
			}
		}
	}
	o.Reset()
	if w.OnMeasure != nil {
		w.OnMeasure(p.Now())
	}

	// Connection workers.
	resolved := int64(0)
	doneCond := sim.NewCond(eng)
	for wi, wk := range workers {
		wk := wk
		q := queues[wk.shard]
		eng.Go(fmt.Sprintf("%s:worker:%d", o.Name, wi), func(wp *sim.Proc) {
			for {
				for len(q.items) == 0 && !q.closed {
					q.cond.Wait(wp)
				}
				if len(q.items) == 0 {
					return
				}
				req := q.items[0]
				q.items = q.items[1:]
				resolve(wp, wk.Worker, req, w.EdgeLatency, stats)
				resolved++
				doneCond.Broadcast()
			}
		})
	}

	// Open-loop Poisson generator.
	rng := w.Seed + 0x5eed
	keyRng := w.Seed ^ 0xface
	opRng := w.Seed ^ 0xbead
	next := p.Now()
	for i := 0; i < w.Requests; i++ {
		next += sim.Time(expDraw(&rng, float64(sim.Second)/w.Rate))
		if next > p.Now() {
			p.Sleep(next - p.Now())
		}
		key := uint32(zipf.draw(&keyRng))
		shard := int(key) % o.Shards
		req := Request{Key: key, Put: w.PutFrac > 0 && unit(&opRng) < w.PutFrac, Seq: i, Arrival: p.Now()}
		if w.Deadline > 0 {
			req.Deadline = p.Now() + w.Deadline
		}
		stats.Offered++
		o.Arrive(shard, req)
		q := queues[shard]
		q.items = append(q.items, req)
		q.cond.Signal()
	}
	for _, q := range queues {
		q.closed = true
		q.cond.Broadcast()
	}
	for resolved < int64(w.Requests) {
		doneCond.Wait(p)
	}

	for _, wk := range workers {
		stats.Sends += wk.Stats.Sends
		stats.Retries += wk.Stats.Retries
		stats.BudgetDenied += wk.Stats.BudgetDenied
	}
	sort.Slice(stats.LatOK, func(i, j int) bool { return stats.LatOK[i] < stats.LatOK[j] })
	sort.Slice(stats.LatShed, func(i, j int) bool { return stats.LatShed[i] < stats.LatShed[j] })
	return nil
}

// resolve serves one request on a worker and records its outcome.
func resolve(wp *sim.Proc, wk Worker, req Request, edge sim.Time, stats *Stats) {
	if req.Deadline != 0 && wp.Now() >= req.Deadline {
		// Too late before the request even reached a connection: fail
		// it locally, free the connection for younger requests.
		stats.Dropped++
		return
	}
	if edge > 0 {
		wp.Sleep(edge) // user -> front end
	}
	err := wk.Resolve(wp, req)
	// The response's return hop delays the user, not the connection.
	lat := wp.Now() - req.Arrival + edge
	switch {
	case err == nil:
		if req.Deadline != 0 && wp.Now()+edge > req.Deadline {
			stats.Late++
			return
		}
		stats.OK++
		stats.LatOK = append(stats.LatOK, lat)
	case errors.Is(err, rpc.ErrOverloaded):
		stats.Rejected++
		stats.LatShed = append(stats.LatShed, wp.Now()-wk.LastSend())
	case errors.Is(err, rpc.ErrDeadlineExceeded):
		stats.Expired++
		stats.LatShed = append(stats.LatShed, wp.Now()-wk.LastSend())
	case errors.Is(err, rpc.ErrRPCTimeout):
		stats.TimedOut++
	case errors.Is(err, ErrDeadlinePassed):
		stats.Dropped++
	default:
		stats.Errors++
	}
}

// RunOpenLoop drives a read-only workload through the tier with Drive:
// each worker holds one budgeted-retry connection to its shard and
// serves every request with Get.
func (t *Tier) RunOpenLoop(p *sim.Proc, w WorkloadConfig) (*Stats, error) {
	if w.PutFrac > 0 {
		return nil, fmt.Errorf("serve: workload PutFrac %g, but this tier serves reads only", w.PutFrac)
	}
	stats := &Stats{}
	err := t.Drive(p, w, OpenLoop{
		Name:        "serve",
		ClientNodes: t.cfg.ClientNodes,
		Shards:      len(t.cfg.ShardNodes),
		Keys:        t.cfg.Keys,
		Conns:       t.cfg.Conns,
		Dial: func(p *sim.Proc, proc *vmmc.Process, cIdx, sIdx, k int, pol RetryPolicy) (Worker, error) {
			conn, err := t.DialShard(p, proc, cIdx, sIdx, k, pol)
			if err != nil {
				return Worker{}, err
			}
			if _, err := conn.Get(p, uint32(sIdx), 0); err != nil {
				return Worker{}, fmt.Errorf("serve: warm call: %w", err)
			}
			return Worker{Retrier: conn.Retrier, Resolve: func(wp *sim.Proc, req Request) error {
				_, err := conn.Get(wp, req.Key, req.Deadline)
				return err
			}}, nil
		},
		Reset: func() {
			for _, sh := range t.shards {
				sh.srv.Calls = 0 // exclude warm calls from served counts
			}
		},
		Arrive: func(shard int, _ Request) { t.shards[shard].Offered++ },
	}, stats)
	if err != nil {
		return nil, err
	}
	t.EmitUsage()
	return stats, nil
}
