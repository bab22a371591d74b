package serve

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/rpc"
	"repro/internal/sim"
)

// WorkloadConfig describes one open-loop run against the tier.
type WorkloadConfig struct {
	Rate     float64  // offered requests/second, Poisson arrivals
	Requests int      // total offered requests
	Theta    float64  // Zipf exponent over keys (0 = uniform)
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
	// script an outage relative to the measured phase — first contact
	// costs milliseconds of setup, so absolute scheduling would land
	// faults in the warm-up instead of the stream.
	OnMeasure func(start sim.Time)
}

// Request outcomes. A request resolves exactly once.
const (
	OutcomeOK       = iota // served within its deadline
	OutcomeLate            // served, but past its deadline (not goodput)
	OutcomeRejected        // typed ErrOverloaded after retries/budget
	OutcomeExpired         // typed server-side deadline expiry
	OutcomeTimedOut        // client-side timeout (no verdict heard)
	OutcomeDropped         // expired client-side before it could be sent
	OutcomeError           // anything else (must stay zero)
)

// Stats is the outcome of an open-loop run.
type Stats struct {
	Offered  int64
	OK       int64
	Late     int64
	Rejected int64
	Expired  int64
	TimedOut int64
	Dropped  int64
	Errors   int64

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

// genReq is one generated user request.
type genReq struct {
	key      uint32
	arrival  sim.Time
	deadline sim.Time // 0 when the workload has no deadline
}

// dispatchQueue is the per-shard client-side queue between the arrival
// generator and the connection workers.
type dispatchQueue struct {
	items  []genReq
	cond   *sim.Cond
	closed bool
}

// RunOpenLoop drives the workload: a Poisson arrival generator feeds
// per-shard dispatch queues; Conns workers per (client node, shard)
// drain them through budgeted-retry connections. Open loop means
// arrivals never slow down because the system is busy — exactly the
// regime where overload turns metastable without admission control.
// The orchestrating proc p blocks until every offered request resolves.
func (t *Tier) RunOpenLoop(p *sim.Proc, w WorkloadConfig) (*Stats, error) {
	if w.Rate <= 0 || w.Requests <= 0 {
		return nil, fmt.Errorf("serve: workload needs positive rate and request count")
	}
	shards := len(t.cfg.ShardNodes)
	stats := &Stats{}
	zipf := newZipfTable(t.cfg.Keys, w.Theta)

	// Client-side dispatch queues, visible to the deadlock wrapper for
	// the duration of the run.
	queues := make([]*dispatchQueue, shards)
	for i := range queues {
		queues[i] = &dispatchQueue{cond: sim.NewCond(t.eng)}
	}
	t.queues = queues
	defer func() { t.queues = nil }()

	// Dial every connection and warm it (first contact pays the
	// ether-daemon import; that belongs to setup, not to the measured
	// open-loop phase).
	type workerConn struct {
		conn  *Conn
		shard int
	}
	var conns []workerConn
	for cIdx, node := range t.cfg.ClientNodes {
		proc, err := t.cluster.Nodes[node].NewProcess(p)
		if err != nil {
			return nil, err
		}
		t.procs = append(t.procs, proc)
		for sIdx := 0; sIdx < shards; sIdx++ {
			for k := 0; k < t.cfg.Conns; k++ {
				pol := w.Retry
				pol.Seed = w.Seed ^ (uint64(cIdx)<<40 | uint64(sIdx)<<20 | uint64(k))
				conn, err := t.DialShard(p, proc, cIdx, sIdx, k, pol)
				if err != nil {
					return nil, err
				}
				if _, err := conn.Get(p, uint32(sIdx), 0); err != nil {
					return nil, fmt.Errorf("serve: warm call: %w", err)
				}
				conns = append(conns, workerConn{conn: conn, shard: sIdx})
			}
		}
	}
	for _, sh := range t.shards {
		sh.srv.Calls = 0 // exclude warm calls from served counts
	}
	if w.OnMeasure != nil {
		w.OnMeasure(p.Now())
	}

	// Connection workers.
	resolved := int64(0)
	doneCond := sim.NewCond(t.eng)
	for wi, wc := range conns {
		wc := wc
		q := queues[wc.shard]
		t.eng.Go(fmt.Sprintf("serve:worker:%d", wi), func(wp *sim.Proc) {
			for {
				for len(q.items) == 0 && !q.closed {
					q.cond.Wait(wp)
				}
				if len(q.items) == 0 {
					return
				}
				req := q.items[0]
				q.items = q.items[1:]
				t.serveRequest(wp, wc.conn, req, w, stats)
				resolved++
				doneCond.Broadcast()
			}
		})
	}

	// Open-loop Poisson generator.
	rng := w.Seed + 0x5eed
	keyRng := w.Seed ^ 0xface
	next := p.Now()
	for i := 0; i < w.Requests; i++ {
		next += sim.Time(expDraw(&rng, float64(sim.Second)/w.Rate))
		if next > p.Now() {
			p.Sleep(next - p.Now())
		}
		key := uint32(zipf.draw(&keyRng))
		shard := int(key) % shards
		var dl sim.Time
		if w.Deadline > 0 {
			dl = p.Now() + w.Deadline
		}
		stats.Offered++
		t.shards[shard].Offered++
		q := queues[shard]
		q.items = append(q.items, genReq{key: key, arrival: p.Now(), deadline: dl})
		q.cond.Signal()
	}
	for _, q := range queues {
		q.closed = true
		q.cond.Broadcast()
	}
	for resolved < int64(w.Requests) {
		doneCond.Wait(p)
	}

	for _, wc := range conns {
		stats.Sends += wc.conn.Stats.Sends
		stats.Retries += wc.conn.Stats.Retries
		stats.BudgetDenied += wc.conn.Stats.BudgetDenied
	}
	sort.Slice(stats.LatOK, func(i, j int) bool { return stats.LatOK[i] < stats.LatOK[j] })
	sort.Slice(stats.LatShed, func(i, j int) bool { return stats.LatShed[i] < stats.LatShed[j] })
	t.EmitUsage()
	return stats, nil
}

// serveRequest resolves one request on a worker's connection and
// records its outcome.
func (t *Tier) serveRequest(wp *sim.Proc, conn *Conn, req genReq, w WorkloadConfig, stats *Stats) {
	if req.deadline != 0 && wp.Now() >= req.deadline {
		// Too late before the request even reached a connection: fail
		// it locally, free the connection for younger requests.
		stats.Dropped++
		return
	}
	if w.EdgeLatency > 0 {
		wp.Sleep(w.EdgeLatency) // user -> front end
	}
	_, err := conn.Get(wp, req.key, req.deadline)
	// The response's return hop delays the user, not the connection.
	lat := wp.Now() - req.arrival + w.EdgeLatency
	switch {
	case err == nil:
		if req.deadline != 0 && wp.Now()+w.EdgeLatency > req.deadline {
			stats.Late++
			return
		}
		stats.OK++
		stats.LatOK = append(stats.LatOK, lat)
	case errors.Is(err, rpc.ErrOverloaded):
		stats.Rejected++
		stats.LatShed = append(stats.LatShed, wp.Now()-conn.LastSend())
	case errors.Is(err, rpc.ErrDeadlineExceeded):
		stats.Expired++
		stats.LatShed = append(stats.LatShed, wp.Now()-conn.LastSend())
	case errors.Is(err, rpc.ErrRPCTimeout):
		stats.TimedOut++
	case errors.Is(err, ErrDeadlinePassed):
		stats.Dropped++
	default:
		stats.Errors++
	}
}

// TransportErrors sums send and import failures across every process
// the tier created (shard servers and client front ends) — the "zero
// victim errors" check for fault cells.
func (t *Tier) TransportErrors() int64 {
	total := int64(0)
	for _, pr := range t.procs {
		e := pr.Errors()
		total += e.SendFailures + e.ImportFailures
	}
	return total
}
