package replica

import (
	"fmt"

	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// Stats is the outcome of an open-loop run against the replicated tier:
// serve's outcome counts plus the write mix and the read-your-writes
// audit.
type Stats struct {
	serve.Stats

	Puts int64 // writes among Offered
	// RYWFallbacks counts reads that saw a stale follower version and
	// re-read the primary — the client-visible cost of asynchronous
	// replication.
	RYWFallbacks int64
	// RYWViolations counts reads that resolved OK below the version the
	// client had already written. Must stay zero: the primary fallback
	// closes the asynchronous-apply window.
	RYWViolations int64
}

// putValue derives a deterministic value for write seq to a key.
func (t *Tier) putValue(key uint32, seq int) []byte {
	val := make([]byte, t.cfg.ValueBytes)
	for i := range val {
		val[i] = byte(int(key)*17 + seq + i)
	}
	return val
}

// RunOpenLoop drives the workload through the tier with serve's
// open-loop driver. Each worker holds a Group (a connection per
// replica) instead of a single shard connection; writes go to the
// primary, and reads go through GetRYW against the highest version the
// clients have written, so every run doubles as a read-your-writes
// audit.
func (t *Tier) RunOpenLoop(p *sim.Proc, w serve.WorkloadConfig) (*Stats, error) {
	stats := &Stats{}
	// Highest version the load successfully wrote per key; the floor for
	// GetRYW. Workers are engine-serialized, so the shared table is safe.
	want := make([]uint64, t.cfg.Keys)
	for i := range want {
		want[i] = 1 // preloaded version
	}
	err := t.Drive(p, w, serve.OpenLoop{
		Name:        "replica",
		ClientNodes: t.cfg.ClientNodes,
		Shards:      t.cfg.Shards,
		Keys:        t.cfg.Keys,
		Conns:       t.cfg.Conns,
		Dial: func(p *sim.Proc, proc *vmmc.Process, cIdx, sIdx, k int, pol serve.RetryPolicy) (serve.Worker, error) {
			grp, err := t.DialGroup(p, proc, cIdx, sIdx, k, pol)
			if err != nil {
				return serve.Worker{}, err
			}
			for j := 0; j < t.cfg.R; j++ {
				if _, _, _, err := grp.GetFrom(p, j, uint32(sIdx), 0); err != nil {
					return serve.Worker{}, fmt.Errorf("replica: warm call s%dr%d: %w", sIdx, j, err)
				}
			}
			return serve.Worker{Retrier: grp.Retrier, Resolve: func(wp *sim.Proc, req serve.Request) error {
				return t.resolve(wp, grp, req, want, stats)
			}}, nil
		},
		// Exclude warm traffic (client warms here, apply warms at build)
		// from the measured counters.
		Reset: func() {
			for _, set := range t.sets {
				for _, rep := range set.Replicas {
					rep.srv.Calls = 0
					rep.Offered = 0
					rep.Applies = 0
					rep.StaleApplies = 0
				}
			}
		},
		Arrive: func(_ int, req serve.Request) {
			if req.Put {
				stats.Puts++
			}
		},
	}, &stats.Stats)
	if err != nil {
		return nil, err
	}
	t.EmitUsage()
	return stats, nil
}

// resolve serves one request on a worker's group: a write raises the
// key's read-your-writes floor, a read is checked against it.
func (t *Tier) resolve(wp *sim.Proc, grp *Group, req serve.Request, want []uint64, stats *Stats) error {
	if req.Put {
		ver, err := grp.Put(wp, req.Key, t.putValue(req.Key, req.Seq), req.Deadline)
		if err == nil && ver > want[req.Key] {
			want[req.Key] = ver
		}
		return err
	}
	minVer := want[req.Key]
	_, ver, _, _, fallback, err := grp.GetRYW(wp, req.Key, minVer, req.Deadline)
	if fallback {
		stats.RYWFallbacks++
	}
	if err == nil && ver < minVer {
		stats.RYWViolations++
	}
	return err
}
