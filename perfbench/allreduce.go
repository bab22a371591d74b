package main

import (
	"bytes"
	"fmt"

	"repro/internal/coll"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// allreduceConfig is the bulk collective workload: ring all-reduce of
// int32 vectors over one switch.
type allreduceConfig struct {
	ranks, bytes, iters int
	seed                uint64
	// skew bounds the seeded compute time each rank spends before each
	// call, so ranks enter a call at different times, as they do after
	// uneven compute phases.
	skew sim.Time
}

func allreduceDefault(seed uint64) allreduceConfig {
	return allreduceConfig{ranks: 8, bytes: 128 << 10, iters: 20, seed: seed, skew: sim.Millisecond}
}

// runAllReduce boots the cluster, forms a communicator, warms it with one
// call, and then times iters ring all-reduces on every rank. Every result
// is compared with the sum computed on the host.
func runAllReduce(s *session, cfg allreduceConfig) (*result, error) {
	eng := s.eng
	r := rng(cfg.seed ^ 0xa11ed)
	ins := make([][]byte, cfg.ranks)
	sum := make([]int32, cfg.bytes/4)
	for k := range ins {
		v := make([]int32, cfg.bytes/4)
		for i := range v {
			v[i] = int32(r.next()%(1<<21)) - 1<<20
			sum[i] += v[i]
		}
		ins[k] = coll.EncodeInt32s(v)
	}
	want := coll.EncodeInt32s(sum)
	skews := make([][]sim.Time, cfg.ranks)
	for k := range skews {
		skews[k] = make([]sim.Time, cfg.iters)
		for it := range skews[k] {
			if cfg.skew > 0 {
				skews[k][it] = sim.Time(r.next() % uint64(cfg.skew))
			}
		}
	}

	c, err := vmmc.NewCluster(eng, vmmc.Options{Nodes: cfg.ranks})
	if err != nil {
		return nil, err
	}
	res := &result{memBytes: backingBytes(c)}
	var (
		runErr error
		lats   = make([][]sim.Time, cfg.ranks)
	)
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}
	c.Go("allreduce", func(p *sim.Proc) {
		s.phase("export") // coll.Build exports every window, then imports them
		procs := make([]*vmmc.Process, cfg.ranks)
		for i := range procs {
			proc, err := c.Nodes[i].NewProcess(p)
			if err != nil {
				fail(err)
				return
			}
			procs[i] = proc
		}
		comms, err := coll.Build(p, procs, coll.Options{})
		if err != nil {
			fail(err)
			return
		}
		var start sim.Time
		done := 0
		cond := sim.NewCond(eng)
		for rank := range comms {
			rank := rank
			eng.Go(fmt.Sprintf("rank%d", rank), func(rp *sim.Proc) {
				defer func() {
					done++
					cond.Broadcast()
				}()
				cm := comms[rank]
				out := make([]byte, cfg.bytes)
				// Warm-up: pipelines, TLBs and handlers are hot after it.
				if err := cm.AllReduce(rp, ins[rank], out, coll.OpSum, coll.Int32, coll.Ring); err != nil {
					fail(err)
					return
				}
				if err := cm.Barrier(rp); err != nil {
					fail(err)
					return
				}
				if rank == 0 {
					start = rp.Now()
					s.phase("measure")
				}
				lat := make([]sim.Time, 0, cfg.iters)
				for it := 0; it < cfg.iters && runErr == nil; it++ {
					rp.Sleep(skews[rank][it])
					t0, w0 := rp.Now(), s.wallNow()
					if err := cm.AllReduce(rp, ins[rank], out, coll.OpSum, coll.Int32, coll.Ring); err != nil {
						fail(err)
						return
					}
					lat = append(lat, rp.Now()-t0)
					s.op("coll.allreduce", w0, t0)
					if !bytes.Equal(out, want) {
						res.failed++
					}
				}
				lats[rank] = lat
				if err := cm.Barrier(rp); err != nil {
					fail(err)
					return
				}
				if rank == 0 {
					res.virtElapsed = rp.Now() - start
				}
			})
		}
		for done < cfg.ranks {
			cond.Wait(p)
		}
	})
	if err := c.Start(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	s.markRunEnd()
	res.attempted = cfg.ranks * cfg.iters
	res.payloadBytes = int64(cfg.iters) * int64(cfg.bytes)
	for _, l := range lats {
		res.lat = append(res.lat, l...)
	}
	return res, nil
}
