package main

import (
	"bytes"
	"fmt"

	"repro/internal/lanai"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// a2aConfig is the all-to-all workload: scalesweep's exchange on a
// switch chain with the reliability layer on.
type a2aConfig struct {
	nodes, msgBytes, rounds int
	seed                    uint64
	// scalesweep runs the exchange exactly as scalesweep does: the
	// identity ring-shift order and payloads filled with the round
	// marker. Otherwise the seed shuffles each round's shift order and
	// fills the payloads with random bytes ending in the round marker.
	scalesweep bool
}

func a2aDefault(seed uint64) a2aConfig {
	return a2aConfig{nodes: 64, msgBytes: 1024, rounds: 2, seed: seed}
}

// a2aInputs are the generated inputs of one exchange.
type a2aInputs struct {
	shifts   [][]int    // [round] ring shifts, a permutation of 1..n-1
	payloads [][][]byte // [node][round] message bytes
}

func marker(round int) byte { return byte(round%250 + 1) }

func (cfg a2aConfig) inputs() a2aInputs {
	in := a2aInputs{shifts: make([][]int, cfg.rounds+1), payloads: make([][][]byte, cfg.nodes)}
	r := rng(cfg.seed ^ 0xa2a64)
	for round := 1; round <= cfg.rounds; round++ {
		sh := make([]int, cfg.nodes-1)
		for k := range sh {
			sh[k] = k + 1
		}
		if !cfg.scalesweep {
			for k := len(sh) - 1; k > 0; k-- {
				m := r.intn(k + 1)
				sh[k], sh[m] = sh[m], sh[k]
			}
		}
		in.shifts[round] = sh
	}
	for i := range in.payloads {
		in.payloads[i] = make([][]byte, cfg.rounds+1)
		for round := 1; round <= cfg.rounds; round++ {
			b := make([]byte, cfg.msgBytes)
			for k := range b {
				if cfg.scalesweep {
					b[k] = marker(round)
				} else {
					b[k] = byte(r.next())
				}
			}
			b[len(b)-1] = marker(round)
			in.payloads[i][round] = b
		}
	}
	return in
}

// runA2A boots the cluster, exports one page per sender on every node,
// imports every peer's page under a semaphore, and runs the ring-shifted
// exchange. In step s of a round every node sends to (i+shift[s]) mod n,
// so each node receives exactly one message per step. Each message's
// latency is SendMsg to local completion (WaitSend).
func runA2A(s *session, cfg a2aConfig) (*result, error) {
	eng := s.eng
	nodes := cfg.nodes
	in := cfg.inputs()
	window := nodes * mem.PageSize
	memBytes := window + 64*mem.PageSize
	// scalesweep's tuning for a deep switch chain: a delayed ack well
	// under the RTO, and a retransmit clamp and budget that let the
	// adaptive RTO track millisecond RTTs.
	relCfg := lanai.DefaultReliability()
	relCfg.AckDelay = 25 * sim.Microsecond
	relCfg.MaxRTO = 50 * sim.Millisecond
	relCfg.MaxRetries = 12
	c, err := vmmc.NewCluster(eng, vmmc.Options{
		Nodes: nodes, MemBytes: memBytes, Reliable: true, Reliability: &relCfg,
	})
	if err != nil {
		return nil, err
	}
	res := &result{memBytes: backingBytes(c)}

	var (
		exported  = newBarrier(eng, nodes)
		imported  = newBarrier(eng, nodes)
		step      = newBarrier(eng, nodes)
		finished  = newBarrier(eng, nodes)
		importSem = newSema(eng, 8)
		start     sim.Time
		procs     = make([]*vmmc.Process, nodes)
		bufs      = make([]mem.VirtAddr, nodes)
		lats      = make([][]sim.Time, nodes)
		runErr    error
	)
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}
	final := marker(cfg.rounds)
	for i := 0; i < nodes; i++ {
		i := i
		c.Go(fmt.Sprintf("a2a:%d", i), func(p *sim.Proc) {
			if i == 0 {
				s.phase("export")
			}
			proc, err := c.Nodes[i].NewProcess(p)
			if err != nil {
				fail(err)
				return
			}
			procs[i] = proc
			buf, err := proc.Malloc(window)
			if err != nil {
				fail(err)
				return
			}
			bufs[i] = buf
			for j := 0; j < nodes; j++ {
				if j == i {
					continue
				}
				off := mem.VirtAddr(j * mem.PageSize)
				if err := proc.Export(p, uint32(j+1), buf+off, mem.PageSize, nil, false); err != nil {
					fail(err)
					return
				}
			}
			exported.await(p)
			if i == 0 {
				s.phase("import")
			}

			importSem.acquire(p)
			dests := make([]vmmc.ProxyAddr, nodes)
			for j := 0; j < nodes; j++ {
				if j == i {
					continue
				}
				dest, _, err := proc.Import(p, j, uint32(i+1))
				if err != nil {
					fail(err)
					return
				}
				dests[j] = dest
			}
			importSem.release()
			src, err := proc.Malloc(mem.PageSize)
			if err != nil {
				fail(err)
				return
			}
			lat := make([]sim.Time, 0, cfg.rounds*(nodes-1))
			imported.await(p)
			if i == 0 {
				start = p.Now()
				s.phase("measure")
			}

			for r := 1; r <= cfg.rounds; r++ {
				if err := proc.Write(src, in.payloads[i][r]); err != nil {
					fail(err)
					return
				}
				for _, shift := range in.shifts[r] {
					j := (i + shift) % nodes
					t0, w0 := p.Now(), s.wallNow()
					seq, err := proc.SendMsg(p, src, dests[j], cfg.msgBytes, vmmc.SendOptions{})
					if err != nil {
						fail(err)
						return
					}
					// Local completion frees the source page for the
					// next step; delivery is checked at the end.
					if err := proc.WaitSend(p, seq); err != nil {
						fail(err)
						return
					}
					lat = append(lat, p.Now()-t0)
					s.op("vmmc.send_complete", w0, t0)
					step.await(p)
				}
			}
			lats[i] = lat

			if i == 0 {
				s.phase("drain")
			}
			// Per-pair delivery is in order, so the final round's marker
			// in a slot means every earlier round landed there too.
			// PollUntil parks between deposits instead of spinning.
			for j := 0; j < nodes; j++ {
				if j == i {
					continue
				}
				flag := buf + mem.VirtAddr(j*mem.PageSize+cfg.msgBytes-1)
				proc.PollUntil(p, func() bool {
					b, err := proc.AS.ReadBytes(flag, 1)
					return err == nil && b[0] == final
				})
			}
			finished.await(p)
			if i == 0 {
				res.virtElapsed = p.Now() - start
			}
		})
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	s.markRunEnd()

	// Every slot must hold its sender's final-round message, byte for
	// byte.
	for i := 0; i < nodes; i++ {
		for j := 0; j < nodes; j++ {
			if j == i {
				continue
			}
			got, err := procs[i].Read(bufs[i]+mem.VirtAddr(j*mem.PageSize), cfg.msgBytes)
			if err != nil || !bytes.Equal(got, in.payloads[j][cfg.rounds]) {
				res.failed++
			}
		}
	}
	msgs := nodes * (nodes - 1) * cfg.rounds
	res.attempted = msgs
	res.payloadBytes = int64(msgs) * int64(cfg.msgBytes)
	for _, l := range lats {
		res.lat = append(res.lat, l...)
	}
	return res, nil
}
