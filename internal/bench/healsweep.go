package bench

import (
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/lanai"
	"repro/internal/mem"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// healSweepSeed fixes the fault plan's RNG; the sweep injects only
// scheduled outages (no random corruption), but the seed keeps the plan's
// bookkeeping deterministic too.
const healSweepSeed = 0x4EA1

// HealConfigSweep parameterizes the healsweep experiment.
type HealConfigSweep struct {
	// Outages lists the link-outage durations swept (each one cell).
	// Empty selects the default 2ms -> 6ms -> 12ms ladder.
	Outages []sim.Time
	// Msgs is the page-sized message count per cell. Zero selects 32.
	Msgs int
	// Out, when non-empty, writes the machine-readable BENCH_heal.json
	// artifact here. Every quantity in the artifact is virtual-time
	// derived, so two runs produce byte-identical files.
	Out string
}

// HealResult is one cell of the sweep. All fields are deterministic
// (virtual-time or event-count quantities): the sweep runs every cell
// twice and fails on any drift, so the artifact doubles as a
// whole-stack determinism check of the self-healing layer.
type HealResult struct {
	Case           string
	OutageUS       float64
	Messages       int
	VirtualElapsed sim.Time
	GoodputMBps    float64
	Stalls         int64
	Remaps         int64
	RouteSwaps     int64
	Healed         int64
	Abandoned      int64
	Retransmits    int64
	SendFailures   int64
}

// DiamondFabric wires the redundant sweep fabric: two edge switches, each
// hosting half the nodes, cross-connected through two spine switches, so
// every edge-to-edge path has a one-trunk detour and a spine death is
// survivable.
//
//	edge0 (sw0) --6-- spineA (sw2) --6-- edge1 (sw1)
//	      \--7-- spineB (sw3) --7--/
func DiamondFabric(net *myrinet.Network, nodes int) error {
	edge0 := net.AddSwitch(8)  // switch 0
	edge1 := net.AddSwitch(8)  // switch 1
	spineA := net.AddSwitch(8) // switch 2
	spineB := net.AddSwitch(8) // switch 3
	if err := net.ConnectSwitches(edge0, 6, spineA, 0); err != nil {
		return err
	}
	if err := net.ConnectSwitches(edge0, 7, spineB, 0); err != nil {
		return err
	}
	if err := net.ConnectSwitches(edge1, 6, spineA, 1); err != nil {
		return err
	}
	if err := net.ConnectSwitches(edge1, 7, spineB, 1); err != nil {
		return err
	}
	for i := 0; i < nodes; i++ {
		sw, port := edge0, i
		if i >= nodes/2 {
			sw, port = edge1, i-nodes/2
		}
		if err := net.AttachNIC(net.AddNIC(), sw, port); err != nil {
			return err
		}
	}
	return nil
}

// HealSweep measures transfer goodput across fabric outages with the
// self-healing layer on: a clean baseline, link outages of growing
// duration (the stream stalls, suspends, and resumes once the link
// returns), and a permanent spine-switch death on the redundant fabric
// (the remap discovers the detour through the surviving spine and
// hot-swaps it into the stalled windows). Every cell must deliver every
// message byte-exact with zero application-visible errors — the paper's
// static tables would surface ErrNodeUnreachable instead. Each cell runs
// twice and the sweep fails on any virtual-time or counter drift, so the
// BENCH_heal.json artifact is byte-identical across runs.
func HealSweep(cfg HealConfigSweep) (Table, error) {
	if len(cfg.Outages) == 0 {
		cfg.Outages = []sim.Time{2 * sim.Millisecond, 6 * sim.Millisecond, 12 * sim.Millisecond}
	}
	if cfg.Msgs == 0 {
		cfg.Msgs = 32
	}

	t := Table{
		Title: "Heal sweep: goodput vs fabric outage, self-healing on (diamond fabric)",
		Columns: []string{"case", "outage", "delivered", "goodput", "stream time",
			"stalls", "remaps", "route swaps", "healed", "retransmits"},
	}

	type cell struct {
		name   string
		outage sim.Time // link-outage duration; 0 = none
		spine  bool     // permanent spine-switch death instead
	}
	cells := []cell{{name: "no outage"}}
	for _, d := range cfg.Outages {
		cells = append(cells, cell{name: "link outage", outage: d})
	}
	cells = append(cells, cell{name: "spine failover", spine: true})

	var (
		results []HealResult
		reports []*analysis.Report
	)
	for _, cl := range cells {
		r, rep, err := runTwice("healsweep", cl.name, func() (HealResult, error) {
			return runHealCase(cl.name, cl.outage, cl.spine, cfg.Msgs)
		}, nil)
		if err != nil {
			return t, err
		}
		label := cl.name
		if cl.outage > 0 {
			label = fmt.Sprintf("%s %.0f us", cl.name, cl.outage.Micros())
		}
		results = append(results, r)
		reports = append(reports, rep)
		t.Notes = append(t.Notes, analysisNote(label, rep))
		t.Rows = append(t.Rows, []string{
			r.Case,
			fmt.Sprintf("%.0f us", r.OutageUS),
			fmt.Sprintf("%d/%d", r.Messages, cfg.Msgs),
			fmt.Sprintf("%.1f MB/s", r.GoodputMBps),
			fmt.Sprintf("%.1f us", r.VirtualElapsed.Micros()),
			fmt.Sprintf("%d", r.Stalls),
			fmt.Sprintf("%d", r.Remaps),
			fmt.Sprintf("%d", r.RouteSwaps),
			fmt.Sprintf("%d", r.Healed),
			fmt.Sprintf("%d", r.Retransmits),
		})
	}
	if cfg.Out != "" {
		if err := writeHealJSON(cfg, results, reports); err != nil {
			return t, err
		}
	}
	return t, nil
}

// runHealCase boots a 4-node cluster on the diamond fabric with healing
// on and streams msgs page-sized messages from node 0 to node 2 (across
// the spines) while the scripted outage bites mid-stream.
func runHealCase(name string, outage sim.Time, spine bool, msgs int) (HealResult, error) {
	eng := observedEngine()
	pl := fault.NewPlan(eng, healSweepSeed)

	// Stall fast: a small retransmit budget moves the virtual time from
	// doomed retransmissions into the heal path under test.
	relCfg := lanai.DefaultReliability()
	relCfg.MaxRetries = 4
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
			// The boot-derived default timeout (~24us) makes a remap round
			// ~11ms on this fabric — silent dangling-port prefixes dominate
			// the BFS — which would quantize every heal to the same round.
			// Replies here arrive within a few microseconds (3 hops, short
			// probes), so a tight timeout keeps rounds short and the sweep
			// able to resolve outage duration.
			ProbeTimeout: 8 * sim.Microsecond,
		},
	})
	if err != nil {
		return HealResult{}, err
	}

	// slotByte is the expected fill of slot i; the last byte doubles as
	// the arrival flag the receiver spins on.
	slotByte := func(i int) byte { return byte(1 + i%250) }

	var (
		delivered int
		elapsed   sim.Time
		sendFails int64
	)
	c.Go("healsweep", func(p *sim.Proc) {
		recv, err := c.Nodes[2].NewProcess(p)
		if err != nil {
			panic(err)
		}
		send, err := c.Nodes[0].NewProcess(p)
		if err != nil {
			panic(err)
		}
		window := msgs * mem.PageSize
		buf, _ := recv.Malloc(window)
		if err := recv.Export(p, 1, buf, window, nil, false); err != nil {
			panic(err)
		}
		dest, _, err := send.Import(p, 2, 1)
		if err != nil {
			panic(err)
		}
		src, _ := send.Malloc(mem.PageSize)

		// Script the outage relative to the stream's start, so boot and
		// import time do not shift it between configurations.
		const outageAt = 400 * sim.Microsecond
		switch {
		case spine:
			// Kill whichever spine the booted route 0->2 crosses (the first
			// route byte is edge0's output port: 6 = spineA, 7 = spineB),
			// forever — only the remapped detour can finish the stream.
			dead := 2
			if route := c.Nodes[0].LCP.Routes(2); len(route) > 0 && route[0] == 7 {
				dead = 3
			}
			pl.SwitchOutage(dead, p.Now()+outageAt, 0)
		case outage > 0:
			pl.LinkOutage(c.Nodes[2].Board.NIC.ID, p.Now()+outageAt, p.Now()+outageAt+outage)
		}

		start := p.Now()
		page := make([]byte, mem.PageSize)
		for i := 0; i < msgs; i++ {
			for j := range page {
				page[j] = slotByte(i)
			}
			if err := send.Write(src, page); err != nil {
				panic(err)
			}
			off := i * mem.PageSize
			if err := send.SendMsgChecked(p, src, dest+vmmc.ProxyAddr(off), mem.PageSize, vmmc.SendOptions{}); err != nil {
				panic(fmt.Sprintf("bench: healsweep %s: send %d surfaced %v", name, i, err))
			}
		}
		// In-order delivery: the final slot's flag landing means all did.
		recv.SpinByte(p, buf+mem.VirtAddr(msgs*mem.PageSize-1), slotByte(msgs-1))
		elapsed = p.Now() - start

		got, err := recv.Read(buf, window)
		if err != nil {
			panic(err)
		}
		for i := 0; i < msgs; i++ {
			exact := true
			for j := 0; j < mem.PageSize; j++ {
				if got[i*mem.PageSize+j] != slotByte(i) {
					exact = false
					break
				}
			}
			if exact {
				delivered++
			}
		}
		sendFails = send.Errors().SendFailures
	})
	if err := c.Start(); err != nil {
		return HealResult{}, err
	}
	if err := capture(eng); err != nil {
		return HealResult{}, err
	}
	if delivered != msgs {
		return HealResult{}, fmt.Errorf("bench: healsweep %s delivered %d/%d slots", name, delivered, msgs)
	}
	if sendFails != 0 {
		return HealResult{}, fmt.Errorf("bench: healsweep %s: %d application-visible send failures, want 0", name, sendFails)
	}

	// Short link outages may ride inside the go-back-N retransmit budget
	// and never stall — the sweep's interesting transition. Only the
	// permanent spine death is guaranteed to need a heal: the stream can
	// finish solely on a remapped detour.
	st := c.Healer().Stats()
	if spine && st.Healed == 0 {
		return HealResult{}, fmt.Errorf("bench: healsweep %s: spine died but no window healed", name)
	}
	if spine && st.RouteSwaps == 0 {
		return HealResult{}, fmt.Errorf("bench: healsweep %s: spine died but no route swapped", name)
	}

	r := HealResult{
		Case:           name,
		OutageUS:       outage.Micros(),
		Messages:       delivered,
		VirtualElapsed: elapsed,
		Stalls:         st.Stalls,
		Remaps:         st.Remaps,
		RouteSwaps:     st.RouteSwaps,
		Healed:         st.Healed,
		Abandoned:      st.Abandoned,
		Retransmits:    c.Nodes[0].Board.Reliable().Retransmits,
		SendFailures:   sendFails,
	}
	if elapsed > 0 {
		r.GoodputMBps = float64(delivered*mem.PageSize) / elapsed.Seconds() / 1e6
	}
	return r, nil
}

// writeHealJSON emits the heal-trajectory artifact. Keys are written in a
// fixed order and every value is virtual-time derived, so the file is
// byte-identical across runs — a golden-able determinism witness, unlike
// the wall-clock BENCH_scale.json.
func writeHealJSON(cfg HealConfigSweep, rs []HealResult, reps []*analysis.Report) error {
	f, err := os.Create(cfg.Out)
	if err != nil {
		return fmt.Errorf("bench: heal artifact: %w", err)
	}
	fmt.Fprintf(f, "{\n")
	fmt.Fprintf(f, "  \"benchmark\": \"vmmc-healsweep\",\n")
	fmt.Fprintf(f, "  \"fabric\": \"diamond-2edge-2spine\",\n")
	fmt.Fprintf(f, "  \"msgs\": %d,\n", cfg.Msgs)
	fmt.Fprintf(f, "  \"msg_bytes\": %d,\n", mem.PageSize)
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
		fmt.Fprintf(f, "    {\"case\": %q, \"outage_us\": %.0f, \"messages\": %d, "+
			"\"virtual_elapsed_us\": %.3f, \"goodput_mb_s\": %.2f, "+
			"\"stalls\": %d, \"remaps\": %d, \"route_swaps\": %d, \"healed\": %d, "+
			"\"abandoned\": %d, \"retransmits\": %d, \"send_failures\": %d, "+
			"\"verdict\": %q}%s\n",
			r.Case, r.OutageUS, r.Messages,
			r.VirtualElapsed.Micros(), r.GoodputMBps,
			r.Stalls, r.Remaps, r.RouteSwaps, r.Healed,
			r.Abandoned, r.Retransmits, r.SendFailures, verdict, comma)
	}
	fmt.Fprintf(f, "  ],\n")
	if n := len(reps); n > 0 && reps[n-1] != nil {
		fmt.Fprintf(f, "  \"analysis\": %s\n", analysisJSON(reps[n-1], "  ")[2:])
	} else {
		fmt.Fprintf(f, "  \"analysis\": null\n")
	}
	fmt.Fprintf(f, "}\n")
	if cerr := f.Close(); cerr != nil {
		return fmt.Errorf("bench: heal artifact: %w", cerr)
	}
	return nil
}
