package rpc

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// TestSlotMessage checks the slot-window spin predicate on the three
// states a slot is polled in: a length word that is out of range, a
// complete-looking length whose trailing sequence word is stale, and a
// complete message. The not-ready states must not allocate: they are
// re-evaluated on every spin sample of every reply wait.
func TestSlotMessage(t *testing.T) {
	eng := sim.NewEngine()
	cl, err := vmmc.NewCluster(eng, vmmc.Options{Nodes: 1, MemBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cl.Go("slot-test", func(p *sim.Proc) {
		proc, err := cl.Nodes[0].NewProcess(p)
		if err != nil {
			t.Error(err)
			return
		}
		base, err := proc.Malloc(SlotBytes)
		if err != nil {
			t.Error(err)
			return
		}
		write := func(va mem.VirtAddr, data []byte) {
			if err := proc.Write(va, data); err != nil {
				t.Error(err)
			}
		}
		word := func(va mem.VirtAddr, v uint32) {
			write(va, binary.BigEndian.AppendUint32(nil, v))
		}
		payload := []byte("slot payload")
		n := mem.VirtAddr(len(payload))
		const seq = 7

		notReady := func(name string) {
			if m, ok := slotMessage(proc, base, seq); ok {
				t.Errorf("%s: slotMessage = %q, true; want not ready", name, m)
			}
			if a := testing.AllocsPerRun(100, func() { slotMessage(proc, base, seq) }); a != 0 {
				t.Errorf("%s: slotMessage allocates %v times per call, want 0", name, a)
			}
		}

		word(base, slotMax+1)
		notReady("bad length")

		word(base, uint32(n))
		write(base+4, payload)
		word(base+4+n, seq-1)
		notReady("stale trailer")

		word(base+4+n, seq)
		m, ok := slotMessage(proc, base, seq)
		if !ok || !bytes.Equal(m, payload) {
			t.Errorf("complete slot: slotMessage = %q, %v; want %q, true", m, ok, payload)
		}
	})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
}
