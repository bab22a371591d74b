// Package hostcpu models the host processor's interaction costs: programmed
// I/O over the I/O bus (the dominant cost of posting VMMC send requests and
// of FM-style PIO sends), library memory copies (the cost vRPC pays on every
// receive), and cache-resident spinning on a completion word.
package hostcpu

import (
	"repro/internal/bus"
	"repro/internal/hw"
	"repro/internal/sim"
)

// CPU is one node's processor cost model. All methods must be called from
// the calling process's goroutine.
type CPU struct {
	eng   *sim.Engine
	prof  hw.Profile
	iobus *bus.Bus
}

// New returns a CPU attached to the node's I/O bus.
func New(eng *sim.Engine, prof hw.Profile, iobus *bus.Bus) *CPU {
	return &CPU{eng: eng, prof: prof, iobus: iobus}
}

// Profile returns the platform profile in use.
func (c *CPU) Profile() hw.Profile { return c.prof }

// MMIOWrite charges one 32-bit posted write across the I/O bus (0.121 us).
func (c *CPU) MMIOWrite(p *sim.Proc) {
	c.iobus.Use(p, c.prof.PCIWriteCost)
}

// MMIORead charges one 32-bit uncached read across the I/O bus (0.422 us).
func (c *CPU) MMIORead(p *sim.Proc) {
	c.iobus.Use(p, c.prof.PCIReadCost)
}

// MMIOWriteWords charges n consecutive 32-bit writes, e.g. copying a short
// message into the LANai SRAM send queue.
func (c *CPU) MMIOWriteWords(p *sim.Proc, n int) {
	if n <= 0 {
		return
	}
	c.iobus.Use(p, sim.Time(n)*c.prof.PCIWriteCost)
}

// MMIOWriteBytes charges the writes needed to move n bytes word-by-word.
func (c *CPU) MMIOWriteBytes(p *sim.Proc, n int) {
	c.MMIOWriteWords(p, (n+3)/4)
}

// Bcopy charges a library memory copy of n bytes (~50 MB/s, §5.4).
func (c *CPU) Bcopy(p *sim.Proc, n int) {
	if n <= 0 {
		return
	}
	p.Sleep(c.prof.BcopySetup + sim.Time(float64(n)/c.prof.BcopyRate*float64(sim.Second)))
}

// Compute charges d of pure CPU time (stub execution, handler bodies).
func (c *CPU) Compute(p *sim.Proc, d sim.Time) {
	p.Sleep(d)
}

// SpinWait parks p until check() reports true, re-sampling every
// SpinCheckInterval. This models spinning on a cache location: the checks
// cost no bus cycles (the completion word is written into the cache line
// by DMA; §4.5), only latency granularity. check must be a pure function
// of model state that never reads the clock (see sim.Proc.PollEvery).
func (c *CPU) SpinWait(p *sim.Proc, check func() bool) {
	p.PollEvery(c.prof.SpinCheckInterval, check)
}

// SpinWaitUntil is SpinWait bounded by an absolute deadline: it returns
// at the first sample where check holds or that falls at or after
// deadline, and reports whether check held (see sim.Proc.PollEveryUntil).
func (c *CPU) SpinWaitUntil(p *sim.Proc, deadline sim.Time, check func() bool) bool {
	return p.PollEveryUntil(c.prof.SpinCheckInterval, deadline, check)
}
