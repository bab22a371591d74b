package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/trace"
)

// span is one timed interval recorded by the harness around its calls
// into the layers: a phase of a run, one message send or one collective
// call. Wall times are host nanoseconds since the run began; virtual
// times are simulated nanoseconds.
type span struct {
	Name      string `json:"name"`
	Parent    string `json:"parent"`
	WallStart int64  `json:"wall_start_ns"`
	WallEnd   int64  `json:"wall_end_ns"`
	VirtStart int64  `json:"virt_start_ns"`
	VirtEnd   int64  `json:"virt_end_ns"`
}

// session is one run of a workload on a fresh engine. It owns the
// engine, the analyzer subscribed to its trace stream (as vmmcbench
// subscribes one for every sweep), the phase spans, and, in a traced
// run, the per-operation spans and the analyzer timing wrapper.
type session struct {
	eng      *sim.Engine
	analyzer *analysis.Analyzer
	sink     *timedSink // nil unless traced
	traced   bool

	t0          time.Time
	phases      []span
	ops         []span // traced runs only
	measureWall time.Time
	runEnd      time.Time
	measureEvts uint64
	onMeasure   func() // fired at the start of the measured phase
}

func newSession(traced bool) *session {
	s := &session{eng: sim.NewEngine(), traced: traced, t0: time.Now()}
	s.eng.ObserveScheduler()
	s.analyzer = analysis.NewAnalyzer(analysis.Config{})
	if traced {
		s.sink = &timedSink{next: s.analyzer}
		s.eng.Trace().Subscribe(s.sink)
	} else {
		s.eng.Trace().Subscribe(s.analyzer)
	}
	s.phase("boot")
	return s
}

func (s *session) wallNow() int64 { return int64(time.Since(s.t0)) }

// phase closes the open phase span and opens the named one. It also
// marks the phase in the trace stream, which splits the analyzer's
// attribution window the way the sweeps' phase marks do. "measure"
// starts the measured phase: set-up time ends there.
func (s *session) phase(name string) {
	now := s.wallNow()
	virt := int64(s.eng.Now())
	if n := len(s.phases); n > 0 {
		s.phases[n-1].WallEnd, s.phases[n-1].VirtEnd = now, virt
	}
	s.phases = append(s.phases, span{Name: name, Parent: "run", WallStart: now, VirtStart: virt})
	s.eng.TraceInstant("bench", "phase", name)
	if name == "measure" {
		s.measureWall = time.Now()
		s.measureEvts = s.eng.SchedStats().Dispatched
		if s.onMeasure != nil {
			s.onMeasure()
		}
	}
}

// markRunEnd ends the measured phase on the host clock: the workload
// calls it when the engine returns, before checking outputs.
func (s *session) markRunEnd() { s.runEnd = time.Now() }

// op records one operation span of the measured phase in a traced run;
// wallStart comes from s.wallNow() taken when the operation began.
func (s *session) op(name string, wallStart int64, virtStart sim.Time) {
	if !s.traced {
		return
	}
	s.ops = append(s.ops, span{Name: name, Parent: "measure",
		WallStart: wallStart, WallEnd: s.wallNow(),
		VirtStart: int64(virtStart), VirtEnd: int64(s.eng.Now())})
}

// finish ends the last phase span and finalizes the analyzer against
// the engine's metrics snapshot.
func (s *session) finish() (*analysis.Report, trace.Snapshot) {
	if n := len(s.phases); n > 0 && s.phases[n-1].WallEnd == 0 {
		s.phases[n-1].WallEnd, s.phases[n-1].VirtEnd = s.wallNow(), int64(s.eng.Now())
	}
	snap := s.eng.MetricsSnapshot()
	return s.analyzer.Finalize(snap.NowNS, snap), snap
}

// timedSink forwards the trace stream to the analyzer and times each
// Consume call: the per-layer cost of the trace and analysis layers.
type timedSink struct {
	next   trace.Sink
	events int64
	ns     int64
}

func (t *timedSink) Consume(ev trace.Event) {
	start := time.Now()
	t.next.Consume(ev)
	t.ns += int64(time.Since(start))
	t.events++
}

// barrier parks processes until target of them have arrived, then
// releases the generation together. Reusable across phases.
type barrier struct {
	c         *sim.Cond
	n, target int
	gen       int
}

func newBarrier(eng *sim.Engine, target int) *barrier {
	return &barrier{c: sim.NewCond(eng), target: target}
}

func (b *barrier) await(p *sim.Proc) {
	gen := b.gen
	if b.n++; b.n == b.target {
		b.n = 0
		b.gen++
		b.c.Broadcast()
		return
	}
	for gen == b.gen {
		b.c.Wait(p)
	}
}

// sema is a counting semaphore over virtual time. Imports run under one
// because the daemons' handshake rides the shared Ethernet, which
// congests past its retry budget if every node imports at once.
type sema struct {
	c      *sim.Cond
	active int
	limit  int
}

func newSema(eng *sim.Engine, limit int) *sema {
	return &sema{c: sim.NewCond(eng), limit: limit}
}

func (s *sema) acquire(p *sim.Proc) {
	for s.active >= s.limit {
		s.c.Wait(p)
	}
	s.active++
}

func (s *sema) release() {
	s.active--
	s.c.Signal()
}

// rng is the splitmix64 generator every seeded input of the benchmark
// draws from, so one seed gives the same inputs on every platform.
type rng uint64

func (s *rng) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit draws from [0, 1) with 53 bits of precision.
func (s *rng) unit() float64 { return float64(s.next()>>11) / (1 << 53) }

// exp draws an exponential variate with the given mean by inverse CDF.
func (s *rng) exp(mean float64) float64 { return -mean * math.Log(1-s.unit()) }

// intn draws from [0, n).
func (s *rng) intn(n int) int { return int(s.next() % uint64(n)) }

// zipf is a cumulative-weight table for rank-ordered Zipf sampling:
// P(key k) is proportional to 1/(k+1)^theta.
type zipf struct{ cum []float64 }

func newZipf(keys int, theta float64) *zipf {
	cum := make([]float64, keys)
	total := 0.0
	for k := 0; k < keys; k++ {
		total += 1 / math.Pow(float64(k+1), theta)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	return &zipf{cum: cum}
}

func (z *zipf) draw(s *rng) int {
	u := s.unit()
	return sort.Search(len(z.cum)-1, func(i int) bool { return z.cum[i] >= u })
}

// quantile returns the nearest-rank quantile of sorted samples at mil
// per mille (500 = median), the convention the sweeps use.
func quantile(sorted []sim.Time, mil int) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	idx := (mil*len(sorted) + 999) / 1000
	if idx < 1 {
		idx = 1
	}
	return sorted[idx-1]
}

// median of host-clock samples; it sorts xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n := len(xs); n%2 == 1 {
		return xs[n/2]
	} else {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
}

// sortTimes sorts virtual-time samples in place.
func sortTimes(ts []sim.Time) { sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] }) }
