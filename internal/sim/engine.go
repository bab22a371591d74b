package sim

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Event is a scheduled callback. It can be canceled before it fires.
//
// Events come in two flavors internally. Public events (made by At/After)
// are heap-allocated and never reused: callers may hold the pointer
// indefinitely, cancel it late, or query it after it fired. Internal
// events (process wakeups, condition timeouts) never escape the package,
// so they are drawn from a free list and recycled the moment they leave
// the event heap — steady-state scheduling does not allocate.
type Event struct {
	eng      *Engine
	at       Time
	seq      uint64
	fn       func()      // generic callback (public events, spawns)
	proc     *Proc       // wake this process (closure-free fast path)
	waiter   *condWaiter // expire this condition-wait timeout
	canceled bool
	pooled   bool
	poll     bool // with proc: a PollEvery sample, not a plain wakeup
	index    int  // heap index, -1 once popped
}

// Cancel prevents the event's callback from running. Canceling an event
// that already fired or was already canceled is a no-op.
func (ev *Event) Cancel() {
	if ev.canceled {
		return
	}
	ev.canceled = true
	ev.fn = nil
	ev.proc = nil
	ev.waiter = nil
	if ev.index >= 0 {
		ev.eng.noteCancel()
	}
}

// Canceled reports whether Cancel was called on the event.
func (ev *Event) Canceled() bool { return ev.canceled }

// Time reports when the event is (or was) scheduled to fire.
func (ev *Event) Time() Time { return ev.at }

// eventHeap is a binary min-heap ordered by (time, seq). It is hand-rolled
// rather than built on container/heap: the interface-based sift calls cost
// measurably on the dispatch hot path, and this heap is the single most
// executed data structure in the simulator.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			break
		}
		h.swap(i, least)
		i = least
	}
}

// push adds ev to the heap.
func (e *Engine) heapPush(ev *Event) {
	ev.index = len(e.events)
	e.events = append(e.events, ev)
	e.events.up(ev.index)
}

// pop removes and returns the earliest event.
func (e *Engine) heapPop() *Event {
	h := e.events
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[0].index = 0
	h[n] = nil
	e.events = h[:n]
	if n > 1 {
		e.events.down(0)
	}
	ev.index = -1
	return ev
}

// laneSample is one PollEvery sample waiting in the poll lane: at time at,
// with sequence number seq, re-evaluate p's poll predicate.
type laneSample struct {
	at  Time
	seq uint64
	p   *Proc
}

// before reports whether s orders before the heap event ev.
func (s *laneSample) before(ev *Event) bool {
	if s.at != ev.at {
		return s.at < ev.at
	}
	return s.seq < ev.seq
}

// pollLane is a FIFO ring of PollEvery samples that share one interval.
// Every sample is posted at now+interval with a fresh seq, and the clock
// never runs backwards, so the ring is sorted by (time, seq) in insertion
// order: push and pop are O(1), and merging the ring's head with the heap
// top in Step dispatches events in exactly the order one heap would.
type pollLane struct {
	buf      []laneSample // ring; len(buf) is zero or a power of two
	first    int          // index of the oldest sample
	n        int
	interval Time // every resident sample's interval; adopted when empty
}

// head returns the oldest sample. The lane must be non-empty.
func (l *pollLane) head() *laneSample { return &l.buf[l.first] }

func (l *pollLane) push(s laneSample) {
	if l.n == len(l.buf) {
		grown := make([]laneSample, max(16, 2*len(l.buf)))
		for i := 0; i < l.n; i++ {
			grown[i] = l.buf[(l.first+i)&(len(l.buf)-1)]
		}
		l.buf, l.first = grown, 0
	}
	l.buf[(l.first+l.n)&(len(l.buf)-1)] = s
	l.n++
}

func (l *pollLane) pop() laneSample {
	s := l.buf[l.first]
	l.buf[l.first].p = nil
	l.first = (l.first + 1) & (len(l.buf) - 1)
	l.n--
	return s
}

// compactMinCanceled is the floor below which canceled events are never
// worth sweeping; compactMinFraction is the numerator of the canceled/total
// ratio (out of compactFractionDen) that triggers a sweep.
const (
	compactMinCanceled = 64
	compactMinFraction = 1
	compactFractionDen = 2
	heapSampleInterval = 4096 // dispatches between trace counter samples
)

// SchedStats is a point-in-time snapshot of the scheduler's internals,
// used by performance regression tests and the scalesweep harness.
//
// The heap figures count heap residents only: PollEvery samples waiting
// in the poll lane are counted by LaneLen, never by HeapLen or
// PeakHeapLen. All of these measure simulator cost, not modeled behavior.
type SchedStats struct {
	HeapLen      int    // events resident in the heap, canceled included
	HeapCanceled int    // canceled events awaiting compaction or pop
	PeakHeapLen  int    // largest heap residency ever observed
	LaneLen      int    // PollEvery samples resident in the poll lane
	Dispatched   uint64 // events executed since construction, skipped poll samples included
	PollSamples  uint64 // PollEvery samples dispatched (part of Dispatched)
	PollSkipped  uint64 // samples whose predicate was known false and not called
	Switches     uint64 // process starts and resumes: CPU handoffs to a live process
	Compactions  uint64 // lazy compaction sweeps performed
	FreeEvents   int    // pooled events available for reuse
	FreeWorkers  int    // parked worker coroutines available for reuse
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     Time
	events  eventHeap
	lane    pollLane // PollEvery samples, merged with events by Step
	seq     uint64
	epoch   uint64             // bumped by every dispatch that may change model state (see knownFalse)
	procs   map[*Proc]struct{} // live processes, for checkStall and Parked
	stopped bool
	trace   func(t Time, format string, args ...any)

	// Scheduler bookkeeping: canceled-in-heap count drives lazy
	// compaction; the free lists make steady-state scheduling
	// allocation-free.
	canceledInHeap int
	peakHeapLen    int
	dispatched     uint64
	switches       uint64
	compactions    uint64
	pollSamples    uint64
	pollSkipped    uint64
	skipScratch    []laneSample // skipKnownFalse's rotation buffer
	freeEvents     []*Event
	freeWorkers    []*worker
	freeWaiters    []*condWaiter

	collector *trace.Collector
	metrics   *trace.Registry

	// Optional scheduler observability (ObserveScheduler). Nil by
	// default so existing experiments' metrics artifacts are unchanged.
	obsHeap        *trace.Gauge
	obsCanceled    *trace.Gauge
	obsDispatched  *trace.Counter
	obsCompactions *trace.Counter

	// deadlockWraps are applied, in registration order, to the stall
	// error checkStall constructs. Protocol layers register one to turn
	// the engine's generic parked-forever report into a typed error
	// naming the protocol state that wedged (see AddDeadlockWrapper).
	deadlockWraps []func(error) error
}

// NewEngine returns an engine with the clock at zero and no events.
func NewEngine() *Engine {
	return &Engine{
		procs:     make(map[*Proc]struct{}),
		collector: trace.NewCollector(),
		metrics:   trace.NewRegistry(),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetTrace installs a trace sink invoked by Tracef. A nil sink disables
// tracing.
func (e *Engine) SetTrace(fn func(t Time, format string, args ...any)) {
	e.trace = fn
}

// Tracef emits a trace line at the current virtual time if tracing is on.
func (e *Engine) Tracef(format string, args ...any) {
	if e.trace != nil {
		e.trace(e.now, format, args...)
	}
}

// Trace returns the engine's structured trace collector. It is disabled by
// default; call Trace().Enable to start recording typed events.
func (e *Engine) Trace() *trace.Collector { return e.collector }

// Metrics returns the engine's metrics registry. Metrics are always on:
// components register counters, gauges and utilizations here at
// construction time and update them as the model runs.
func (e *Engine) Metrics() *trace.Registry { return e.metrics }

// ObserveScheduler registers the scheduler's own health metrics —
// "sim/event_heap_len", "sim/event_heap_canceled", "sim/events_dispatched",
// "sim/compactions" — in the metrics registry and, when the trace
// collector is enabled, samples heap occupancy as a counter track every
// few thousand dispatches. Off by default so that artifacts of existing
// experiments stay byte-identical; the scalesweep harness turns it on.
func (e *Engine) ObserveScheduler() {
	e.obsHeap = e.metrics.Gauge("sim/event_heap_len")
	e.obsCanceled = e.metrics.Gauge("sim/event_heap_canceled")
	e.obsDispatched = e.metrics.Counter("sim/events_dispatched")
	e.obsCompactions = e.metrics.Counter("sim/compactions")
	e.obsHeap.Set(float64(len(e.events)))
	e.obsCanceled.Set(float64(e.canceledInHeap))
}

// SchedStats reports the scheduler's internal occupancy and reuse state.
func (e *Engine) SchedStats() SchedStats {
	return SchedStats{
		HeapLen:      len(e.events),
		HeapCanceled: e.canceledInHeap,
		PeakHeapLen:  e.peakHeapLen,
		LaneLen:      e.lane.n,
		Dispatched:   e.dispatched,
		PollSamples:  e.pollSamples,
		PollSkipped:  e.pollSkipped,
		Switches:     e.switches,
		Compactions:  e.compactions,
		FreeEvents:   len(e.freeEvents),
		FreeWorkers:  len(e.freeWorkers),
	}
}

// TraceBegin opens a span at the current virtual time. It pairs with a
// later TraceEnd with the same component and name.
func (e *Engine) TraceBegin(component, category, name string) {
	if e.collector.Enabled() {
		e.collector.Emit(trace.Event{T: int64(e.now), Ph: trace.PhaseBegin,
			Component: component, Category: category, Name: name})
	}
}

// TraceEnd closes the most recent span with the same component and name.
func (e *Engine) TraceEnd(component, category, name string) {
	if e.collector.Enabled() {
		e.collector.Emit(trace.Event{T: int64(e.now), Ph: trace.PhaseEnd,
			Component: component, Category: category, Name: name})
	}
}

// TraceInstant records a point event at the current virtual time.
func (e *Engine) TraceInstant(component, category, name string) {
	if e.collector.Enabled() {
		e.collector.Emit(trace.Event{T: int64(e.now), Ph: trace.PhaseInstant,
			Component: component, Category: category, Name: name})
	}
}

// TraceCounter samples a numeric value at the current virtual time. The
// trace viewer renders successive samples of one (component, name) pair as
// a counter track.
func (e *Engine) TraceCounter(component, category, name string, value float64) {
	if e.collector.Enabled() {
		e.collector.Emit(trace.Event{T: int64(e.now), Ph: trace.PhaseCounter,
			Component: component, Category: category, Name: name, Value: value})
	}
}

// MetricsSnapshot captures every registered metric at the current virtual
// time.
func (e *Engine) MetricsSnapshot() trace.Snapshot {
	return e.metrics.Snapshot(int64(e.now))
}

// newEvent pulls an event from the free list (pooled) or allocates one,
// stamps it with the next sequence number, and pushes it on the heap.
func (e *Engine) newEvent(t Time, pooled bool) *Event {
	var ev *Event
	if n := len(e.freeEvents); pooled && n > 0 {
		ev = e.freeEvents[n-1]
		e.freeEvents[n-1] = nil
		e.freeEvents = e.freeEvents[:n-1]
		ev.canceled = false
	} else {
		ev = &Event{}
	}
	ev.eng = e
	ev.at = t
	ev.seq = e.seq
	ev.pooled = pooled
	e.seq++
	e.heapPush(ev)
	if n := len(e.events); n > e.peakHeapLen {
		e.peakHeapLen = n
	}
	if e.obsHeap != nil {
		e.obsHeap.Set(float64(len(e.events)))
	}
	return ev
}

// recycle drops an event's references once it has left the heap. Pooled
// events return to the free list for reuse; public events just release
// their callback so held pointers cannot pin dead closures.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.proc = nil
	ev.waiter = nil
	ev.poll = false
	if ev.pooled {
		e.freeEvents = append(e.freeEvents, ev)
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: that is always a model bug.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.newEvent(t, false)
	ev.fn = fn
	return ev
}

// After schedules fn to run d after the current time. A non-positive d
// schedules it at the current time (it still runs after the current event
// completes).
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// postFn schedules an internal, pooled callback event. The returned event
// must not escape the package: it is recycled as soon as it leaves the
// heap.
func (e *Engine) postFn(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	ev := e.newEvent(e.now+d, true)
	ev.fn = fn
	return ev
}

// postWake schedules an internal, pooled "resume this process" event.
// Unlike an After closure it captures nothing, so the steady-state
// sleep/wake path does not allocate.
func (e *Engine) postWake(d Time, p *Proc) *Event {
	if d < 0 {
		d = 0
	}
	ev := e.newEvent(e.now+d, true)
	ev.proc = p
	return ev
}

// postSample schedules p's next PollEvery sample one poll interval from
// now. Samples at the lane's interval join the lane; any other interval
// takes a pooled heap event, which Step dispatches the same way.
func (e *Engine) postSample(p *Proc) {
	d := max(p.pollInterval, 0)
	if e.lane.n == 0 {
		e.lane.interval = d
	}
	if d == e.lane.interval {
		e.lane.push(laneSample{at: e.now + d, seq: e.seq, p: p})
		e.seq++
		return
	}
	ev := e.newEvent(e.now+d, true)
	ev.proc = p
	ev.poll = true
}

// postTimeout schedules an internal, pooled condition-timeout event. The
// waiter record carries the owning Cond, keeping Event one field smaller.
func (e *Engine) postTimeout(d Time, w *condWaiter) *Event {
	if d < 0 {
		d = 0
	}
	ev := e.newEvent(e.now+d, true)
	ev.waiter = w
	return ev
}

// noteCancel accounts for an in-heap cancellation and sweeps the heap once
// canceled entries exceed a fraction of it. Without the sweep, cancel-heavy
// workloads (retransmit timers that almost always get acked first) keep
// dead entries resident until their distant deadlines pop, growing the heap
// without bound and slowing every push and pop.
func (e *Engine) noteCancel() {
	e.canceledInHeap++
	if e.obsCanceled != nil {
		e.obsCanceled.Set(float64(e.canceledInHeap))
	}
	if e.canceledInHeap >= compactMinCanceled &&
		e.canceledInHeap*compactFractionDen >= len(e.events)*compactMinFraction {
		e.compact()
	}
}

// compact removes every canceled event from the heap in one O(n) pass and
// restores the heap invariant. Relative order of live events is preserved:
// ordering is (time, seq), which filtering does not disturb.
func (e *Engine) compact() {
	kept := e.events[:0]
	for _, ev := range e.events {
		if ev.canceled {
			ev.index = -1
			e.recycle(ev)
		} else {
			kept = append(kept, ev)
		}
	}
	for i := len(kept); i < len(e.events); i++ {
		e.events[i] = nil
	}
	e.events = kept
	for i, ev := range e.events {
		ev.index = i
	}
	for i := len(e.events)/2 - 1; i >= 0; i-- {
		e.events.down(i)
	}
	e.canceledInHeap = 0
	e.compactions++
	if e.obsHeap != nil {
		e.obsHeap.Set(float64(len(e.events)))
		e.obsCanceled.Set(0)
		e.obsCompactions.Add(1)
	}
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// laneFirst pops canceled events off the top of the heap, then reports
// whether the earliest pending event is the poll lane's head rather than
// the heap's top.
func (e *Engine) laneFirst() bool {
	for len(e.events) > 0 && e.events[0].canceled {
		ev := e.heapPop()
		e.canceledInHeap--
		if e.obsCanceled != nil {
			e.obsCanceled.Set(float64(e.canceledInHeap))
		}
		e.recycle(ev)
	}
	return e.lane.n > 0 && (len(e.events) == 0 || e.lane.head().before(e.events[0]))
}

// nextAt reports the time of the earliest pending event, lane included.
func (e *Engine) nextAt() (Time, bool) {
	if e.laneFirst() {
		return e.lane.head().at, true
	}
	if len(e.events) > 0 {
		return e.events[0].at, true
	}
	return 0, false
}

// advance moves the clock to the dispatching event's time t and counts
// the dispatch.
func (e *Engine) advance(t Time) {
	e.now = t
	e.dispatched++
	if e.obsDispatched != nil {
		e.obsDispatched.Add(1)
		e.obsHeap.Set(float64(len(e.events)))
		if e.dispatched%heapSampleInterval == 0 {
			e.TraceCounter("sim", "sched", "event_heap", float64(len(e.events)))
		}
	}
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event was executed. The earliest
// event is whichever of the poll lane's head and the heap's top orders
// first by (time, seq). The caller may have changed model state since
// the last dispatch, so every poll predicate is re-evaluated.
func (e *Engine) Step() bool {
	e.epoch++
	return e.dispatch()
}

// dispatch executes the single earliest pending event.
func (e *Engine) dispatch() bool {
	if e.laneFirst() {
		s := e.lane.pop()
		e.advance(s.at)
		e.sample(s.p)
		return true
	}
	if len(e.events) == 0 {
		return false
	}
	ev := e.heapPop()
	e.advance(ev.at)
	if ev.poll {
		p := ev.proc
		e.recycle(ev)
		e.sample(p)
		return true
	}
	e.epoch++
	switch {
	case ev.fn != nil:
		fn := ev.fn
		e.recycle(ev)
		fn()
	case ev.proc != nil:
		p := ev.proc
		e.recycle(ev)
		e.schedule(p)
	case ev.waiter != nil:
		w := ev.waiter
		e.recycle(ev)
		w.c.expire(w)
	default:
		// Canceled events were dropped above, so an empty event is a
		// scheduler bug.
		panic("sim: empty event dispatched")
	}
	return true
}

// maxSkipRounds bounds the lane rotations one skipKnownFalse performs, so
// its arithmetic cannot overflow when nothing else is pending.
const maxSkipRounds = 1 << 20

// knownFalse reports whether the lane sample s would find its predicate
// false without calling it: the poller is alive and not killed, its
// predicate read false at the current epoch, and s is due before the
// poller's deadline.
//
// The epoch counts the dispatches that may have changed model state:
// every heap event but a poll sample, every sample that resumes its
// process, and every entry from outside (Run, RunUntil, Step), since the
// caller may have written model state between them. A false sample
// changes nothing, and a predicate is a pure function of model state
// (see PollEvery), so a predicate that read false at the current epoch
// still reads false.
func (e *Engine) knownFalse(s *laneSample) bool {
	p := s.p
	return p.live && !p.killed && p.pollEpoch == e.epoch && s.at < p.pollDeadline
}

// skipKnownFalse dispatches, in one O(lane length) step, every sample
// that would be dispatched next and is known false, up to the heap's top
// and the horizon. Each such dispatch only re-posts the sample at the
// lane's tail, so K of them rotate the lane by K: entry i of n fires at
// a_i, a_i+interval, ... and its last re-post carries the sequence
// number of that dispatch. The skip stops at the first entry that is not
// known false, at the horizon, and at the heap's top; a re-posted sample
// that ties the top in time loses to it, because its seq is newer. The
// clock, the sequence counter and the dispatch counters advance exactly
// as K single dispatches would advance them.
func (e *Engine) skipKnownFalse(horizon Time) {
	if !e.laneFirst() {
		return
	}
	l := &e.lane
	n, mask, interval := l.n, len(l.buf)-1, l.interval
	var top *Event
	limit := horizon // the last time a re-posted sample may fire
	if len(e.events) > 0 {
		top = e.events[0]
		limit = min(limit, top.at-1)
	}
	// The first n dispatches are the resident entries in lane order:
	// every re-post lands at or after the last of them, with a newer seq.
	k := 0
	for ; k < n; k++ {
		s := &l.buf[(l.first+k)&mask]
		if s.at > horizon || (top != nil && !s.before(top)) || !e.knownFalse(s) {
			break
		}
	}
	if k == 0 {
		return
	}
	skip := k
	if k == n && interval > 0 {
		// Then whole rounds: in round r entry i fires at a_i + r*interval,
		// and it stays known false as long as that is within its limit.
		// The first entry to run out stops the skip.
		rounds, stop := maxSkipRounds, 0
		for i := 0; i < n; i++ {
			s := &l.buf[(l.first+i)&mask]
			span := min(limit, s.p.pollDeadline-1) - s.at
			r := 0
			if span >= interval {
				r = int(min(span/interval, maxSkipRounds))
			}
			if r < rounds {
				rounds, stop = r, i
			}
		}
		skip = n*(1+rounds) + stop
	}

	// Dispatch d of the skip (0-based) is entry d%n in round d/n.
	at := func(d int) Time {
		return l.buf[(l.first+d%n)&mask].at + Time(d/n)*interval
	}
	e.now = at(skip - 1)
	if e.obsDispatched != nil {
		e.obsDispatched.Add(int64(skip))
		e.obsHeap.Set(float64(len(e.events)))
		if e.collector.Enabled() {
			for d := e.dispatched + heapSampleInterval - e.dispatched%heapSampleInterval; d <= e.dispatched+uint64(skip); d += heapSampleInterval {
				e.collector.Emit(trace.Event{T: int64(at(int(d - e.dispatched - 1))), Ph: trace.PhaseCounter,
					Component: "sim", Category: "sched", Name: "event_heap", Value: float64(len(e.events))})
			}
		}
	}

	// Entry i was dispatched m_i = skip/n (+1 if i < skip%n) times. The
	// rotated lane starts at entry skip%n.
	full, part := skip/n, skip%n
	rot := e.skipScratch[:0]
	for j := 0; j < n; j++ {
		i := (part + j) % n
		s := l.buf[(l.first+i)&mask]
		m := full
		if i < part {
			m++
		}
		if m > 0 {
			s.at += Time(m) * interval
			s.seq = e.seq + uint64((m-1)*n+i)
		}
		rot = append(rot, s)
	}
	for j, s := range rot {
		l.buf[(l.first+j)&mask] = s
	}
	e.skipScratch = rot[:0]
	e.seq += uint64(skip)
	e.dispatched += uint64(skip)
	e.pollSamples += uint64(skip)
	e.pollSkipped += uint64(skip)
}

// Run executes events until none remain or Stop is called. It returns an
// error if live processes remain parked with no pending events — a
// deadlock in the model.
func (e *Engine) Run() error {
	e.stopped = false
	e.epoch++
	for !e.stopped {
		e.skipKnownFalse(Never)
		if !e.dispatch() {
			break
		}
	}
	return e.checkStall()
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
// It returns a deadlock error under the same conditions as Run if the event
// queue drains early. If Stop fires inside an event, the clock stays at the
// stopping event's time — it does NOT advance to t, so a Stop-at-threshold
// model observes the time it stopped at.
func (e *Engine) RunUntil(t Time) error {
	e.stopped = false
	e.epoch++
	for !e.stopped {
		e.skipKnownFalse(t)
		at, ok := e.nextAt()
		if !ok {
			if err := e.checkStall(); err != nil {
				return err
			}
			break
		}
		if at > t {
			break
		}
		e.dispatch()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
	return nil
}

func (e *Engine) checkStall() error {
	if e.Pending() > 0 {
		return nil
	}
	var parked []string
	for p := range e.procs {
		if p.parkedAt != "" && !p.daemon {
			parked = append(parked, p.name+" ("+p.parkedAt+")")
		}
	}
	if len(parked) == 0 {
		return nil
	}
	sort.Strings(parked)
	err := fmt.Errorf("sim: deadlock at %v: %d process(es) parked forever: %v",
		e.now, len(parked), parked)
	for _, wrap := range e.deadlockWraps {
		err = wrap(err)
	}
	return err
}

// AddDeadlockWrapper registers a hook that may annotate the deadlock error
// checkStall reports. Each wrapper receives the error as built so far (the
// engine's generic report, possibly already wrapped by earlier hooks) and
// returns either the same error — when it has nothing to add — or a typed
// error wrapping it. Wrappers run only when the simulation has actually
// wedged, never on a healthy run, so registering one is free.
func (e *Engine) AddDeadlockWrapper(wrap func(error) error) {
	e.deadlockWraps = append(e.deadlockWraps, wrap)
}

// Pending reports the number of scheduled (non-canceled) events, poll
// lane samples included. It is O(1): the engine tracks in-heap
// cancellations as they happen, and lane samples are never canceled.
func (e *Engine) Pending() int {
	return len(e.events) - e.canceledInHeap + e.lane.n
}

// Parked returns a description of every live process currently parked,
// with its blocking site. Useful for diagnosing model-level hangs.
func (e *Engine) Parked() []string {
	var out []string
	for p := range e.procs {
		if p.parkedAt != "" {
			out = append(out, p.name+" ("+p.parkedAt+")")
		}
	}
	sort.Strings(out)
	return out
}
