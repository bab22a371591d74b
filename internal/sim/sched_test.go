package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestCancelChurnBoundedHeap pins the canceled-event compaction: a
// retransmit-timer-style workload that schedules a distant timeout and
// cancels it every iteration must not accumulate dead entries. Before
// lazy compaction, every canceled event stayed resident until its
// (never-reached) deadline popped, growing the heap without bound.
func TestCancelChurnBoundedHeap(t *testing.T) {
	e := NewEngine()
	const iters = 20000
	n := 0
	var tick func()
	tick = func() {
		// A long timer that is always canceled before it fires — the
		// ack arriving before the retransmit deadline.
		timer := e.After(Second, func() { t.Error("canceled timer fired") })
		timer.Cancel()
		if n++; n < iters {
			e.After(Microsecond, tick)
		}
	}
	e.After(0, tick)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.SchedStats()
	if st.PeakHeapLen > 4*compactMinCanceled {
		t.Errorf("peak heap %d under cancel churn, want <= %d (compaction broken)",
			st.PeakHeapLen, 4*compactMinCanceled)
	}
	if st.Compactions == 0 {
		t.Error("no compactions ran under cancel-heavy load")
	}
	if st.HeapCanceled != 0 || st.HeapLen != 0 {
		t.Errorf("drained engine still holds %d events (%d canceled)",
			st.HeapLen, st.HeapCanceled)
	}
}

// TestWaitTimeoutChurnBoundedHeap is the same guarantee one layer up:
// WaitTimeout that is always signaled first (PR 2's retransmit pattern)
// must keep the event heap bounded.
func TestWaitTimeoutChurnBoundedHeap(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	const iters = 10000
	e.Go("waiter", func(p *Proc) {
		for i := 0; i < iters; i++ {
			if !c.WaitTimeout(p, Second) {
				t.Error("timed out despite signal")
				return
			}
		}
	})
	e.Go("signaler", func(p *Proc) {
		for i := 0; i < iters; i++ {
			p.Sleep(Microsecond)
			c.Signal()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.SchedStats()
	if st.PeakHeapLen > 4*compactMinCanceled {
		t.Errorf("peak heap %d under WaitTimeout churn, want <= %d",
			st.PeakHeapLen, 4*compactMinCanceled)
	}
}

// TestPendingTracksCancellation pins the O(1) Pending accounting across
// cancel, compact, and pop.
func TestPendingTracksCancellation(t *testing.T) {
	e := NewEngine()
	evs := make([]*Event, 0, 200)
	for i := 0; i < 200; i++ {
		evs = append(evs, e.At(Time(1000+i), func() {}))
	}
	for i := 0; i < 100; i++ {
		evs[2*i].Cancel()
	}
	if got := e.Pending(); got != 100 {
		t.Errorf("Pending after 100/200 cancels = %d, want 100", got)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending after drain = %d, want 0", got)
	}
}

// TestRunUntilStopHoldsClock pins the Stop/RunUntil interplay: a Stop
// fired from inside an event must leave the clock at that event's time,
// not advance it to the horizon.
func TestRunUntilStopHoldsClock(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, func() { ran++; e.Stop() })
	e.At(20, func() { ran++ })
	if err := e.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 10 {
		t.Errorf("Now() after Stop inside RunUntil = %v, want 10", e.Now())
	}
	if ran != 1 {
		t.Errorf("events run before Stop = %d, want 1", ran)
	}
	// The rest of the horizon is still reachable afterwards.
	if err := e.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	if ran != 2 || e.Now() != 1000 {
		t.Errorf("after resume: ran=%d Now()=%v, want 2 and 1000", ran, e.Now())
	}
}

// TestKilledWaiterLeavesNoResidue kills processes parked on a Cond (both
// plain Wait and WaitTimeout) and checks the waiter list and the event
// heap end up empty: the kill unwind must withdraw the waiter record and
// cancel its timeout, or long-lived conditions leak one record per crash.
func TestKilledWaiterLeavesNoResidue(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	v1 := e.Go("v1", func(p *Proc) { c.Wait(p) })
	v2 := e.Go("v2", func(p *Proc) { c.WaitTimeout(p, Second) })
	e.At(10, func() {
		if c.Waiting() != 2 {
			t.Errorf("Waiting() = %d, want 2", c.Waiting())
		}
		v1.Kill()
		v2.Kill()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Waiting() != 0 {
		t.Errorf("killed procs left %d waiter(s) enlisted", c.Waiting())
	}
	st := e.SchedStats()
	if st.HeapLen != 0 {
		t.Errorf("killed WaitTimeout left %d event(s) in the heap", st.HeapLen)
	}
}

// TestKilledWaiterDoesNotSwallowSignal re-pins the PR 2 semantics on the
// linked-list waiter path: a signal racing a kill must skip the dying
// waiter and wake a live one.
func TestKilledWaiterDoesNotSwallowSignal(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	victim := e.Go("victim", func(p *Proc) { c.Wait(p) })
	woken := false
	e.Go("live", func(p *Proc) {
		p.Sleep(1)
		c.Wait(p)
		woken = true
	})
	e.At(10, func() {
		victim.Kill()
		c.Signal() // victim is dying: the signal must reach "live"
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !woken {
		t.Error("signal was swallowed by the killed waiter")
	}
}

// TestWorkerReuse checks that sequential process lifetimes share
// coroutines: after many short-lived processes, the engine holds a small
// worker pool rather than having spawned one coroutine each.
func TestWorkerReuse(t *testing.T) {
	e := NewEngine()
	const procs = 500
	done := 0
	var next func(i int)
	next = func(i int) {
		e.Go("p", func(p *Proc) {
			p.Sleep(1)
			done++
			if i+1 < procs {
				next(i + 1)
			}
		})
	}
	next(0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != procs {
		t.Fatalf("ran %d procs, want %d", done, procs)
	}
	if st := e.SchedStats(); st.FreeWorkers > 4 {
		t.Errorf("sequential lifetimes grew the worker pool to %d, want <= 4 (reuse broken)",
			st.FreeWorkers)
	}
}

// TestSwitchesCount pins SchedStats.Switches on a script with a known
// number of handoffs: one per process start and one per resume from a
// park. False PollEvery samples and wakeups of finished processes run on
// the engine and are not switches.
func TestSwitchesCount(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	flag := false
	// Expected switches per process: a start, then one per resume.
	sleeper := e.Go("sleeper", func(p *Proc) { // start + 2 wakes = 3
		p.Sleep(10)
		p.Sleep(10)
	})
	e.Go("waiter", func(p *Proc) { // start + signal = 2
		c.Wait(p)
	})
	e.Go("timeout", func(p *Proc) { // start + expiry = 2
		NewCond(e).WaitTimeout(p, 5)
	})
	victim := e.Go("victim", func(p *Proc) { // start + kill unwind = 2
		NewCond(e).Wait(p)
	})
	e.Go("poller", func(p *Proc) { // start + the one true sample = 2
		p.PollEvery(1, func() bool { return flag })
	})
	e.At(15, func() { c.Signal(); flag = true })
	e.At(20, func() { victim.Kill() })
	e.At(30, func() { sleeper.Kill() }) // finished: a stale wakeup
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.SchedStats().Switches; got != 11 {
		t.Errorf("Switches = %d, want 11", got)
	}
}

// panicInModel stands in for a model bug inside a process body.
func panicInModel() {
	var m map[string]int
	m["x"] = 1
}

// TestProcPanicKeepsStack: a body's panic reaches Run's caller as a
// *ProcPanic naming the process and carrying the body's own stack, so
// the trace shows the model frame that failed, not just the engine's.
func TestProcPanicKeepsStack(t *testing.T) {
	e := NewEngine()
	e.Go("faulty", func(p *Proc) {
		p.Sleep(1)
		panicInModel()
	})
	defer func() {
		r := recover()
		pp, ok := r.(*ProcPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want *ProcPanic", r, r)
		}
		if pp.Proc != "faulty" || !strings.Contains(pp.Error(), `"faulty"`) {
			t.Errorf("panic names process %q (%q), want \"faulty\"", pp.Proc, pp.Error())
		}
		if _, ok := pp.Value.(runtime.Error); !ok {
			t.Errorf("panic value %v, want the body's runtime error", pp.Value)
		}
		if !strings.Contains(string(pp.Stack), "sim.panicInModel") {
			t.Errorf("panic stack lacks the model frame:\n%s", pp.Stack)
		}
	}()
	e.Run()
	t.Fatal("Run returned after a process body panicked")
}

// TestSameNameKillTargetsOnlyVictim: two processes sharing a name, one
// killed — the unwind must be matched by process identity, not name.
func TestSameNameKillTargetsOnlyVictim(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	survived := false
	e.Go("twin", func(p *Proc) {
		c.Wait(p)
		survived = true
	})
	victim := e.Go("twin", func(p *Proc) { c.Wait(p) })
	e.At(10, func() { victim.Kill() })
	e.At(20, func() { c.Broadcast() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !survived {
		t.Error("kill of one 'twin' unwound the other")
	}
}

// TestEventPoolDoesNotCrossContaminate drives the pooled wake path and a
// late public-event Cancel together: canceling a public event after it
// fired must stay a no-op even while the pool recycles internal events
// underneath.
func TestEventPoolDoesNotCrossContaminate(t *testing.T) {
	e := NewEngine()
	fired := 0
	pub := e.At(5, func() { fired++ })
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	pub.Cancel() // late cancel: must not touch recycled pool events
	if fired != 1 {
		t.Errorf("public event fired %d times, want 1", fired)
	}
	if !pub.Canceled() {
		t.Error("Canceled() lost the late-cancel mark")
	}
	// The engine must still run cleanly after the late cancel.
	e.At(e.Now()+10, func() { fired++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("post-cancel event fired %d times, want 2", fired)
	}
}

// TestObserveScheduler checks the opt-in metrics registration: heap
// occupancy and dispatch counters appear in the registry only after
// ObserveScheduler, so existing experiments' artifacts are unchanged.
func TestObserveScheduler(t *testing.T) {
	plain := NewEngine()
	plain.At(1, func() {})
	if err := plain.Run(); err != nil {
		t.Fatal(err)
	}
	for _, c := range plain.MetricsSnapshot().Counters {
		if strings.HasPrefix(c.Name, "sim/") {
			t.Errorf("unobserved engine registered %q", c.Name)
		}
	}

	e := NewEngine()
	e.ObserveScheduler()
	for i := 0; i < 10; i++ {
		e.At(Time(i), func() {})
	}
	ev := e.At(100, func() {})
	ev.Cancel()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	snap := e.MetricsSnapshot()
	if v, ok := snap.Counter("sim/events_dispatched"); !ok || v != 10 {
		t.Errorf("sim/events_dispatched = %d,%v, want 10,true", v, ok)
	}
	g, ok := snap.Gauge("sim/event_heap_len")
	if !ok || g.High < 10 {
		t.Errorf("sim/event_heap_len high = %v,%v, want >= 10", g.High, ok)
	}
}

// TestHeapOrderAfterCompaction floods the heap, cancels a majority in
// scattered positions to force compactions, and checks the survivors
// still fire in exact (time, seq) order.
func TestHeapOrderAfterCompaction(t *testing.T) {
	e := NewEngine()
	var got []int
	const n = 1000
	events := make([]*Event, n)
	for i := 0; i < n; i++ {
		i := i
		// Deliberately non-monotone times: t = (i*7919) mod n.
		at := Time((i * 7919) % n)
		events[i] = e.At(at, func() { got = append(got, i) })
	}
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			events[i].Cancel()
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.SchedStats().Compactions == 0 {
		t.Fatal("test did not force a compaction")
	}
	var lastAt Time = -1
	var lastSeq = -1
	for _, i := range got {
		at := Time((i * 7919) % n)
		if at < lastAt || (at == lastAt && i < lastSeq) {
			t.Fatalf("events fired out of order after compaction: %v then %v", lastSeq, i)
		}
		lastAt, lastSeq = at, i
	}
	if want := (n + 2) / 3; len(got) != want {
		t.Fatalf("%d events fired, want %d", len(got), want)
	}
}

// pollScenario is one seeded run of many spinning processes: every
// poller waits on a sequence of flags, each set by a callback that lands
// exactly on one of the poller's sample ticks. Half the setters are
// scheduled up front (so they precede that tick's sample in seq order and
// the sample sees the flag), half are posted just after the sample was
// (so the sample misses the flag and the poller resumes a tick later).
// On top of that:
//   - three pollers run in lockstep (equal start, interval and waits, so
//     their ticks tie) through two waits of thousands of ticks, long
//     enough that the run crosses the scheduler's event_heap trace
//     sampling several times;
//   - one poller waits with deadlines, on and between its ticks;
//   - one poller, each time it resumes, sets poller 0's current flag
//     from process context;
//   - one poller uses a second interval, and one is killed mid-poll;
//   - the run stops at seeded RunUntil horizons, and at each one a
//     write from outside the engine sets the flag of one of the first
//     nine pollers, if it is waiting.
type pollScenario struct {
	pollers  []pollerSpec
	killAt   Time   // the last poller is killed at this time, mid-poll
	horizons []Time // ascending RunUntil stops, each followed by an outside write
}

type pollerSpec struct {
	start     Time
	interval  Time
	waits     []Time // per wait: offset of the flag's tick past the start of the wait
	late      []bool // per wait: post the setter after the tick's sample
	deadlines []Time // per wait: give up this long after the start of the wait; nil: never
	relay     bool   // on each resume, set poller 0's current flag
}

const (
	lockstepFirst = 9 // pollers 9-11 run in lockstep
	deadlineIdx   = 12
	relayIdx      = 13
	otherIdx      = 14 // the poller with the second interval
	pollersN      = 16 // the last one is the kill victim
)

func newPollScenario(seed int64) pollScenario {
	r := rand.New(rand.NewSource(seed))
	var sc pollScenario
	lockstepStart := Time(r.Intn(3000))
	lockstepWaits := []Time{Time(2000+r.Intn(1000)) * Microsecond, Time(2000+r.Intn(1000)) * Microsecond}
	for i := 0; i < pollersN; i++ {
		ps := pollerSpec{start: Time(r.Intn(3000)), interval: Microsecond}
		waits := 2 + r.Intn(3)
		switch {
		case i == 0:
			// Poller 0 starts first and waits longest, so the lane is
			// never empty while the others spin.
			ps.start, waits = 0, 8
		case i >= lockstepFirst && i < lockstepFirst+3:
			ps.start, waits = lockstepStart, 0
			ps.waits, ps.late = lockstepWaits, []bool{i%2 == 0, i%2 == 1}
		case i == relayIdx:
			ps.relay = true
		case i == otherIdx:
			ps.interval = 700 * Nanosecond // the lane's interval differs
		}
		for w := 0; w < waits; w++ {
			ps.waits = append(ps.waits, Time(1+r.Intn(6))*ps.interval)
			ps.late = append(ps.late, r.Intn(2) == 1)
			if i == deadlineIdx {
				// On a tick, between ticks, or already passed.
				d := Time(r.Intn(7))*ps.interval - Time(r.Intn(2)*r.Intn(int(ps.interval)))
				ps.deadlines = append(ps.deadlines, max(d, 0))
			}
		}
		if i == pollersN-1 {
			// The victim is still in its first wait when the kill
			// lands, on or between its sample ticks.
			ps.start = 0
			ps.waits[0] = 4 * Microsecond
		}
		sc.pollers = append(sc.pollers, ps)
	}
	sc.killAt = Time(1000 + 500*r.Intn(5))
	for h := 0; h < 8; h++ {
		sc.horizons = append(sc.horizons, Time(r.Intn(int(30*Microsecond))))
	}
	for h := 0; h < 8; h++ {
		sc.horizons = append(sc.horizons, Time(r.Intn(int(2*Millisecond))))
	}
	slices.Sort(sc.horizons)
	return sc
}

// spinFunc waits until check holds or, at a sample at or after deadline,
// gives up; it reports whether check held.
type spinFunc func(p *Proc, interval, deadline Time, check func() bool) bool

// pollRun is what one play of a scenario observed.
type pollRun struct {
	log       []string
	stats     SchedStats
	heapTrack []trace.Event // the scheduler's event_heap counter samples
}

// run plays the scenario with spin as the wait primitive. With stepped
// it drives the engine through the public Step, which re-evaluates every
// predicate; otherwise through RunUntil and Run.
func (sc pollScenario) run(t *testing.T, spin spinFunc, stepped bool) pollRun {
	e := NewEngine()
	e.ObserveScheduler()
	e.Trace().Enable(1 << 12)
	var log []string
	logf := func(at Time, format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", at)+fmt.Sprintf(format, args...))
	}
	flags := make([][]bool, len(sc.pollers))
	cur := make([]int, len(sc.pollers)) // the wait in progress, -1 if none
	set := func(i int, why string) {
		if w := cur[i]; w >= 0 {
			flags[i][w] = true
			logf(e.Now(), "%s set %d.%d", why, i, w)
		}
	}
	var victim *Proc
	for i, ps := range sc.pollers {
		flags[i] = make([]bool, len(ps.waits))
		cur[i] = -1
		victim = e.Go(fmt.Sprintf("poller%d", i), func(p *Proc) {
			defer func() { logf(e.Now(), "poller %d unwound", i) }()
			p.Sleep(ps.start)
			for w := range ps.waits {
				// Sample ticks of this wait are now+k*interval.
				tick := p.Now() + ps.waits[w]
				setter := func() { flags[i][w] = true; logf(e.Now(), "set %d.%d", i, w) }
				if ps.late[w] {
					// Posted one nanosecond after the tick's sample was
					// (the sample is posted at tick-interval), so the
					// setter orders after it.
					e.At(tick-ps.interval+1, func() { e.At(tick, setter) })
				} else {
					e.At(tick, setter)
				}
				deadline := Never
				if ps.deadlines != nil {
					deadline = p.Now() + ps.deadlines[w]
				}
				cur[i] = w
				held := spin(p, ps.interval, deadline, func() bool { return flags[i][w] })
				cur[i] = -1
				logf(e.Now(), "poller %d resumed from wait %d, held %v", i, w, held)
				if ps.relay {
					set(0, "relay")
				}
			}
		})
	}
	e.At(sc.killAt, func() { logf(e.Now(), "kill"); victim.Kill() })
	for k, h := range sc.horizons {
		if stepped {
			for at, ok := e.nextAt(); ok && at <= h; at, ok = e.nextAt() {
				e.Step()
			}
			e.now = max(e.now, h)
		} else if err := e.RunUntil(h); err != nil {
			t.Fatal(err)
		}
		logf(e.Now(), "horizon %d", k)
		set(k%lockstepFirst, "outside")
	}
	if stepped {
		for e.Step() {
		}
	} else if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	run := pollRun{log: log, stats: e.SchedStats()}
	for _, ev := range e.Trace().Events() {
		if ev.Name == "event_heap" {
			run.heapTrack = append(run.heapTrack, ev)
		}
	}
	return run
}

// PollEvery must be observationally identical to a Sleep-loop spin in
// virtual time: same resume ticks, same interleaving with same-tick
// callbacks, same dispatched-event count, and the scheduler's event_heap
// counter sampled at the same instants. Known-false samples the engine
// skips must not show either: the RunUntil/Run-driven run must match a
// run driven by the public Step, which calls every predicate, down to
// the values of the event_heap track (the sleep loop's track differs in
// value only, because its samples are heap events).
func TestPollEveryMatchesSleepLoop(t *testing.T) {
	sleepLoop := func(p *Proc, interval, deadline Time, check func() bool) bool {
		for !check() {
			if p.Now() >= deadline {
				return false
			}
			p.Sleep(interval)
		}
		return true
	}
	pollEvery := func(p *Proc, interval, deadline Time, check func() bool) bool {
		if deadline == Never {
			p.PollEvery(interval, check)
			return true
		}
		return p.PollEveryUntil(interval, deadline, check)
	}
	var skipped uint64
	for seed := int64(1); seed <= 20; seed++ {
		sc := newPollScenario(seed)
		want := sc.run(t, sleepLoop, false)
		stepped := sc.run(t, pollEvery, true)
		got := sc.run(t, pollEvery, false)
		for _, c := range []struct {
			name string
			run  pollRun
		}{{"Step-driven PollEvery", stepped}, {"PollEvery", got}} {
			if strings.Join(c.run.log, "\n") != strings.Join(want.log, "\n") {
				t.Fatalf("seed %d: %s log differs from sleep loop\npoll:\n%s\nsleep:\n%s",
					seed, c.name, strings.Join(c.run.log, "\n"), strings.Join(want.log, "\n"))
			}
			if c.run.stats.Dispatched != want.stats.Dispatched {
				t.Errorf("seed %d: %s dispatched %d events, sleep loop %d",
					seed, c.name, c.run.stats.Dispatched, want.stats.Dispatched)
			}
			if len(c.run.heapTrack) != len(want.heapTrack) {
				t.Fatalf("seed %d: %s has %d event_heap samples, sleep loop %d",
					seed, c.name, len(c.run.heapTrack), len(want.heapTrack))
			}
			for k, ev := range c.run.heapTrack {
				if ev.T != want.heapTrack[k].T {
					t.Errorf("seed %d: %s event_heap sample %d at %d, sleep loop at %d",
						seed, c.name, k, ev.T, want.heapTrack[k].T)
				}
			}
		}
		if len(want.heapTrack) < 2 {
			t.Fatalf("seed %d: only %d event_heap samples; the scenario is too short", seed, len(want.heapTrack))
		}
		if !slices.Equal(got.heapTrack, stepped.heapTrack) {
			t.Errorf("seed %d: event_heap track %v, Step-driven %v", seed, got.heapTrack, stepped.heapTrack)
		}
		if got.stats.PollSamples != stepped.stats.PollSamples || stepped.stats.PollSkipped != 0 {
			t.Errorf("seed %d: %d samples (Step-driven %d, %d skipped there)", seed,
				got.stats.PollSamples, stepped.stats.PollSamples, stepped.stats.PollSkipped)
		}
		skipped += got.stats.PollSkipped
	}
	if skipped == 0 {
		t.Error("no sample was skipped: the scenarios do not exercise known-false skipping")
	}
}

// A poller whose interval differs from the lane's must take a heap event,
// and still resume on its own sample ticks.
func TestPollEveryOtherIntervalUsesHeap(t *testing.T) {
	e := NewEngine()
	var flagA, flagB bool
	var resumedA, resumedB Time
	e.Go("a", func(p *Proc) {
		p.PollEvery(Microsecond, func() bool { return flagA })
		resumedA = p.Now()
	})
	e.Go("b", func(p *Proc) {
		p.PollEvery(700*Nanosecond, func() bool { return flagB })
		resumedB = p.Now()
	})
	if err := e.RunUntil(100 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	if st := e.SchedStats(); st.LaneLen != 1 || st.HeapLen != 1 {
		t.Fatalf("lane %d, heap %d samples; want a's in the lane and b's in the heap",
			st.LaneLen, st.HeapLen)
	}
	e.At(2500*Nanosecond, func() { flagA, flagB = true, true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resumedA != 3*Microsecond || resumedB != 2800*Nanosecond {
		t.Errorf("resumed a at %v, b at %v; want 3us and 2.8us", resumedA, resumedB)
	}
}

// RunUntil must stop between a lane sample and a heap event in either
// order, and a canceled heap event before the horizon must not let it
// run a live event past the horizon.
func TestRunUntilBetweenLaneAndHeap(t *testing.T) {
	e := NewEngine()
	flag := false
	var resumed Time
	e.Go("spinner", func(p *Proc) {
		p.PollEvery(Microsecond, func() bool { return flag })
		resumed = p.Now()
	})
	var fired []Time
	note := func() { fired = append(fired, e.Now()) }
	e.At(1500*Nanosecond, note)
	e.At(1100*Nanosecond, note).Cancel()
	e.At(2500*Nanosecond, func() { flag = true })

	// Lane sample at 1 us runs; the heap event at 1.5 us does not.
	if err := e.RunUntil(1200 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 0 || e.Now() != 1200*Nanosecond || e.Pending() != 3 {
		t.Fatalf("after RunUntil(1.2us): fired %v, now %v, pending %d; want none, 1.2us, 3",
			fired, e.Now(), e.Pending())
	}
	// Heap event at 1.5 us runs; the lane sample at 2 us does not.
	if err := e.RunUntil(1900 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != 1500*Nanosecond || e.Now() != 1900*Nanosecond {
		t.Fatalf("after RunUntil(1.9us): fired %v, now %v; want [1.5us], 1.9us", fired, e.Now())
	}
	// A canceled heap event at 1.95 us, the lane sample at 2 us: the
	// horizon at 1.96 us must hold the sample back.
	e.At(1950*Nanosecond, note).Cancel()
	if err := e.RunUntil(1960 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	if st := e.SchedStats(); e.Now() != 1960*Nanosecond || st.LaneLen != 1 {
		t.Fatalf("after RunUntil(1.96us): now %v, lane %d; want 1.96us, 1", e.Now(), st.LaneLen)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed != 3*Microsecond {
		t.Errorf("spinner resumed at %v, want 3us", resumed)
	}
}

// A process killed while parked in PollEvery must unwind promptly, and the
// orphaned sample chain must stop re-arming (the engine drains and halts).
func TestPollEveryKilledPoller(t *testing.T) {
	e := NewEngine()
	unwound := false
	var victim *Proc
	victim = e.Go("poller", func(p *Proc) {
		defer func() { unwound = true }()
		p.PollEvery(Microsecond, func() bool { return false })
	})
	e.After(5*Microsecond, func() { victim.Kill() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !unwound {
		t.Fatal("killed poller did not unwind")
	}
	if e.Now() > 10*Microsecond {
		t.Errorf("engine ran to %v after the kill: the poll chain kept re-arming", e.Now())
	}
}

// A write from outside the engine between two runs must be seen by the
// next sample whichever entry point resumes the engine: each entry
// re-evaluates every predicate.
func TestPollSeesOutsideWriteOnEveryEntry(t *testing.T) {
	for _, entry := range []string{"Run", "RunUntil", "Step"} {
		e := NewEngine()
		flag := false
		var resumed Time
		e.Go("spinner", func(p *Proc) {
			p.PollEvery(Microsecond, func() bool { return flag })
			resumed = p.Now()
		})
		if err := e.RunUntil(2500 * Nanosecond); err != nil {
			t.Fatal(err)
		}
		flag = true
		switch entry {
		case "Run":
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		case "RunUntil":
			if err := e.RunUntil(10 * Microsecond); err != nil {
				t.Fatal(err)
			}
		case "Step":
			e.Step()
		}
		if resumed != 3*Microsecond {
			t.Errorf("%s: spinner resumed at %v, want 3us", entry, resumed)
		}
	}
}

// A deadline sample must be evaluated even when the skip that reaches it
// starts right at it: here a freshly started poller's first sample stops
// one skip just before the deadline poller's deadline tick, and nothing
// changes model state in between.
func TestPollEveryUntilDeadlineAfterStaleSample(t *testing.T) {
	e := NewEngine()
	var gaveUp Time
	held := true
	e.Go("deadline", func(p *Proc) {
		held = p.PollEveryUntil(Microsecond, 5*Microsecond, func() bool { return false })
		gaveUp = p.Now()
	})
	e.Go("late", func(p *Proc) {
		p.Sleep(3900 * Nanosecond)
		p.PollEvery(Microsecond, func() bool { return gaveUp > 0 })
	})
	if err := e.RunUntil(20 * Microsecond); err != nil {
		t.Fatal(err)
	}
	if held || gaveUp != 5*Microsecond {
		t.Errorf("deadline poll returned %v at %v, want false at 5us", held, gaveUp)
	}
}

// TestPollCounters pins SchedStats' poll counters on a small scenario: a
// lane poller (1 us) and a heap poller (700 ns) wait on one flag that a
// callback sets at 5.5 us. Each poller's first sample calls its
// predicate; every later sample before the setter is known false.
func TestPollCounters(t *testing.T) {
	e := NewEngine()
	flag := false
	e.Go("lane", func(p *Proc) { p.PollEvery(Microsecond, func() bool { return flag }) })
	e.Go("heap", func(p *Proc) { p.PollEvery(700*Nanosecond, func() bool { return flag }) })
	e.At(5500*Nanosecond, func() { flag = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Lane samples at 1..6 us: 1 us calls, 2-5 us skip, 6 us calls and
	// resumes. Heap samples at 0.7..5.6 us: 0.7 us calls, 1.4-4.9 us
	// skip, 5.6 us calls and resumes.
	st := e.SchedStats()
	if st.PollSamples != 6+8 || st.PollSkipped != 4+6 {
		t.Errorf("poll samples %d, skipped %d; want 14, 10", st.PollSamples, st.PollSkipped)
	}
	// Two process starts, the setter and every sample.
	if st.Dispatched != 2+1+14 {
		t.Errorf("dispatched %d, want 17", st.Dispatched)
	}
}
