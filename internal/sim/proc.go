//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a simulation process run as a coroutine. A process runs model
// code sequentially in virtual time, blocking on Sleep, conditions,
// resources and queues. The engine guarantees at most one process (or
// event callback) executes at any real-time instant, so model state needs
// no locking.
//
// All Proc methods must be called from the process's own body.
type Proc struct {
	eng      *Engine
	name     string
	w        *worker // bound at spawn, released when the body returns
	parkedAt string  // human-readable blocking site, "" while runnable
	killed   bool
	daemon   bool
	live     bool // spawned and not yet finished

	// The spin the process is parked in by PollEvery: its predicate and
	// sample interval. A process polls at most one thing at a time.
	pollCheck    func() bool
	pollInterval Time
}

// worker is a reusable coroutine that runs process bodies. It is one
// iter.Pull over loop: the engine resumes it with next, and the body hands
// the CPU back with yield — false when it parks, true when it returns.
// The switch is runtime.coroswitch, a direct stack switch that bypasses
// the Go scheduler. When a process finishes, its worker parks on the
// engine's free list and the next Go reuses it, so process churn does not
// pay coroutine creation.
type worker struct {
	next  func() (bool, bool)
	yield func(bool) bool
	p     *Proc
	fn    func(*Proc)
}

// SetDaemon marks the process as a background service (an LCP, a daemon,
// a responder loop). Daemon processes parked forever do not count as a
// deadlock: a simulation whose only remaining activity is idle services
// terminates normally.
func (p *Proc) SetDaemon(on bool) { p.daemon = on }

// procKilled is the panic value used to unwind a killed process.
type procKilled struct{ p *Proc }

// Go spawns a process named name running fn. The process starts at the
// current virtual time, after already-scheduled same-time events.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, live: true}
	e.procs[p] = struct{}{}
	e.postFn(0, func() { e.startProc(p, fn) })
	return p
}

// startProc binds a worker to p and hands it the CPU for the first time.
func (e *Engine) startProc(p *Proc, fn func(p *Proc)) {
	var w *worker
	if n := len(e.freeWorkers); n > 0 {
		w = e.freeWorkers[n-1]
		e.freeWorkers[n-1] = nil
		e.freeWorkers = e.freeWorkers[:n-1]
	} else {
		w = &worker{}
		w.next, _ = iter.Pull(w.loop)
	}
	w.p = p
	w.fn = fn
	p.w = w
	e.schedule(p)
}

// loop runs process bodies forever. It starts on the first schedule;
// each iteration is one full process lifetime: run the body (absorbing
// the kill unwind), then report completion and wait on the free list for
// the next spawn to rebind it.
func (w *worker) loop(yield func(bool) bool) {
	w.yield = yield
	for {
		w.run()
		if !yield(true) {
			return
		}
	}
}

// ProcPanic is the value a process body's panic surfaces as: iter.Pull
// re-raises it from the engine's Step, so the stack trace there no longer
// shows the model code. Stack is the body's own stack at the panic.
type ProcPanic struct {
	Proc  string // the panicking process's name
	Value any    // the body's original panic value
	Stack []byte // debug.Stack() taken in the body
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n\n%s", pp.Proc, pp.Value, pp.Stack)
}

// run executes the current process body, catching the kill panic for this
// process only. Deferred functions in the body run on the unwind. Any
// other panic is re-raised as a *ProcPanic carrying the body's stack.
func (w *worker) run() {
	p := w.p
	defer func() {
		if r := recover(); r != nil {
			if pk, ok := r.(procKilled); ok && pk.p == p {
				return
			}
			panic(&ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()})
		}
	}()
	w.fn(p)
}

// schedule hands the CPU to p and waits until it parks or finishes.
// Called only from the engine goroutine (inside an event callback), so
// next is never called concurrently, as iter.Pull requires. Scheduling a
// finished process is a harmless no-op, so stale wakeups (e.g. a
// condition broadcast racing a Kill) are safe.
func (e *Engine) schedule(p *Proc) {
	if !p.live {
		return
	}
	p.parkedAt = ""
	e.switches++
	w := p.w
	if done, _ := w.next(); done {
		p.live = false
		delete(e.procs, p)
		w.p = nil
		w.fn = nil
		e.freeWorkers = append(e.freeWorkers, w)
	}
}

// park blocks the process until another event calls e.schedule(p).
func (p *Proc) park(where string) {
	p.parkedAt = where
	p.w.yield(false)
	if p.killed {
		panic(procKilled{p})
	}
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Sleep suspends the process for duration d of virtual time.
func (p *Proc) Sleep(d Time) {
	p.eng.postWake(d, p)
	p.park("sleep")
}

// Yield reschedules the process at the current time, letting other
// same-time events run first.
func (p *Proc) Yield() { p.Sleep(0) }

// PollEvery parks the process and re-evaluates check every interval of
// virtual time, returning once it reports true. The virtual-time behavior
// is identical to `for !check() { p.Sleep(interval) }` — one event per
// sample, the process resumes at the first sample where the predicate
// holds — but false samples run on the engine goroutine, so each costs a
// predicate call instead of a park/resume coroutine switch. That
// makes it the right shape for spin loops (polling a completion word at
// cache speed), where almost every sample is false. Samples ride the
// engine's poll lane (see pollLane), so posting and dispatching one is
// O(1) rather than a heap operation.
//
// check must be a pure inspection of model state: it runs outside the
// process context and must not call Proc methods or block.
func (p *Proc) PollEvery(interval Time, check func() bool) {
	if check() {
		return
	}
	p.pollCheck = check
	p.pollInterval = interval
	p.eng.postSample(p)
	p.park("poll")
}

// sample is one PollEvery sample for p: resume p if its predicate holds
// (or it was killed), otherwise post the next sample.
func (e *Engine) sample(p *Proc) {
	if !p.live {
		return // killed and unwound while a sample was pending
	}
	if p.killed || p.pollCheck() {
		e.schedule(p)
		return
	}
	e.postSample(p)
}

// Kill terminates the process the next time it would resume from a park.
// A killed process unwinds via panic/recover; deferred functions run.
// Kill must be called from outside the target process (an event callback
// or another process) while the target is parked or runnable; killing a
// finished process is a no-op.
func (p *Proc) Kill() {
	p.killed = true
	p.eng.postWake(0, p)
}

// Tracef emits an engine trace line tagged with the process name.
func (p *Proc) Tracef(format string, args ...any) {
	p.eng.Tracef("["+p.name+"] "+format, args...)
}
