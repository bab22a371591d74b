package sim

import "testing"

// Simulator-engine throughput benchmarks: these measure the harness, not
// the reproduced system (those metrics live in the repo root's
// bench_test.go as sim-* values).

func BenchmarkEventDispatch(b *testing.B) {
	e := NewEngine()
	n := 0
	var schedule func()
	schedule = func() {
		n++
		if n < b.N {
			e.After(1, schedule)
		}
	}
	e.After(1, schedule)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPollEverySample measures one false PollEvery sample with 64
// processes spinning on one interval, as the 64-node all-to-all does.
// The public Step re-evaluates every predicate, so each sample calls its
// predicate (see BenchmarkPollSkip for the known-false path).
func BenchmarkPollEverySample(b *testing.B) {
	e := NewEngine()
	const spinners, interval = 64, 100 * Nanosecond
	done := false
	for i := 0; i < spinners; i++ {
		e.Go("spinner", func(p *Proc) {
			p.PollEvery(interval, func() bool { return done })
		})
	}
	e.At(Time(b.N/spinners+1)*interval, func() { done = true })
	b.ResetTimer()
	for e.Step() {
	}
}

// BenchmarkPollSkip measures one PollEvery sample when almost every
// sample is known false: 64 processes spin on one interval while a
// ticker process wakes every 50 ticks, changing nothing the spinners
// read but forcing every predicate to be re-checked once. One op is one
// ticker period (3200 samples); ns/sample is the cost per dispatched
// sample. The known-false runs between ticker wakeups are dispatched in
// closed form, and nothing allocates.
func BenchmarkPollSkip(b *testing.B) {
	e := NewEngine()
	const spinners, interval, every = 64, 100 * Nanosecond, 50
	done := false
	for i := 0; i < spinners; i++ {
		e.Go("spinner", func(p *Proc) {
			p.PollEvery(interval, func() bool { return done })
		})
	}
	e.Go("ticker", func(p *Proc) {
		for !done {
			p.Sleep(every * interval)
		}
	})
	// Warm up past the first ticker wakeup so lane, free lists and the
	// skip's scratch buffer have reached their steady-state size.
	if err := e.RunUntil(3 * every * interval); err != nil {
		b.Fatal(err)
	}
	start := e.SchedStats().PollSamples
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.RunUntil(e.Now() + every*interval); err != nil {
			b.Fatal(err)
		}
	}
	samples := e.SchedStats().PollSamples - start
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples), "ns/sample")
}

func BenchmarkProcContextSwitch(b *testing.B) {
	e := NewEngine()
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPingPongProcs(b *testing.B) {
	e := NewEngine()
	q1 := NewQueue[int](e, "q1")
	q2 := NewQueue[int](e, "q2")
	e.Go("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q1.Put(i)
			q2.Get(p)
		}
	})
	e.Go("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			v := q1.Get(p)
			q2.Put(v)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchmarkEventDispatchCancel measures dispatch throughput when a
// fraction of scheduled events is canceled before firing — the retransmit
// timer pattern. Canceled events must be compacted away, not dragged
// through every subsequent push and pop.
func benchmarkEventDispatchCancel(b *testing.B, cancelPercent int) {
	e := NewEngine()
	nop := func() {}
	n := 0
	var schedule func()
	schedule = func() {
		// A timer a little in the future, canceled cancelPercent of
		// the time before it can fire.
		timer := e.After(100, nop)
		if n%100 < cancelPercent {
			timer.Cancel()
		}
		if n++; n < b.N {
			e.After(1, schedule)
		}
	}
	e.After(1, schedule)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEventDispatchCancel10(b *testing.B) { benchmarkEventDispatchCancel(b, 10) }
func BenchmarkEventDispatchCancel50(b *testing.B) { benchmarkEventDispatchCancel(b, 50) }

// BenchmarkWaitTimeoutChurn is the hot loop of a reliable sender: park
// with a timeout, get signaled (acked) first, cancel the timer, repeat.
func BenchmarkWaitTimeoutChurn(b *testing.B) {
	e := NewEngine()
	c := NewCond(e)
	e.Go("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if !c.WaitTimeout(p, Second) {
				b.Fail()
				return
			}
		}
	})
	e.Go("signaler", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
			c.Signal()
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWakeStorm broadcasts to 64 parked processes per round — the
// all-to-all barrier pattern of the scalesweep. Cost per op is one full
// park/broadcast/wake cycle for all 64.
func BenchmarkWakeStorm(b *testing.B) {
	const procs = 64
	e := NewEngine()
	c := NewCond(e)
	for i := 0; i < procs; i++ {
		e.Go("w", func(p *Proc) {
			for j := 0; j < b.N; j++ {
				c.Wait(p)
			}
		})
	}
	e.Go("storm", func(p *Proc) {
		for j := 0; j < b.N; j++ {
			for c.Waiting() < procs {
				p.Yield()
			}
			c.Broadcast()
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkResourceHandoff(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, "r")
	for w := 0; w < 4; w++ {
		e.Go("w", func(p *Proc) {
			for i := 0; i < b.N/4; i++ {
				r.Use(p, 1)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
