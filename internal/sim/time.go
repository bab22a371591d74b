// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock by executing scheduled events in
// timestamp order. Model code can be written either as plain event
// callbacks or as coroutine processes (Proc) that block on virtual time,
// conditions, resources, and queues. At most one of them runs at a time,
// and ties in the event heap are broken by scheduling order, so every
// run of the same model is bit-for-bit reproducible.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, measured in nanoseconds since the start
// of the simulation. Durations are also expressed as Time.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Never is the latest representable time: a deadline that never passes.
const Never Time = math.MaxInt64

// Micros converts a duration in microseconds (possibly fractional, e.g. the
// paper's 0.422 us MMIO read) to a Time.
func Micros(us float64) Time {
	return Time(us * float64(Microsecond))
}

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 {
	return float64(t) / float64(Microsecond)
}

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 {
	return float64(t) / float64(Second)
}

// String formats the time with microsecond resolution.
func (t Time) String() string {
	return fmt.Sprintf("%.3fus", t.Micros())
}
