// Package sim provides the discrete-event simulation substrate used by the
// Anception reproduction: a virtual clock, a calibrated latency model, a
// deterministic random source, and an event trace.
//
// Every other package charges costs against a Clock instead of sleeping or
// reading wall time, so experiments are exactly reproducible and the
// latency figures reported by the benchmark harness are properties of the
// model, not of the machine running the simulation.
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is a virtual clock measured in nanoseconds of simulated time.
// The zero value is a clock at t=0, ready to use.
type Clock struct {
	mu  sync.Mutex
	now time.Duration
	// laned is the total ever charged to any Lane on this clock.
	laned time.Duration
}

// NewClock returns a clock starting at t=0.
func NewClock() *Clock { return &Clock{} }

// Now returns the current simulated time since boot.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves simulated time forward by d and returns the new time.
// Negative durations are ignored: time never runs backwards.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	return c.now
}

// Lane is one task's own timeline on a shared Clock: the sim time
// charged on that task's behalf. Every charge still advances the one
// device clock, so lanes change no reported figure; they only let a
// caller tell its own charges from the ones concurrent tasks made while
// its call was in flight (see Span). The zero value is an empty lane.
type Lane struct {
	charged atomic.Int64
}

// Charge advances the clock by d on behalf of lane l and returns the new
// time. A nil lane is an unattributed charge, exactly like Advance.
func (c *Clock) Charge(l *Lane, d time.Duration) time.Duration {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	if l != nil {
		c.laned += d
		l.charged.Add(int64(d))
	}
	return c.now
}

// Span measures one call's own sim time on a shared clock: the clock's
// advance since the span began, less what other lanes were charged in
// that window. Charges to the span's own lane and unattributed charges
// count; another task's work that happened to run concurrently does not.
// Whether a call meets its deadline therefore does not depend on how the
// host scheduled the goroutines of unrelated tasks.
type Span struct {
	clock            *Clock
	lane             *Lane
	now, laned, mine time.Duration
}

// StartSpan begins measuring the own time of a call made on lane l (nil
// for a caller with no lane, whose own time is then every unattributed
// charge).
func (c *Clock) StartSpan(l *Lane) Span {
	s := Span{clock: c, lane: l}
	s.now, s.laned, s.mine = c.read(l)
	return s
}

// Elapsed reports the span's own sim time so far.
func (s Span) Elapsed() time.Duration {
	now, laned, mine := s.clock.read(s.lane)
	return (now - s.now) - (laned - s.laned) + (mine - s.mine)
}

// read snapshots the clock, its lane total and l's own charges together.
func (c *Clock) read(l *Lane) (now, laned, mine time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l != nil {
		mine = time.Duration(l.charged.Load())
	}
	return c.now, c.laned, mine
}

// Stopwatch measures a span of simulated time on a clock.
type Stopwatch struct {
	clock *Clock
	start time.Duration
}

// StartStopwatch begins measuring simulated time on c.
func StartStopwatch(c *Clock) Stopwatch {
	return Stopwatch{clock: c, start: c.Now()}
}

// Elapsed reports the simulated time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration {
	return s.clock.Now() - s.start
}

// Microseconds formats a duration as fractional microseconds, the unit the
// paper's Table I uses.
func Microseconds(d time.Duration) string {
	return fmt.Sprintf("%.2f us", float64(d)/float64(time.Microsecond))
}
