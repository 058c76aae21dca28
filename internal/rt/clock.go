package rt

import (
	"sync"
	"time"
)

// Clock abstracts the dispatcher's time source so tests can drive
// releases and deadline checks deterministically instead of sleeping.
// The zero Config uses the wall clock.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// NewTimer returns a Timer that fires d from now.
	NewTimer(d time.Duration) Timer
}

// Timer is the subset of time.Timer the release loop needs. Reset may
// be called on an expired or stopped timer without draining first —
// implementations absorb the stop/drain dance — but only from the one
// goroutine that receives from C. Reset takes an absolute instant, and
// one not after the clock's current time fires immediately, which is what
// makes a fake clock race-free: if the clock is advanced past a deadline
// before the timer is (re)armed, the arm itself delivers the tick. (A
// relative duration would be computed from a reading the clock may
// already have left behind, arming the timer late.)
type Timer interface {
	// C is the channel the timer fires on.
	C() <-chan time.Time
	// Reset re-arms the timer to fire at the given instant, superseding
	// any earlier arming and discarding an undelivered fire.
	Reset(at time.Time)
	// Stop disarms the timer.
	Stop()
}

// WallClock returns the production Clock: real time. Packages that
// take an injectable Clock (the rt dispatcher, the online learning
// loop) default to it.
func WallClock() Clock { return wallClock{} }

// wallClock is the production Clock: real time.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) NewTimer(d time.Duration) Timer {
	return &wallTimer{t: time.NewTimer(d)}
}

// wallTimer wraps time.Timer with the drain-on-Reset contract.
type wallTimer struct{ t *time.Timer }

func (w *wallTimer) C() <-chan time.Time { return w.t.C }

func (w *wallTimer) Reset(at time.Time) {
	if !w.t.Stop() {
		select {
		case <-w.t.C:
		default:
		}
	}
	w.t.Reset(time.Until(at))
}

func (w *wallTimer) Stop() { w.t.Stop() }

// FakeClock is a manually advanced Clock for tests: time moves only
// when Advance is called, and due timers fire synchronously inside it.
// Advancing past a timer that has not been armed yet is safe — the
// subsequent Reset names an instant already reached and fires
// immediately.
// Safe for concurrent use; a job's Run callback may advance the clock
// to model execution time.
type FakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

// NewFakeClock returns a FakeClock reading start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now returns the fake time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// NewTimer arms a fake timer d from the current fake time.
func (c *FakeClock) NewTimer(d time.Duration) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{clock: c, ch: make(chan time.Time, 1), when: c.now.Add(d), active: true}
	if d <= 0 {
		t.fireLocked(c.now)
	}
	c.timers = append(c.timers, t)
	return t
}

// Advance moves the fake time forward by d and fires every armed timer
// whose deadline has been reached.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	for _, t := range c.timers {
		if t.active && !t.when.After(c.now) {
			t.fireLocked(c.now)
		}
	}
}

// fakeTimer is one armed (or spent) FakeClock timer.
type fakeTimer struct {
	clock  *FakeClock
	ch     chan time.Time
	when   time.Time
	active bool
}

func (t *fakeTimer) C() <-chan time.Time { return t.ch }

func (t *fakeTimer) Reset(at time.Time) {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	select { // discard an undelivered fire from the previous arming
	case <-t.ch:
	default:
	}
	t.when = at
	t.active = true
	if !at.After(t.clock.now) {
		t.fireLocked(t.clock.now)
	}
}

func (t *fakeTimer) Stop() {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	t.active = false
}

// fireLocked delivers one tick without blocking; callers hold clock.mu.
func (t *fakeTimer) fireLocked(now time.Time) {
	t.active = false
	select {
	case t.ch <- now:
	default:
	}
}
