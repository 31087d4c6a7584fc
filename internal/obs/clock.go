package obs

import (
	"sort"
	"sync"
	"time"
)

// Clock abstracts monotonic time for components whose externally visible
// behaviour depends on timing — the serving engine's request deadlines and
// maintenance period, the chaos engine's schedule — so tests can drive that
// behaviour deterministically instead of sleeping and hoping. Times are int64 nanoseconds since an arbitrary
// epoch, matching the journal clock convention.
type Clock interface {
	// Now returns the current time in nanoseconds. It is non-decreasing.
	Now() int64
	// After returns a channel that receives exactly one value once the
	// clock reaches Now()+d. Each call arms an independent timer; a
	// non-positive d fires immediately.
	After(d int64) <-chan struct{}
}

// wallStart anchors the process's monotonic wall clock: using time.Since
// keeps the monotonic reading (UnixNano would not survive a wall-clock
// step).
var wallStart = time.Now()

// WallClock returns the real-time Clock: Now measures monotonic
// nanoseconds since process start and After is backed by time.AfterFunc.
func WallClock() Clock { return wallClock{} }

type wallClock struct{}

// Now returns monotonic nanoseconds since process start.
func (wallClock) Now() int64 { return time.Since(wallStart).Nanoseconds() }

// After arms a real timer for d nanoseconds.
func (wallClock) After(d int64) <-chan struct{} {
	ch := make(chan struct{}, 1)
	if d <= 0 {
		ch <- struct{}{}
		return ch
	}
	time.AfterFunc(time.Duration(d), func() { ch <- struct{}{} })
	return ch
}

// FakeClock is a deterministic Clock for tests: time only moves when
// Advance is called, and timers armed with After fire inside the Advance
// call that reaches their expiry. All methods are safe for concurrent use.
type FakeClock struct {
	mu     sync.Mutex
	cond   *sync.Cond
	now    int64
	timers []fakeTimer
}

type fakeTimer struct {
	at int64
	ch chan struct{}
}

// NewFakeClock returns a FakeClock reading start.
func NewFakeClock(start int64) *FakeClock {
	c := &FakeClock{now: start}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Now returns the fake time.
func (c *FakeClock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After arms a timer expiring d nanoseconds from the current fake time.
func (c *FakeClock) After(d int64) <-chan struct{} {
	ch := make(chan struct{}, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if d <= 0 {
		ch <- struct{}{}
		return ch
	}
	c.timers = append(c.timers, fakeTimer{at: c.now + d, ch: ch})
	c.cond.Broadcast()
	return ch
}

// Advance moves the clock forward by d nanoseconds and fires every armed
// timer whose expiry is reached, in expiry order.
func (c *FakeClock) Advance(d int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	sort.SliceStable(c.timers, func(a, b int) bool { return c.timers[a].at < c.timers[b].at })
	keep := c.timers[:0]
	for _, tm := range c.timers {
		if tm.at <= c.now {
			tm.ch <- struct{}{} // buffered; never blocks
		} else {
			keep = append(keep, tm)
		}
	}
	c.timers = keep
}

// AwaitTimers blocks until at least n timers are armed. It is the
// synchronization point that makes fake-clock tests race-free: a test must
// only Advance after the goroutine under test has armed its timer, or the
// Advance lands before the arm and the timer never fires.
func (c *FakeClock) AwaitTimers(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.timers) < n {
		c.cond.Wait()
	}
}
