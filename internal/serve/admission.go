package serve

import (
	"context"
	"errors"
	"sync/atomic"
)

// Admission rejection causes. Over-capacity work is refused up front — a
// full queue or an expired wait both produce 429 with Retry-After — so
// admitted requests keep their latency budget instead of every request
// degrading together.
var (
	// errOverCapacity reports the class's wait queue is full.
	errOverCapacity = errors.New("serve: class over capacity (queue full)")
	// errQueueTimeout reports the request waited its whole budget in the
	// queue without being admitted.
	errQueueTimeout = errors.New("serve: queue wait exceeded the class budget")
)

// admission is a per-class admission controller: a concurrency semaphore
// with a bounded wait queue. Both are token channels (pre-filled; acquire
// = receive, release = send), so the controller is lock-free on the fast
// path and gauges fall out of channel lengths.
type admission struct {
	sem     chan struct{} // concurrency tokens
	queue   chan struct{} // wait-queue tokens
	release func()        // returns one concurrency token

	admitted         atomic.Uint64
	rejectedCapacity atomic.Uint64
	rejectedTimeout  atomic.Uint64

	// queuedHook, when set, runs on the waiter's goroutine right after
	// it takes a queue token. Tests use it to observe the parked state
	// without polling; production leaves it nil.
	queuedHook func()
}

func newAdmission(maxConcurrent, maxQueue int) *admission {
	a := &admission{
		sem:   make(chan struct{}, maxConcurrent),
		queue: make(chan struct{}, maxQueue),
	}
	a.release = func() { a.sem <- struct{}{} }
	for i := 0; i < maxConcurrent; i++ {
		a.sem <- struct{}{}
	}
	for i := 0; i < maxQueue; i++ {
		a.queue <- struct{}{}
	}
	return a
}

// acquire admits the caller or rejects it. On success the returned release
// must be called exactly once when the work finishes. Rejections are
// immediate when the wait queue is full (errOverCapacity) and deferred
// when ctx expires while queued (errQueueTimeout).
func (a *admission) acquire(ctx context.Context) (release func(), err error) {
	if release, ok := a.tryAcquire(); ok {
		return release, nil
	}
	select {
	case <-a.queue:
	default:
		a.rejectedCapacity.Add(1)
		return nil, errOverCapacity
	}
	defer func() { a.queue <- struct{}{} }()
	if a.queuedHook != nil {
		a.queuedHook()
	}
	select {
	case <-a.sem:
		a.admitted.Add(1)
		return a.release, nil
	case <-ctx.Done():
		a.rejectedTimeout.Add(1)
		return nil, errQueueTimeout
	}
}

// tryAcquire admits the caller if a concurrency slot is free, without
// waiting; ok is false when none is.
func (a *admission) tryAcquire() (release func(), ok bool) {
	select {
	case <-a.sem:
		a.admitted.Add(1)
		return a.release, true
	default:
		return nil, false
	}
}

// active gauges currently admitted requests.
func (a *admission) active() int { return cap(a.sem) - len(a.sem) }

// queued gauges requests waiting for admission.
func (a *admission) queued() int { return cap(a.queue) - len(a.queue) }
