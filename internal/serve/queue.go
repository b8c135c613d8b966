package serve

import (
	"context"
	"errors"
	"fmt"
	rtrace "runtime/trace"
	"sync"
	"time"

	"anytime/internal/reqtrace"
)

// ErrQueueFull is returned by Queue.Acquire when the wait queue is at
// capacity: admission control has decided this request should be turned
// away now rather than queued indefinitely.
var ErrQueueFull = errors.New("serve: admission queue full")

// Queue is a FIFO-fair bounded admission queue: at most slots requests run
// concurrently, at most waiters more may wait for a slot, and slots are
// granted strictly in arrival order. It replaces the bare semaphore
// pattern (select on a channel), which under burst wakes waiters in
// arbitrary order and queues them without bound — a late-arriving request
// could starve an early one indefinitely while both held client
// connections open.
//
// A freed slot is handed directly to the oldest waiter rather than
// returned to a free count, so FIFO ordering holds even under contention.
type Queue struct {
	slots      int
	maxWaiters int
	sink       reqtrace.Sink

	mu      sync.Mutex
	free    int
	running int
	waiters []chan struct{} // arrival order; closed to grant a slot
}

// NewQueue returns a queue with the given concurrency slots and wait-queue
// bound. waiters may be zero: then any request arriving while all slots
// are busy is rejected immediately. sink, when non-nil, observes every
// admission decision.
func NewQueue(slots, waiters int, sink reqtrace.Sink) (*Queue, error) {
	if slots < 1 {
		return nil, fmt.Errorf("serve: queue slots %d must be positive", slots)
	}
	if waiters < 0 {
		return nil, fmt.Errorf("serve: queue waiters %d must not be negative", waiters)
	}
	return &Queue{slots: slots, maxWaiters: waiters, sink: sink, free: slots}, nil
}

// Acquire obtains an execution slot, waiting in FIFO order behind earlier
// requests. It returns ErrQueueFull if the wait queue is at capacity and
// ctx.Err() if the context is cancelled while waiting (the request's place
// in line is given up).
//
// The admission decision — enter/grant with the wait time, or reject — is
// reported once, to the request trace bound into ctx (reqtrace.New) and to
// the queue's sink. When the Go execution tracer is running, the contended
// wait becomes an "anytime.queue" region of the request's task.
func (q *Queue) Acquire(ctx context.Context) error {
	tr := reqtrace.FromContext(ctx)
	q.mu.Lock()
	if q.free > 0 && len(q.waiters) == 0 {
		q.free--
		q.running++
		q.mu.Unlock()
		q.sink.Send(tr.QueueGrant(0))
		return nil
	}
	if len(q.waiters) >= q.maxWaiters {
		q.mu.Unlock()
		q.sink.Send(tr.QueueReject(q.maxWaiters))
		return ErrQueueFull
	}
	grant := make(chan struct{})
	q.waiters = append(q.waiters, grant)
	depth := len(q.waiters)
	q.mu.Unlock()
	q.sink.Send(tr.QueueEnter(depth))
	var region *rtrace.Region
	if tr != nil {
		region = rtrace.StartRegion(ctx, "anytime.queue")
	}
	start := time.Now()
	select {
	case <-grant:
		if region != nil {
			region.End()
		}
		q.sink.Send(tr.QueueGrant(time.Since(start)))
		return nil
	case <-ctx.Done():
		if region != nil {
			region.End()
		}
		q.mu.Lock()
		for i, w := range q.waiters {
			if w == grant {
				q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
				q.mu.Unlock()
				return ctx.Err()
			}
		}
		q.mu.Unlock()
		// Release raced us: the slot was already granted (grant is closed).
		// We own it and must hand it on.
		q.Release()
		return ctx.Err()
	}
}

// Release frees the caller's slot, handing it directly to the oldest
// waiter if any.
func (q *Queue) Release() {
	q.mu.Lock()
	if len(q.waiters) > 0 {
		grant := q.waiters[0]
		q.waiters = q.waiters[1:]
		q.mu.Unlock()
		close(grant)
		return
	}
	q.running--
	q.free++
	q.mu.Unlock()
}

// Depth reports the number of requests currently waiting for a slot — the
// load signal the Controller feeds on.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.waiters)
}

// Running reports the number of slots currently held.
func (q *Queue) Running() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.running
}

// Slots reports the queue's concurrency bound.
func (q *Queue) Slots() int { return q.slots }
