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
// capacity, and by Queue.AcquireWithin when the wait ahead would spend the
// request's budget: admission control has decided this request should be
// turned away now rather than queued.
var ErrQueueFull = errors.New("serve: admission queue full")

// holdShift sets the weight of the newest sample in the slot hold-time
// average: α = 1/2^holdShift = 1/8, so a burst of slow runs moves the
// estimate within a few releases and one outlier does not own it.
const holdShift = 3

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
//
// The queue is bounded by time as well as by count: it keeps a moving
// average of how long a slot is held (grant to Release), and
// AcquireWithin refuses at once a request whose projected wait — waiters
// ahead × hold ÷ slots — already spends its budget.
type Queue struct {
	slots      int
	maxWaiters int
	sink       reqtrace.Sink

	mu      sync.Mutex
	free    int
	running int
	waiters []chan struct{} // arrival order; closed to grant a slot
	// granted is a ring of the grant times of the running slots, oldest at
	// index oldest. A Release is paired with the oldest grant: slots are
	// interchangeable, and any pairing sums to the same total hold time.
	granted []time.Time
	oldest  int
	hold    time.Duration // moving average of slot hold time; 0 = no sample yet
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
	return &Queue{slots: slots, maxWaiters: waiters, sink: sink, free: slots, granted: make([]time.Time, slots)}, nil
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
func (q *Queue) Acquire(ctx context.Context) error { return q.AcquireWithin(ctx, 0) }

// AcquireWithin is Acquire for a request that must start within budget: it
// also returns ErrQueueFull, without waiting, when the waiters ahead are
// projected to hold the slots for at least budget (waiters × average hold
// ÷ slots). A budget <= 0 sets no time bound, and neither does a queue
// that has not yet seen a slot released.
func (q *Queue) AcquireWithin(ctx context.Context, budget time.Duration) error {
	tr := reqtrace.FromContext(ctx)
	q.mu.Lock()
	if q.free > 0 && len(q.waiters) == 0 {
		q.free--
		q.granted[(q.oldest+q.running)%q.slots] = time.Now()
		q.running++
		q.mu.Unlock()
		q.sink.Send(tr.QueueGrant(0))
		return nil
	}
	depth := len(q.waiters)
	if depth >= q.maxWaiters {
		q.mu.Unlock()
		q.sink.Send(tr.QueueReject(depth, 0))
		return ErrQueueFull
	}
	if projected := time.Duration(depth) * q.hold / time.Duration(q.slots); budget > 0 && projected > 0 && projected >= budget {
		q.mu.Unlock()
		q.sink.Send(tr.QueueReject(depth, projected))
		return ErrQueueFull
	}
	grant := make(chan struct{})
	q.waiters = append(q.waiters, grant)
	q.mu.Unlock()
	q.sink.Send(tr.QueueEnter(depth + 1))
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
// waiter if any, and folds the slot's hold time into the average.
func (q *Queue) Release() {
	now := time.Now()
	q.mu.Lock()
	held := now.Sub(q.granted[q.oldest])
	q.oldest = (q.oldest + 1) % q.slots
	if q.hold == 0 {
		q.hold = max(held, 1)
	} else {
		q.hold = max(q.hold+(held-q.hold)>>holdShift, 1)
	}
	if len(q.waiters) > 0 {
		grant := q.waiters[0]
		q.waiters = q.waiters[1:]
		q.granted[(q.oldest+q.running-1)%q.slots] = now
		q.mu.Unlock()
		close(grant)
		return
	}
	q.running--
	q.free++
	q.mu.Unlock()
}

// Depth reports the number of requests currently waiting for a slot.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.waiters)
}

// Slots reports the queue's concurrency bound.
func (q *Queue) Slots() int { return q.slots }
