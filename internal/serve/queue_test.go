package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"anytime/internal/reqtrace"
	"anytime/internal/testgate"
)

// runningSlots reports the number of slots of q currently held.
func runningSlots(q *Queue) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.running
}

func TestQueueValidation(t *testing.T) {
	if _, err := NewQueue(0, 1, nil); err == nil {
		t.Fatal("slots 0 accepted")
	}
	if _, err := NewQueue(1, -1, nil); err == nil {
		t.Fatal("negative waiters accepted")
	}
}

func TestQueueFastPath(t *testing.T) {
	q, err := NewQueue(2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := q.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := q.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if runningSlots(q) != 2 {
		t.Fatalf("running = %d, want 2", runningSlots(q))
	}
	// waiters == 0: a third request is rejected immediately.
	if err := q.Acquire(ctx); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third acquire: %v, want ErrQueueFull", err)
	}
	q.Release()
	if err := q.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	q.Release()
	q.Release()
	if runningSlots(q) != 0 {
		t.Fatalf("running = %d, want 0", runningSlots(q))
	}
}

// TestQueueFIFOUnderSaturation is the regression test for the semaphore
// bug this queue replaces: with every slot busy, a burst of waiters must
// be granted slots strictly in arrival order — a bare channel semaphore
// wakes them in whatever order the scheduler picks.
func TestQueueFIFOUnderSaturation(t *testing.T) {
	const waiters = 16
	ctx := context.Background()
	// Enqueue waiters one at a time, recording arrival order. Acquire
	// inserts into the wait list before reporting queue.enter to the sink, so
	// sequential Acquire calls from distinct goroutines have a defined
	// arrival order once each goroutine reports it has enqueued.
	enqueued := make(chan int)
	granted := make(chan int, waiters)
	var wg sync.WaitGroup
	hq, err := NewQueue(1, waiters, onKind(reqtrace.KindQueueEnter, func(reqtrace.Event) { enqueued <- 0 }))
	if err != nil {
		t.Fatal(err)
	}
	if err := hq.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := hq.Acquire(ctx); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			granted <- i
			hq.Release()
		}(i)
		<-enqueued // waiter i is in line before waiter i+1 starts
	}
	hq.Release() // start the cascade
	wg.Wait()
	close(granted)
	want := 0
	for got := range granted {
		if got != want {
			t.Fatalf("grant order violated: got waiter %d, want %d", got, want)
		}
		want++
	}
	if want != waiters {
		t.Fatalf("granted %d waiters, want %d", want, waiters)
	}
}

func TestQueueRejectsBeyondWaitBound(t *testing.T) {
	ctx := context.Background()
	entered := make(chan struct{}, 2)
	hooked, err := NewQueue(1, 2, onKind(reqtrace.KindQueueEnter, func(reqtrace.Event) { entered <- struct{}{} }))
	if err != nil {
		t.Fatal(err)
	}
	if err := hooked.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := hooked.Acquire(ctx); err != nil {
				t.Error(err)
				return
			}
			<-release
			hooked.Release()
		}()
		<-entered
	}
	if hooked.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", hooked.Depth())
	}
	if err := hooked.Acquire(ctx); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-bound acquire: %v, want ErrQueueFull", err)
	}
	hooked.Release()
	close(release)
	wg.Wait()
}

func TestQueueCancelledWaiterLeavesLine(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	entered := make(chan struct{})
	q2, err := NewQueue(1, 4, onKind(reqtrace.KindQueueEnter, func(reqtrace.Event) { close(entered) }))
	if err != nil {
		t.Fatal(err)
	}
	if err := q2.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	go func() { errc <- q2.Acquire(ctx) }()
	<-entered
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: %v", err)
	}
	if q2.Depth() != 0 {
		t.Fatalf("depth = %d after cancellation, want 0", q2.Depth())
	}
	// The slot is still intact: release it and the next acquire succeeds
	// without waiting.
	q2.Release()
	if err := q2.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestQueueGrantReportsWait(t *testing.T) {
	var mu sync.Mutex
	var waits []time.Duration
	q, err := NewQueue(1, 1, onKind(reqtrace.KindQueueGrant, func(e reqtrace.Event) {
		mu.Lock()
		waits = append(waits, e.Dur)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := q.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := q.Acquire(ctx); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	q.Release()
	<-done
	mu.Lock()
	defer mu.Unlock()
	if len(waits) != 2 {
		t.Fatalf("queue.grant reported %d times, want 2", len(waits))
	}
	if waits[0] != 0 {
		t.Fatalf("fast-path wait = %v, want 0", waits[0])
	}
	if waits[1] <= 0 {
		t.Fatalf("contended wait = %v, want > 0", waits[1])
	}
}

// TestQueueTimeBoundHoldPrimesFromRelease: the hold estimate starts empty
// (no time bound), takes its first grant-to-Release sample whole, and moves
// an eighth of the way to each later one.
func TestQueueTimeBoundHoldPrimesFromRelease(t *testing.T) {
	q, err := NewQueue(1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := q.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	q.Release()
	first := q.hold
	if first < 5*time.Millisecond {
		t.Fatalf("hold after one 5ms hold = %v, want >= 5ms", first)
	}
	if err := q.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	q.Release()
	if second := q.hold; second >= first || second < first*7/8 {
		t.Fatalf("hold after a near-zero hold = %v, want in [%v, %v)", second, first*7/8, first)
	}
}

// TestQueueTimeBoundRefusesWithoutBlocking: with d requests waiting and a
// known hold time, a budget below d × hold ÷ slots is refused at once with
// one queue.reject, while a budget above it and an unbudgeted Acquire
// still queue and are granted in FIFO order.
func TestQueueTimeBoundRefusesWithoutBlocking(t *testing.T) {
	testgate.Goroutines(t)
	const d, hold = 3, 10 * time.Millisecond // projected wait: 30ms on one slot
	var mu sync.Mutex
	var rejects []reqtrace.Event
	enqueued := make(chan struct{}, d+3) // room for a wrongly queued refusal

	q, err := NewQueue(1, 8, func(e reqtrace.Event) {
		switch e.Kind {
		case reqtrace.KindQueueEnter:
			enqueued <- struct{}{}
		case reqtrace.KindQueueReject:
			mu.Lock()
			rejects = append(rejects, e)
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := q.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	q.mu.Lock()
	q.hold = hold
	q.mu.Unlock()

	granted := make(chan int, d+2)
	var wg sync.WaitGroup
	wait := func(id int, budget time.Duration) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := q.AcquireWithin(ctx, budget); err != nil {
				t.Errorf("waiter %d: %v", id, err)
				return
			}
			granted <- id
			q.Release()
		}()
		<-enqueued
	}
	for i := 0; i < d; i++ {
		wait(i, 0)
	}

	start := time.Now()
	// A queue without the time bound would make this wait; the timeout
	// turns that into a failure instead of a hang.
	bounded, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	if err := q.AcquireWithin(bounded, 25*time.Millisecond); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("25ms budget behind a projected 30ms wait: %v, want ErrQueueFull", err)
	}
	if took := time.Since(start); took > 5*time.Millisecond {
		t.Errorf("time-bound refusal took %v; it must not wait", took)
	}
	mu.Lock()
	if len(rejects) != 1 || rejects[0].N != d || rejects[0].Dur != d*hold {
		t.Errorf("queue.reject events %+v, want one with depth %d and projected wait %v", rejects, d, d*hold)
	}
	mu.Unlock()
	if q.Depth() != d {
		t.Fatalf("depth %d after the refusal, want %d", q.Depth(), d)
	}

	wait(d, 35*time.Millisecond) // 35ms > 30ms: it fits, and queues
	wait(d+1, 0)                 // unbudgeted: no time bound at all
	q.Release()
	wg.Wait()
	close(granted)
	want := 0
	for got := range granted {
		if got != want {
			t.Fatalf("grant order violated: got waiter %d, want %d", got, want)
		}
		want++
	}
	if want != d+2 {
		t.Fatalf("granted %d waiters, want %d", want, d+2)
	}
}
