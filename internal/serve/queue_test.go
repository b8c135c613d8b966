package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"anytime/internal/reqtrace"
)

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
	if q.Running() != 2 {
		t.Fatalf("running = %d, want 2", q.Running())
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
	if q.Running() != 0 {
		t.Fatalf("running = %d, want 0", q.Running())
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
