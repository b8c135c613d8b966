package core

import (
	"context"
	"testing"
	"time"

	"anytime/internal/testgate"
)

func TestSubscribeDeliversAllWhenKeptUp(t *testing.T) {
	b := NewBuffer[int]("b", nil)
	ctx := context.Background()
	sub := b.Subscribe(ctx)
	go func() {
		for i := 1; i <= 5; i++ {
			if _, err := b.Publish(i, i == 5); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(2 * time.Millisecond) // let the subscriber keep up
		}
	}()
	var got []int
	for snap := range sub {
		got = append(got, snap.Value)
	}
	if len(got) == 0 || got[len(got)-1] != 5 {
		t.Fatalf("received %v; final version missing", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("out-of-order delivery: %v", got)
		}
	}
}

// TestSubscribeSkipsStaleForSlowConsumer: a consumer that never reads until
// the producer finishes receives (at most) one stale displaced value and
// then the final snapshot — never the full backlog.
func TestSubscribeSkipsStaleForSlowConsumer(t *testing.T) {
	b := NewBuffer[int]("b", nil)
	sub := b.Subscribe(context.Background())
	for i := 1; i <= 100; i++ {
		if _, err := b.Publish(i, i == 100); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * time.Millisecond) // let the pump drain
	var got []int
	for snap := range sub {
		got = append(got, snap.Value)
	}
	if len(got) > 3 {
		t.Errorf("slow consumer received %d snapshots (%v); stale versions not skipped", len(got), got)
	}
	if got[len(got)-1] != 100 {
		t.Errorf("final snapshot missing: %v", got)
	}
}

func TestSubscribeClosesOnFinal(t *testing.T) {
	testgate.Goroutines(t)
	b := NewBuffer[int]("b", nil)
	sub := b.Subscribe(context.Background())
	if _, err := b.Publish(7, true); err != nil {
		t.Fatal(err)
	}
	snap, ok := <-sub
	if !ok || !snap.Final || snap.Value != 7 {
		t.Fatalf("snap=%+v ok=%v", snap, ok)
	}
	if _, ok := <-sub; ok {
		t.Error("channel not closed after final")
	}
}

func TestSubscribeHonorsContext(t *testing.T) {
	testgate.Goroutines(t)
	b := NewBuffer[int]("b", nil)
	ctx, cancel := context.WithCancel(context.Background())
	sub := b.Subscribe(ctx)
	cancel()
	select {
	case _, ok := <-sub:
		if ok {
			t.Error("received after cancel")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("subscription did not close on cancel")
	}
}

func TestSubscribeMultipleConsumers(t *testing.T) {
	b := NewBuffer[int]("b", nil)
	ctx := context.Background()
	subs := []<-chan Snapshot[int]{b.Subscribe(ctx), b.Subscribe(ctx), b.Subscribe(ctx)}
	if _, err := b.Publish(1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(2, true); err != nil {
		t.Fatal(err)
	}
	for i, sub := range subs {
		var last Snapshot[int]
		for snap := range sub {
			last = snap
		}
		if !last.Final || last.Value != 2 {
			t.Errorf("subscriber %d ended on %+v", i, last)
		}
	}
}
