package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"anytime/internal/reqtrace"
	"anytime/internal/testgate"
)

func TestMembershipLifecycle(t *testing.T) {
	ms, err := NewMembership([]string{"http://a:1", "http://b:2", "http://c:3"}, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ms.Ring().Size(); got != 3 {
		t.Fatalf("initial ring size = %d", got)
	}

	// Draining takes the member off the ring; the registry keeps it.
	if !ms.SetState("b:2", StateDraining) {
		t.Fatal("SetState draining reported no transition")
	}
	if got := ms.Ring().Size(); got != 2 {
		t.Fatalf("ring size after drain = %d, want 2", got)
	}
	if m := ms.Member("b:2"); m == nil || m.State() != StateDraining {
		t.Fatalf("drained member state = %v", m)
	}
	// Same state again: no transition.
	if ms.SetState("b:2", StateDraining) {
		t.Fatal("repeated SetState reported a transition")
	}

	// Rejoin.
	if !ms.SetState("b:2", StateHealthy) || ms.Ring().Size() != 3 {
		t.Fatal("rejoin did not restore the ring")
	}

	// Remove drops it outright.
	if !ms.Remove("b:2") || ms.Ring().Size() != 2 || ms.Member("b:2") != nil {
		t.Fatal("Remove did not drop the member")
	}
	if ms.Remove("b:2") {
		t.Fatal("second Remove reported success")
	}

	// Add only moves the new member's keys (spot-check affinity survival).
	before := map[string]string{}
	for _, k := range keys(500) {
		before[k] = ms.Ring().Lookup(k, 1)[0]
	}
	if err := ms.Add("http://d:4"); err != nil {
		t.Fatal(err)
	}
	for k, owner := range before {
		now := ms.Ring().Lookup(k, 1)[0]
		if now != owner && now != "d:4" {
			t.Fatalf("key %q moved %s -> %s on an unrelated join", k, owner, now)
		}
	}
}

func TestMembershipRejectsBadInput(t *testing.T) {
	if _, err := NewMembership(nil, 64, nil); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := NewMembership([]string{"not a url"}, 64, nil); err == nil {
		t.Error("bad URL accepted")
	}
	if _, err := NewMembership([]string{"http://a:1", "http://a:1"}, 64, nil); err == nil {
		t.Error("duplicate member accepted")
	}
}

func TestMembershipStateSink(t *testing.T) {
	var transitions atomic.Int32
	var lastState atomic.Value
	ms, err := NewMembership([]string{"http://a:1"}, 64, func(e reqtrace.Event) {
		if e.Kind == reqtrace.KindMemberState {
			transitions.Add(1)
			lastState.Store(e.Name + "=" + e.Note)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ms.SetState("a:1", StateDown)
	if transitions.Load() != 1 || lastState.Load().(string) != "a:1=down" {
		t.Fatalf("sink saw %d transitions, last %v", transitions.Load(), lastState.Load())
	}
}

// TestCheckerTransitions drives a real checker against stub backends in
// every health shape: healthy, draining (503 + body), and dead.
func TestCheckerTransitions(t *testing.T) {
	testgate.Goroutines(t)
	var draining atomic.Bool
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		if draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n"))
			return
		}
		w.Write([]byte("ok\n"))
	}))
	defer healthy.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // immediately: connection refused from now on

	ms, err := NewMembership([]string{healthy.URL, dead.URL}, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(ms, nil, time.Hour /* ticks never fire; Sweep drives */, time.Second, 2)

	healthyName := strings.TrimPrefix(healthy.URL, "http://")
	deadName := strings.TrimPrefix(dead.URL, "http://")
	c.Sweep(context.Background())
	if ms.Member(healthyName).State() != StateHealthy {
		t.Fatal("healthy backend not marked healthy")
	}
	// One failed probe: below maxFails, still on the ring.
	if ms.Member(deadName).State() != StateHealthy {
		t.Fatal("one failed probe already removed the member (maxFails=2)")
	}
	c.Sweep(context.Background()) // second consecutive failure crosses the threshold
	if ms.Member(deadName).State() != StateDown {
		t.Fatal("dead backend not marked down after maxFails probes")
	}
	if got := ms.Ring().Size(); got != 1 {
		t.Fatalf("ring size with one dead member = %d, want 1", got)
	}

	// Drain flows through the probe body.
	draining.Store(true)
	c.Sweep(context.Background())
	if ms.Member(healthyName).State() != StateDraining {
		t.Fatal("draining healthz did not drain the member")
	}
	if got := ms.Ring().Size(); got != 0 {
		t.Fatalf("ring size with everyone out = %d, want 0", got)
	}

	// And back.
	draining.Store(false)
	c.Sweep(context.Background())
	if ms.Member(healthyName).State() != StateHealthy {
		t.Fatal("member did not rejoin after drain ended")
	}

	// RTT was observed by the probes.
	if ms.Member(healthyName).RTT() <= 0 {
		t.Error("probe RTT not folded into the member EWMA")
	}
}

func TestCheckerStartStop(t *testing.T) {
	testgate.Goroutines(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	}))
	defer srv.Close()
	ms, err := NewMembership([]string{srv.URL}, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(ms, nil, 10*time.Millisecond, time.Second, 3)
	c.Start(context.Background())
	defer c.Stop()
	if !waitTrue(t, func() bool { return ms.Members()[0].RTT() > 0 }) {
		t.Fatal("started checker never probed")
	}
	c.Stop()
	c.Stop() // idempotent
}

// TestCheckerCtxCancelStopsLoop is the regression for the Checker whose
// probe loop ran detached from its caller's context: the loop now runs
// under that context, so cancelling it ends the loop without an explicit
// Stop — an operator tearing down a router by cancelling its root ctx
// must not strand the checker goroutine.
func TestCheckerCtxCancelStopsLoop(t *testing.T) {
	testgate.Goroutines(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	}))
	defer srv.Close()
	ms, err := NewMembership([]string{srv.URL}, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(ms, nil, 10*time.Millisecond, time.Second, 3)
	ctx, cancel := context.WithCancel(context.Background())
	c.Start(ctx)
	cancel()
	select {
	case <-c.done:
	case <-time.After(2 * time.Second):
		t.Fatal("probe loop still running after its context was cancelled")
	}
}

// TestCheckerProbeInheritsCtx proves the probe HTTP request itself derives
// from the sweep's context (the http.NewRequestWithContext fix): against a
// backend that never answers, a cancelled sweep context must abort the
// in-flight probe well before the checker's own per-probe timeout.
func TestCheckerProbeInheritsCtx(t *testing.T) {
	release := make(chan struct{})
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done(): // client abandoned the probe
		case <-release:
		}
	}))
	defer stuck.Close()
	// Deferred after Close so it runs first: a probe that ignores ctx must
	// fail the test below, not leave Close waiting on its handler.
	defer close(release)
	ms, err := NewMembership([]string{stuck.URL}, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Per-probe timeout of an hour: only ctx cancellation can end the sweep.
	c := NewChecker(ms, nil, time.Hour, time.Hour, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Sweep(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let the probe reach the backend
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("sweep ignored context cancellation; probe not derived from ctx")
	}
}
