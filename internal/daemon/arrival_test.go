package daemon

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"anytime/internal/reqtrace"
	"anytime/internal/serve"
	"anytime/internal/testgate"
)

// serveAsync issues a request on its own goroutine and waits until the
// queue holds depth waiters, so the caller knows the request is in line.
func serveAsync(t *testing.T, s *Server, wg *sync.WaitGroup, req *http.Request, depth int) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.ServeHTTP(rec, req)
	}()
	for giveUp := time.Now().Add(10 * time.Second); s.queue.Depth() < depth; time.Sleep(time.Millisecond) {
		if time.Now().After(giveUp) {
			t.Fatalf("queue depth %d, want %d", s.queue.Depth(), depth)
		}
	}
	return rec
}

// TestDeadlineRunsFromArrival: a deadline request that waited for the only
// slot reports the wait in X-Anytime-Elapsed, in its delivery span and in
// its trace's duration, and its run is granted at most what the wait left
// of the deadline.
func TestDeadlineRunsFromArrival(t *testing.T) {
	testgate.Goroutines(t)
	s, err := New(64, 2, Config{Slots: 1, QueueLen: 4, TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.queue.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	const deadline = time.Second
	var wg sync.WaitGroup
	rec := serveAsync(t, s, &wg, httptest.NewRequest(http.MethodGet, "/blur?deadline=1s", nil), 1)
	time.Sleep(50 * time.Millisecond)
	s.queue.Release()
	wg.Wait()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}

	tr := s.recorder.Find(rec.Header().Get("X-Anytime-Trace"))
	if tr == nil {
		t.Fatal("trace not retained")
	}
	var wait, delivered time.Duration
	for _, e := range tr.Events() {
		switch e.Kind {
		case reqtrace.KindQueueGrant:
			wait = e.Dur
		case reqtrace.KindDeliver:
			delivered = e.Dur
		}
	}
	if wait < 50*time.Millisecond {
		t.Fatalf("queue.grant wait %v, want >= 50ms behind the held slot", wait)
	}
	elapsed, err := time.ParseDuration(rec.Header().Get("X-Anytime-Elapsed"))
	if err != nil || elapsed < wait {
		t.Errorf("X-Anytime-Elapsed %q, want >= the %v queue wait", rec.Header().Get("X-Anytime-Elapsed"), wait)
	}
	if delivered < wait {
		t.Errorf("deliver span %v, want >= the %v queue wait", delivered, wait)
	}
	if d := tr.Elapsed(); d < wait {
		t.Errorf("trace duration %v, want >= the %v queue wait", d, wait)
	}
	eff, err := time.ParseDuration(rec.Header().Get("X-Anytime-Effective-Deadline"))
	if err != nil || eff > deadline-wait {
		t.Errorf("X-Anytime-Effective-Deadline %q, want <= %v (deadline less the wait)", rec.Header().Get("X-Anytime-Effective-Deadline"), deadline-wait)
	}
}

// TestBudgetExhaustedBehindQueueNeverPrecise: a routed request whose
// budget is already spent, queued behind others, is granted the minimum
// and delivers an interrupted approximation. A grant of 0 would read as
// "run to precise" and hand it the whole kernel.
func TestBudgetExhaustedBehindQueueNeverPrecise(t *testing.T) {
	testgate.Goroutines(t)
	s, err := New(64, 2, Config{Slots: 1, QueueLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.queue.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	const ahead = 4
	var wg sync.WaitGroup
	for i := 1; i <= ahead; i++ {
		serveAsync(t, s, &wg, httptest.NewRequest(http.MethodGet, "/blur?deadline=1s", nil), i)
	}
	req := httptest.NewRequest(http.MethodGet, "/blur?deadline=1s", nil)
	req.Header.Set(serve.BudgetHeader, "0s")
	rec := serveAsync(t, s, &wg, req, ahead+1)
	s.queue.Release()
	wg.Wait()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Anytime-Final"); got != "false" {
		t.Errorf("X-Anytime-Final %q, want false: an exhausted budget ran to precise", got)
	}
	if got := rec.Header().Get("X-Anytime-Deadline-Fired"); got != "true" {
		t.Errorf("X-Anytime-Deadline-Fired %q, want true", got)
	}
	if v := rec.Header().Get("X-Anytime-Version"); v == "" || v == "0" {
		t.Errorf("version %q, want >= 1", v)
	}
}

// TestTimeBoundRefusalIsCounted: once the queue knows how long a slot is
// held, a deadline request whose projected wait would spend its deadline is
// refused at once, and the refusal reaches both its trace and
// anytime_serve_rejected_total. A longer deadline behind the same line
// still queues, and so does a routed request with the same 10ms: the
// router already charged its budget for this queue's wait.
func TestTimeBoundRefusalIsCounted(t *testing.T) {
	testgate.Goroutines(t)
	s, err := New(64, 2, Config{Slots: 1, QueueLen: 8, TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Prime the hold estimate with one 30ms hold, then park the slot.
	ctx := context.Background()
	if err := s.queue.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	s.queue.Release()
	if err := s.queue.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	before := counterValue(t, get(t, s, "/metrics").Body.String(), "anytime_serve_rejected_total")

	var wg sync.WaitGroup
	serveAsync(t, s, &wg, httptest.NewRequest(http.MethodGet, "/blur?deadline=1s", nil), 1)
	// A queue without the time bound would park this request until the
	// slot is released below; the timeout turns that into a failure (a
	// client-gone 503 that the serving runtime does not count) instead of
	// a hang.
	bounded, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	start := time.Now()
	refused := httptest.NewRecorder()
	s.ServeHTTP(refused, httptest.NewRequest(http.MethodGet, "/blur?deadline=10ms", nil).WithContext(bounded)) // one waiter × 30ms > 10ms
	if refused.Code != http.StatusServiceUnavailable {
		t.Fatalf("10ms deadline behind a projected 30ms wait: status %d, want 503", refused.Code)
	}
	if took := time.Since(start); took > 25*time.Millisecond {
		t.Errorf("refusal took %v; it must not wait", took)
	}
	kept := serveAsync(t, s, &wg, httptest.NewRequest(http.MethodGet, "/blur?deadline=1s", nil), 2)
	routedReq := httptest.NewRequest(http.MethodGet, "/blur?deadline=1s", nil)
	routedReq.Header.Set(serve.BudgetHeader, "10ms")
	routed := serveAsync(t, s, &wg, routedReq, 3)
	s.queue.Release()
	wg.Wait()
	if kept.Code != http.StatusOK {
		t.Errorf("1s deadline behind a projected 30ms wait: status %d, want 200", kept.Code)
	}
	if routed.Code != http.StatusOK {
		t.Errorf("routed 10ms budget behind a projected 60ms wait: status %d, want 200", routed.Code)
	}

	after := counterValue(t, get(t, s, "/metrics").Body.String(), "anytime_serve_rejected_total")
	if after-max(before, 0) != 1 {
		t.Errorf("anytime_serve_rejected_total rose by %d, want 1", after-max(before, 0))
	}
	tr := s.recorder.Find(refused.Header().Get("X-Anytime-Trace"))
	if tr == nil || tr.Category() != reqtrace.CategoryRejected {
		t.Fatalf("refused trace %v not retained as rejected", tr)
	}
	for _, e := range tr.Events() {
		if e.Kind == reqtrace.KindQueueReject && (e.N != 1 || e.Dur < 30*time.Millisecond) {
			t.Errorf("queue.reject depth %d projected wait %v, want 1 and >= 30ms", e.N, e.Dur)
		}
	}
}
