package daemon

import (
	"context"
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// requestsJSON is the test-side decoding of /debug/requests.json (categories
// and kinds arrive as their stable string names).
type requestsJSON struct {
	Stats struct {
		Held       int               `json:"held"`
		Capacity   int               `json:"capacity"`
		Recorded   uint64            `json:"recorded"`
		SampledOut uint64            `json:"sampled_out"`
		Evicted    uint64            `json:"evicted"`
		ByCategory map[string]uint64 `json:"by_category"`
	} `json:"stats"`
	Traces []struct {
		ID       string `json:"id"`
		Route    string `json:"route"`
		Category string `json:"category"`
		Status   int    `json:"status"`
		Events   []struct {
			Kind string `json:"kind"`
		} `json:"events"`
	} `json:"traces"`
}

func debugRequestsJSON(t *testing.T, s *Server) requestsJSON {
	t.Helper()
	rec := get(t, s, "/debug/requests.json")
	if rec.Code != http.StatusOK {
		t.Fatalf("requests.json: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("requests.json content type %q", ct)
	}
	var out requestsJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("requests.json decode: %v\n%s", err, rec.Body.String())
	}
	return out
}

// TestTraceHeaderEchoed: every app response carries the request's trace ID
// in traceparent style, so a caller can quote it back at /debug/requests.
func TestTraceHeaderEchoed(t *testing.T) {
	s := testServer(t)
	idRe := regexp.MustCompile(`^[0-9a-f]{32}$`)
	first := get(t, s, "/blur?deadline=2ms")
	if !idRe.MatchString(first.Header().Get("X-Anytime-Trace")) {
		t.Fatalf("trace header %q", first.Header().Get("X-Anytime-Trace"))
	}
	// Even a rejected knob gets an ID — the failure is traced too.
	bad := get(t, s, "/blur?deadline=banana")
	if !idRe.MatchString(bad.Header().Get("X-Anytime-Trace")) {
		t.Fatalf("trace header on 400 %q", bad.Header().Get("X-Anytime-Trace"))
	}
	if first.Header().Get("X-Anytime-Trace") == bad.Header().Get("X-Anytime-Trace") {
		t.Fatal("two requests shared a trace ID")
	}
}

// TestDebugRequestsListAndDetail drives one interesting request end to end:
// its ID (from the response header) must appear in the /debug/requests
// summary, and the ?id= detail view must show the full span tree plus the
// publish timeline.
func TestDebugRequestsListAndDetail(t *testing.T) {
	// 256 px so a microsecond deadline reliably interrupts: deadline misses
	// bypass sampling, making retention deterministic.
	s, err := New(256, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := get(t, s, "/blur?deadline=1us")
	if rec.Code != http.StatusOK {
		t.Fatalf("deadline request: %d", rec.Code)
	}
	id := rec.Header().Get("X-Anytime-Trace")

	list := get(t, s, "/debug/requests")
	if list.Code != http.StatusOK {
		t.Fatalf("list: %d", list.Code)
	}
	for _, want := range []string{"flight recorder:", id, "deadline-miss", "blur"} {
		if !strings.Contains(list.Body.String(), want) {
			t.Errorf("list missing %q:\n%s", want, list.Body.String())
		}
	}

	detail := get(t, s, "/debug/requests?id="+id)
	if detail.Code != http.StatusOK {
		t.Fatalf("detail: %d", detail.Code)
	}
	for _, want := range []string{
		"trace " + id, "route=blur", "category=deadline-miss", "status=200",
		"queue.grant", "pool.get pool=blur", "run.start",
		"publish buffer=conv2d", "deadline fired", "deliver",
		"pool.put pool=blur",
		"publish timeline", // the ASCII accuracy ramp
	} {
		if !strings.Contains(detail.Body.String(), want) {
			t.Errorf("detail missing %q:\n%s", want, detail.Body.String())
		}
	}

	if miss := get(t, s, "/debug/requests?id="+strings.Repeat("f", 32)); miss.Code != http.StatusNotFound {
		t.Errorf("unknown id: %d, want 404", miss.Code)
	}
}

// TestFlightRecorderSaturationRetention is the acceptance scenario: under
// saturation, the recorder keeps every deadline-missed and rejected request
// with its full span timeline, while unremarkable successes are sampled out
// but still counted — nothing is silently lost.
func TestFlightRecorderSaturationRetention(t *testing.T) {
	// One slot plus a small waiting room: requests that wait past their
	// deadline run on what is left of it and miss it; one more than the room
	// holds is rejected. Sampling is effectively off so retained successes
	// can only be slow-ranked.
	const room = 4
	s, err := New(64, 2, Config{
		Slots: 1, QueueLen: room, FlightSize: 64, TraceSample: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	requests := 0

	// Deadline miss first, while the queue is free: a nanosecond deadline
	// cannot be met.
	rec := get(t, s, "/blur?deadline=1ns")
	if rec.Code != http.StatusOK {
		t.Fatalf("deadline request: %d", rec.Code)
	}
	missedID := rec.Header().Get("X-Anytime-Trace")
	requests++

	// Saturate: park the only slot and fill the waiting room with 100ms
	// requests, then hold the slot past their deadline. The deadline runs
	// from arrival, so each of them is granted only the minimum when it
	// finally runs, and misses its deadline.
	if err := s.queue.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	parked := time.Now()
	var waiters sync.WaitGroup
	for i := 0; i < room; i++ {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			if rec := get(t, s, "/blur?deadline=100ms"); rec.Code != http.StatusOK {
				t.Errorf("queued request: %d", rec.Code)
			}
		}()
	}
	requests += room
	for i := 0; s.queue.Depth() < room; i++ {
		if i > 5000 {
			t.Fatal("waiting room never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// Overflow: with the room full, one more is turned away immediately.
	rej := get(t, s, "/blur")
	if rej.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated request: %d, want 503", rej.Code)
	}
	rejectedID := rej.Header().Get("X-Anytime-Trace")
	requests++

	time.Sleep(150*time.Millisecond - time.Since(parked))
	s.queue.Release() // free the slot; the queued burst drains
	waiters.Wait()

	// Successes: with sampling at 1-in-2^20, an OK trace that doesn't rank
	// among the slowest is dropped-but-counted. Latency isn't monotone, so a
	// handful of requests is enough to see at least one sampled out.
	for i := 0; i < 50; i++ {
		if rec := get(t, s, "/blur"); rec.Code != http.StatusOK {
			t.Fatalf("ok request %d: %d", i, rec.Code)
		}
		requests++
		if debugRequestsJSON(t, s).Stats.SampledOut > 0 {
			break
		}
	}

	view := debugRequestsJSON(t, s)
	if view.Stats.SampledOut == 0 {
		t.Error("no OK trace was sampled out under effectively-off sampling")
	}
	// Conservation: every app request was either retained or counted out.
	if got := view.Stats.Recorded + view.Stats.SampledOut; got != uint64(requests) {
		t.Errorf("recorded %d + sampled out %d != %d requests issued",
			view.Stats.Recorded, view.Stats.SampledOut, requests)
	}

	byID := map[string][]string{}
	categories := map[string]int{}
	for _, tr := range view.Traces {
		categories[tr.Category]++
		kinds := make([]string, 0, len(tr.Events))
		for _, e := range tr.Events {
			kinds = append(kinds, e.Kind)
		}
		byID[tr.ID] = kinds
	}
	// The first request and every queued one missed its deadline.
	if categories["deadline-miss"] < 1+room {
		t.Errorf("deadline-miss traces retained = %d, want >= %d", categories["deadline-miss"], 1+room)
	}
	if categories["rejected"] < 1 {
		t.Error("rejected request not retained")
	}
	// The interesting traces carry their full span timelines.
	missedKinds := strings.Join(byID[missedID], " ")
	for _, want := range []string{"queue.grant", "pool.get", "run.start", "deadline", "deliver", "pool.put"} {
		if !strings.Contains(missedKinds, want) {
			t.Errorf("deadline-miss trace missing %s span: %v", want, byID[missedID])
		}
	}
	if !strings.Contains(strings.Join(byID[rejectedID], " "), "queue.reject") {
		t.Errorf("rejected trace missing queue.reject span: %v", byID[rejectedID])
	}

	// The retention decisions are visible as metrics, too.
	metrics := get(t, s, "/metrics").Body.String()
	if counterValue(t, metrics, `anytime_reqtrace_recorded_total{category="deadline-miss"}`) < 1 {
		t.Error("recorded counter missing the deadline-miss category")
	}
	if counterValue(t, metrics, `anytime_reqtrace_recorded_total{category="rejected"}`) < 1 {
		t.Error("recorded counter missing the rejected category")
	}
	if counterValue(t, metrics, `anytime_reqtrace_sampled_out_total`) < 1 {
		t.Error("sampled-out counter not exported")
	}
}
