package main

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestSameSeedSameScheduleAndKeys(t *testing.T) {
	a := poissonSchedule(stream(7, "arrivals-1"), 150, 2*time.Second)
	b := poissonSchedule(stream(7, "arrivals-1"), 150, 2*time.Second)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed produced two different arrival schedules")
	}
	if len(a) != 300 {
		t.Errorf("150/s over 2s scheduled %d arrivals, want exactly 300: the offered load must not vary with the seed", len(a))
	}
	if !slices.IsSorted(a) || a[len(a)-1] >= 2*time.Second {
		t.Error("arrivals must ascend and stay inside the window")
	}
	if c := poissonSchedule(stream(8, "arrivals-1"), 150, 2*time.Second); slices.Equal(a, c) {
		t.Error("another seed produced the same schedule")
	}
	if c := poissonSchedule(stream(7, "arrivals-2"), 150, 2*time.Second); slices.Equal(a, c) {
		t.Error("another pass of the same seed replayed the same schedule")
	}

	k1, k2 := newKeyStream(7).take(500), newKeyStream(7).take(500)
	if !slices.Equal(k1, k2) {
		t.Fatal("the same seed produced two different key streams")
	}
	seen := map[string]bool{}
	for _, k := range k1 {
		if seen[k] {
			t.Fatalf("key %q repeats: the cache would warm during the run", k)
		}
		seen[k] = true
	}
	if slices.Equal(k1, newKeyStream(8).take(500)) {
		t.Error("another seed produced the same keys")
	}
}

// A server that handles one request at a time and stalls on the first: the
// requests scheduled during the stall must be charged for it, because their
// users waited through it.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	first := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if first {
			first = false
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	sched := []time.Duration{0, 20 * time.Millisecond, 40 * time.Millisecond, 60 * time.Millisecond}
	urls := []string{srv.URL, srv.URL, srv.URL, srv.URL}
	rs := openLoop(http.DefaultClient, sched, urls, func(*response, []byte, int) {}, nil)
	for i, r := range rs {
		if r.err != nil || r.status != 200 {
			t.Fatalf("request %d: status %d err %v", i, r.status, r.err)
		}
		// Request i was due i*20ms in and could not be served before the stall
		// ended at 200ms.
		if want := ms(stall - sched[i]); r.latencyMs < want-5 {
			t.Errorf("request %d latency %.1f ms does not include the stall (want >= %.1f)", i, r.latencyMs, want)
		}
		if r.lagMs < 0 || r.lagMs > 50 {
			t.Errorf("request %d: generator lag %.2f ms on an idle generator", i, r.lagMs)
		}
	}
}

// A generator that runs late (its arrivals were due before it got to them)
// must say so, and must still time each request from when it was due.
func TestOpenLoopReportsItsOwnLateness(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) }))
	defer srv.Close()
	const late = 80 * time.Millisecond
	sched := []time.Duration{-late, -late, -late} // due before the generator started
	rs := openLoop(http.DefaultClient, sched, []string{srv.URL, srv.URL, srv.URL}, func(*response, []byte, int) {}, nil)
	var lag []float64
	for i, r := range rs {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.latencyMs < ms(late) {
			t.Errorf("request %d latency %.1f ms is timed from the send, not from when it was due", i, r.latencyMs)
		}
		lag = append(lag, r.lagMs)
	}
	if p90 := percentile(lag, 90); p90 < ms(late) {
		t.Errorf("sched_lag p90 = %.1f ms, want at least the %.0f ms the generator was late", p90, ms(late))
	}
}
