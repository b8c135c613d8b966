package daemon

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"anytime/internal/reqtrace"
)

// gatedWriter parks the handler inside its body write — after the run,
// before check-in — so a test can hold an execution slot with a real,
// traced request for exactly as long as it needs.
type gatedWriter struct {
	*httptest.ResponseRecorder
	once    sync.Once
	writing chan struct{} // closed when the handler reaches its write
	release chan struct{}
}

func (g *gatedWriter) Write(b []byte) (int, error) {
	g.once.Do(func() { close(g.writing) })
	<-g.release
	return g.ResponseRecorder.Write(b)
}

// TestTraceAndMetricsAgree is the "cannot disagree" oracle: every serving
// decision reaches the trace and the metrics sink as one event, so with
// every trace retained the per-kind event counts over the flight recorder
// must equal what /metrics counted. The traffic is a mix of deadline,
// accept and precise requests on all three routes, repeated ?input= keys
// and a ?prior= (plain requests), plus a burst against one slot and a
// four-deep waiting room that forces queue waits and a rejection.
// The recorder's own counters close the loop: the anytime_reqtrace_* series
// must equal the stats /debug/requests.json reports.
func TestTraceAndMetricsAgree(t *testing.T) {
	s, err := New(64, 2, Config{Slots: 1, QueueLen: 4, TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := get(t, s, "/metrics").Body.String()

	for _, path := range []string{"/blur", "/blur?deadline=1us", "/blur?deadline=1s", "/blur?accept=10", "/equalize?deadline=1us", "/cluster"} {
		if rec := get(t, s, path); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
	}

	// A repeated key and a ?prior= naming it are plain deadline requests.
	for _, path := range []string{
		"/blur?deadline=1s&input=k1",
		"/blur?deadline=1s&input=k1",
		"/blur?deadline=1s&input=k2&prior=k1",
	} {
		if rec := get(t, s, path); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
	}

	// Hold the only slot, fill the waiting room, overflow it by one, then
	// let the line drain. The waiters' deadline is long enough that the
	// queue's time bound, primed by the requests above, never refuses one:
	// this burst tests the count bound.
	holder := &gatedWriter{ResponseRecorder: httptest.NewRecorder(), writing: make(chan struct{}), release: make(chan struct{})}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.ServeHTTP(holder, httptest.NewRequest(http.MethodGet, "/blur?deadline=1s", nil))
	}()
	<-holder.writing
	waiters := make([]int, 4)
	for i := range waiters {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			waiters[i] = get(t, s, "/blur?deadline=5s").Code
		}(i)
	}
	for giveUp := time.Now().Add(10 * time.Second); s.queue.Depth() < len(waiters); time.Sleep(time.Millisecond) {
		if time.Now().After(giveUp) {
			t.Fatalf("waiting room holds %d, want %d", s.queue.Depth(), len(waiters))
		}
	}
	if rec := get(t, s, "/blur?deadline=20ms"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request past the waiting room: status %d, want 503", rec.Code)
	}
	close(holder.release)
	wg.Wait()
	for i, code := range waiters {
		if code != http.StatusOK {
			t.Fatalf("waiter %d: status %d", i, code)
		}
	}

	// Tally the trace side by the series each event feeds.
	events := map[string]int64{}
	var depthMax int64
	for _, tr := range s.recorder.Snapshot() {
		for _, e := range tr.Events() {
			switch e.Kind {
			case reqtrace.KindPoolGet:
				events[fmt.Sprintf(`anytime_serve_pool_gets_total{pool=%q,source=%q}`, e.Name, pick(e.Flag, "warm", "fresh"))]++
			case reqtrace.KindPoolPut:
				events[fmt.Sprintf(`anytime_serve_pool_puts_total{fate=%q,pool=%q}`, pick(e.Flag, "retained", "discarded"), e.Name)]++
			case reqtrace.KindQueueEnter:
				depthMax = max(depthMax, int64(e.N))
			case reqtrace.KindQueueGrant:
				events["anytime_serve_queue_wait_seconds_count"]++
			case reqtrace.KindQueueReject:
				events["anytime_serve_rejected_total"]++
			case reqtrace.KindRunFinish:
				outcome := pick(e.Flag, "precise", "approximate")
				events[fmt.Sprintf(`anytime_serve_deliveries_total{outcome=%q}`, outcome)]++
				events[fmt.Sprintf(`anytime_serve_delivery_seconds_count{outcome=%q}`, outcome)]++
			}
		}
	}
	// The scenario is only an oracle if it exercised every decision point.
	for series, atLeast := range map[string]int64{
		"anytime_serve_rejected_total":                             1,
		"anytime_serve_queue_wait_seconds_count":                   11,
		`anytime_serve_deliveries_total{outcome="precise"}`:        2,
		`anytime_serve_deliveries_total{outcome="approximate"}`:    1,
		`anytime_serve_pool_gets_total{pool="blur",source="warm"}`: 1,
	} {
		if events[series] < atLeast {
			t.Errorf("trace events for %s = %d, want at least %d", series, events[series], atLeast)
		}
	}

	after := get(t, s, "/metrics").Body.String()
	delta := func(series string) int64 {
		return max(counterValue(t, after, series), 0) - max(counterValue(t, before, series), 0)
	}
	// Both directions: every traced event was counted, and every series
	// of the event-fed families counted only what some trace holds.
	fed := regexp.MustCompile(`(?m)^(anytime_serve_(?:pool_gets_total|pool_puts_total|rejected_total|deliveries_total|queue_wait_seconds_count|delivery_seconds_count)(?:\{[^}]*\})?) \d+$`)
	for _, m := range fed.FindAllStringSubmatch(after, -1) {
		if _, traced := events[m[1]]; !traced {
			events[m[1]] = 0
		}
	}
	for series, traced := range events {
		if got := delta(series); got != traced {
			t.Errorf("%s: /metrics counted %d, traces hold %d events", series, got, traced)
		}
	}
	if got := counterValue(t, after, "anytime_serve_queue_depth_max"); got != depthMax || depthMax != 4 {
		t.Errorf("queue depth watermark: /metrics %d, deepest queue.enter %d, want both 4", got, depthMax)
	}

	// The recorder's series are its Stats read at collection time, so they
	// equal what /debug/requests.json reports — in both directions.
	stats := debugRequestsJSON(t, s).Stats
	var recorded uint64
	for _, m := range regexp.MustCompile(`(?m)^anytime_reqtrace_recorded_total\{category="([^"]+)"\} (\d+)$`).FindAllStringSubmatch(after, -1) {
		n, _ := strconv.ParseUint(m[2], 10, 64)
		recorded += n
		if n != stats.ByCategory[m[1]] {
			t.Errorf("recorded_total{category=%q}: /metrics %d, requests.json %d", m[1], n, stats.ByCategory[m[1]])
		}
	}
	if recorded != stats.Recorded || recorded == 0 {
		t.Errorf("recorded_total sums to %d over /metrics, requests.json says %d (by category %v)", recorded, stats.Recorded, stats.ByCategory)
	}
	if got := counterValue(t, after, "anytime_reqtrace_sampled_out_total"); uint64(got) != stats.SampledOut {
		t.Errorf("sampled_out_total: /metrics %d, requests.json %d", got, stats.SampledOut)
	}
	if got := counterValue(t, after, "anytime_reqtrace_evicted_total"); uint64(got) != stats.Evicted {
		t.Errorf("evicted_total: /metrics %d, requests.json %d", got, stats.Evicted)
	}
}

func pick(cond bool, yes, no string) string {
	if cond {
		return yes
	}
	return no
}
