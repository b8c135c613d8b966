package telemetry

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", nil)
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := reg.Counter("c_total", nil); again != c {
		t.Error("same identity returned a different counter")
	}
	g := reg.Gauge("g", Labels{"k": "v"})
	g.Set(10)
	g.Add(-3)
	g.Dec()
	g.Inc()
	if g.Value() != 7 {
		t.Errorf("gauge = %d, want 7", g.Value())
	}
	g.SetMax(3)
	if g.Value() != 7 {
		t.Error("SetMax lowered the gauge")
	}
	g.SetMax(42)
	if g.Value() != 42 {
		t.Error("SetMax did not raise the gauge")
	}
}

func TestLabelsDistinguishSeries(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", Labels{"stage": "a"})
	b := reg.Counter("x_total", Labels{"stage": "b"})
	if a == b {
		t.Fatal("different labels shared one counter")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Error("label crosstalk")
	}
	// Label map iteration order must not matter.
	one := reg.Gauge("y", Labels{"a": "1", "b": "2"})
	two := reg.Gauge("y", Labels{"b": "2", "a": "1"})
	if one != two {
		t.Error("label order changed series identity")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("same", nil)
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("same", nil)
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", nil)
	for _, v := range []uint64{0, 1, 2, 3, 4, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 1110 {
		t.Errorf("sum = %d", h.Sum())
	}
	if mean := h.Mean(); math.Abs(mean-1110.0/7) > 1e-9 {
		t.Errorf("mean = %v", mean)
	}
	// p50 of {0,1,2,3,4,100,1000}: 4th value is 3, bucket upper bound 4.
	if q := h.Quantile(0.5); q != 4 {
		t.Errorf("p50 = %v, want bucket upper 4", q)
	}
	// p100 lands in 1000's bucket (upper 1024).
	if q := h.Quantile(1); q != 1024 {
		t.Errorf("p100 = %v, want 1024", q)
	}
	if q := (&Histogram{scale: 1}).Quantile(0.99); q != 0 {
		t.Errorf("empty histogram quantile = %v", q)
	}
}

func TestDurationHistogramExposesSeconds(t *testing.T) {
	reg := NewRegistry()
	h := reg.DurationHistogram("d_seconds", nil)
	h.ObserveDuration(2 * time.Second)
	h.ObserveDuration(-5) // clamps to zero
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if mean := h.Mean(); math.Abs(mean-1.0) > 1e-9 {
		t.Errorf("mean = %v s, want 1", mean)
	}
}

func TestConcurrentObservations(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", nil)
	c := reg.Counter("c_total", nil)
	g := reg.Gauge("g", nil)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(uint64(i))
				c.Inc()
				g.SetMax(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d", c.Value())
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d", h.Count())
	}
	if g.Value() != workers*per-1 {
		t.Errorf("gauge watermark = %d", g.Value())
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("app_requests_total", Labels{"path": "/blur", "code": "200"}).Add(3)
	reg.Gauge("app_in_flight", nil).Set(2)
	h := reg.DurationHistogram("app_latency_seconds", Labels{"path": "/blur"})
	h.ObserveDuration(10 * time.Millisecond)
	h.ObserveDuration(20 * time.Millisecond)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE app_requests_total counter",
		`app_requests_total{code="200",path="/blur"} 3`,
		"# TYPE app_in_flight gauge",
		"app_in_flight 2",
		"# TYPE app_latency_seconds histogram",
		`app_latency_seconds_bucket{path="/blur",le="+Inf"} 2`,
		`app_latency_seconds_count{path="/blur"} 2`,
		`app_latency_seconds_sum{path="/blur"} 0.03`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be nondecreasing and end at count.
	var lastCum int
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "app_latency_seconds_bucket") {
			continue
		}
		n, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
		if err != nil {
			t.Fatalf("unparseable bucket line %q", line)
		}
		if n < lastCum {
			t.Errorf("bucket counts decreased: %q after %d", line, lastCum)
		}
		lastCum = n
	}
	if lastCum != 2 {
		t.Errorf("final cumulative bucket = %d, want 2", lastCum)
	}
}

func TestHandlerServesMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits_total", nil).Inc()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits_total 1") {
		t.Errorf("body:\n%s", rec.Body.String())
	}
}

func TestExpvarSnapshotIsJSONable(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", Labels{"x": "1"}).Add(7)
	reg.Gauge("g", nil).Set(-2)
	reg.Histogram("h", nil).Observe(16)
	raw, err := json.Marshal(reg.Expvar())
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]map[string]any
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	if tree["c_total"][`{x="1"}`] != float64(7) {
		t.Errorf("counter in expvar tree = %v", tree["c_total"])
	}
	hist, ok := tree["h"]["{}"].(map[string]any)
	if !ok || hist["count"] != float64(1) {
		t.Errorf("histogram in expvar tree = %v", tree["h"])
	}
}

func TestWriteSummaryTable(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("runs_total", Labels{"outcome": "precise"}).Add(2)
	reg.DurationHistogram("lat_seconds", nil).ObserveDuration(time.Millisecond)
	var b strings.Builder
	if err := reg.WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"METRIC", "runs_total", `{outcome="precise"}`, "counter", "lat_seconds", "n=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestOnCollectRefreshesEveryExposition: the collection callback runs before
// each of the three read paths, so a series mirrored from state kept outside
// the registry is current — and the same — in all of them, and may first
// appear from inside the callback.
func TestOnCollectRefreshesEveryExposition(t *testing.T) {
	reg := NewRegistry()
	var owned uint64 // the count its owner keeps
	reg.OnCollect(func() { reg.Counter("mirrored_total", Labels{"of": "owner"}).Store(owned) })

	owned = 3
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `mirrored_total{of="owner"} 3`) {
		t.Errorf("prometheus exposition not refreshed:\n%s", prom.String())
	}
	owned = 4
	vars, ok := reg.Expvar().(map[string]map[string]any)
	if !ok || vars["mirrored_total"][`{of="owner"}`] != uint64(4) {
		t.Errorf("expvar not refreshed: %v", reg.Expvar())
	}
	owned = 5
	var summary strings.Builder
	if err := reg.WriteSummary(&summary); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary.String(), "5 (") {
		t.Errorf("summary not refreshed:\n%s", summary.String())
	}
}
