package daemon

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// counterValue extracts the integer sample of one exact series line from a
// Prometheus exposition body, or -1 if the series is absent.
func counterValue(t *testing.T, body, series string) int64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\d+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		return -1
	}
	v, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatalf("series %s: %v", series, err)
	}
	return v
}

func TestMetricsExpositionReflectsTraffic(t *testing.T) {
	s := testServer(t)
	if rec := get(t, s, "/blur?deadline=3ms"); rec.Code != http.StatusOK {
		t.Fatalf("blur: %d", rec.Code)
	}
	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body := rec.Body.String()
	// The acceptance-criteria families must all be present after one
	// pipeline request.
	for _, family := range []string{
		"# TYPE anytime_stage_checkpoint_latency_seconds histogram",
		"# TYPE anytime_buffer_publish_total counter",
		"# TYPE anytimed_http_in_flight gauge",
		"# TYPE anytimed_http_request_duration_seconds histogram",
		"# TYPE anytimed_automaton_slots_in_use gauge",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("exposition missing %q", family)
		}
	}
	requests := counterValue(t, body, `anytimed_http_requests_total{code="200",path="/blur"}`)
	if requests < 1 {
		t.Fatalf("blur request counter = %d after one request\n%s", requests, body)
	}
	publishes := counterValue(t, body, `anytime_buffer_publish_total{buffer="conv2d"}`)
	// The repeat may reach precise inside its 3ms, so runs are counted over
	// both outcomes.
	runsTotal := func(body string) int64 {
		return max(counterValue(t, body, `anytime_automaton_runs_total{outcome="stopped"}`), 0) +
			max(counterValue(t, body, `anytime_automaton_runs_total{outcome="precise"}`), 0)
	}
	runs := runsTotal(body)

	// Values must change across requests.
	if rec := get(t, s, "/blur?deadline=3ms"); rec.Code != http.StatusOK {
		t.Fatalf("second blur: %d", rec.Code)
	}
	body2 := get(t, s, "/metrics").Body.String()
	if got := counterValue(t, body2, `anytimed_http_requests_total{code="200",path="/blur"}`); got != requests+1 {
		t.Errorf("request counter %d -> %d, want +1", requests, got)
	}
	if got := counterValue(t, body2, `anytime_buffer_publish_total{buffer="conv2d"}`); got <= publishes {
		t.Errorf("publish counter did not grow: %d -> %d", publishes, got)
	}
	if got := runsTotal(body2); got <= runs {
		t.Errorf("run counter did not grow: %d -> %d", runs, got)
	}
}

func TestHealthzAndExpvar(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("healthz: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, s, "/blur?deadline=2ms"); rec.Code != http.StatusOK {
		t.Fatalf("blur: %d", rec.Code)
	}
	rec = get(t, s, "/debug/vars")
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/vars: %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"anytime"`) || !strings.Contains(body, "anytimed_http_requests_total") {
		t.Errorf("expvar missing the registry:\n%s", body)
	}
}

// TestExactNonFinalDeliveryKeepsMetricsValid: a non-final version can be
// exact (kmeans republishes its exact image), so its delivery reads an SNR
// of +Inf. It is not observed, so /debug/vars stays valid JSON and /metrics
// writes the delivered-SNR histogram's +Inf bucket once.
func TestExactNonFinalDeliveryKeepsMetricsValid(t *testing.T) {
	s := testServer(t)
	s.recordDelivered(25, false)
	s.recordDelivered(math.Inf(1), false)
	var vars struct {
		Anytime map[string]json.RawMessage `json:"anytime"`
	}
	if err := json.Unmarshal(get(t, s, "/debug/vars").Body.Bytes(), &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	var series map[string]struct {
		Count uint64  `json:"count"`
		Sum   float64 `json:"sum"`
	}
	if err := json.Unmarshal(vars.Anytime[metricDeliveredSNR], &series); err != nil {
		t.Fatalf("/debug/vars %s: %v", metricDeliveredSNR, err)
	}
	if got := series["{}"]; got.Count != 1 || got.Sum != 25000 {
		t.Errorf("/debug/vars %s = %+v, want the one finite delivery (count 1, sum 25000)", metricDeliveredSNR, got)
	}
	body := get(t, s, "/metrics").Body.String()
	if n := strings.Count(body, metricDeliveredSNR+`_bucket{le="+Inf"}`); n != 1 {
		t.Errorf("/metrics writes %d %s +Inf bucket lines, want 1", n, metricDeliveredSNR)
	}
}

// TestUptimeAtDebugVarsWithoutScrape: uptime is refreshed by the registry's
// collection callback, not by the /metrics handler, so /debug/vars shows a
// current value on a server Prometheus never scraped. The start time is
// backdated instead of slept on: the gauge counts whole seconds.
func TestUptimeAtDebugVarsWithoutScrape(t *testing.T) {
	s := testServer(t)
	uptime := func() int64 {
		t.Helper()
		// Histogram families do not decode into integers, so only the
		// uptime family is decoded past its raw form.
		var vars struct {
			Anytime map[string]json.RawMessage `json:"anytime"`
		}
		if err := json.Unmarshal(get(t, s, "/debug/vars").Body.Bytes(), &vars); err != nil {
			t.Fatalf("/debug/vars: %v", err)
		}
		series := map[string]int64{}
		if err := json.Unmarshal(vars.Anytime[metricUptime], &series); err != nil {
			t.Fatalf("/debug/vars %s = %s: %v", metricUptime, vars.Anytime[metricUptime], err)
		}
		return series["{}"]
	}
	s.started = time.Now().Add(-90 * time.Second)
	first := uptime()
	if first < 90 {
		t.Fatalf("uptime at /debug/vars = %ds with /metrics never fetched, want >= 90", first)
	}
	s.started = s.started.Add(-10 * time.Second)
	if second := uptime(); second < first+10 {
		t.Fatalf("uptime did not advance: %ds then %ds", first, second)
	}
}

func TestPprofGatedByFlag(t *testing.T) {
	if rec := get(t, testServer(t), "/debug/pprof/cmdline"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof exposed without the flag: %d", rec.Code)
	}
	s, err := New(64, 2, Config{Pprof: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec := get(t, s, "/debug/pprof/cmdline"); rec.Code != http.StatusOK {
		t.Errorf("pprof absent with the flag: %d", rec.Code)
	}
}

// TestQueueBoundsConcurrentAutomata fires a burst of held requests well
// past the 8 slots and asserts the slots-in-use gauge (which mirrors the
// admission queue's occupancy) never exceeds the bound while every request
// still succeeds.
func TestQueueBoundsConcurrentAutomata(t *testing.T) {
	s := testServer(t)
	slots := s.reg.Gauge(metricSlotsInUse, nil)

	const burst = 24
	var maxSeen atomic.Int64
	stop := make(chan struct{})
	var poll sync.WaitGroup
	poll.Add(1)
	go func() {
		defer poll.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := slots.Value(); v > maxSeen.Load() {
				maxSeen.Store(v)
			}
		}
	}()

	var wg sync.WaitGroup
	codes := make([]int, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A deadline the queue can always meet: this burst tests the
			// concurrency bound, not the time bound.
			codes[i] = get(t, s, "/blur?deadline=5s").Code
		}(i)
	}
	wg.Wait()
	close(stop)
	poll.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("request %d: status %d", i, code)
		}
	}
	if got := maxSeen.Load(); got > int64(s.queue.Slots()) {
		t.Errorf("slots in use peaked at %d, queue bound is %d", got, s.queue.Slots())
	}
	if got := maxSeen.Load(); got < 2 {
		t.Errorf("burst of %d never ran concurrently (peak %d)", burst, got)
	}
	if v := slots.Value(); v != 0 {
		t.Errorf("slots in use = %d after the burst drained", v)
	}
}

// TestAdmitRejectsWhenSaturatedAndClientGone pins the admission edge case:
// with every slot held, an admit whose client has gone away must give up
// its place in line rather than block forever, and count the rejection.
func TestAdmitRejectsWhenSaturatedAndClientGone(t *testing.T) {
	s := testServer(t)
	bound := s.queue.Slots()
	releases := make([]func(), 0, bound)
	for i := 0; i < bound; i++ {
		req := httptest.NewRequest(http.MethodGet, "/blur", nil)
		release, ok := s.admit(req, 0)
		if !ok {
			t.Fatalf("admit %d failed with free slots", i)
		}
		releases = append(releases, release)
	}
	if v := s.reg.Gauge(metricSlotsInUse, nil).Value(); v != int64(bound) {
		t.Fatalf("slots gauge = %d, want %d", v, bound)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/blur", nil).WithContext(ctx)
	if _, ok := s.admit(req, 0); ok {
		t.Fatal("admit succeeded past the bound")
	}
	if v := s.reg.Counter(metricSlotsRejected, nil).Value(); v != 1 {
		t.Errorf("rejected counter = %d, want 1", v)
	}
	for _, release := range releases {
		release()
	}
	if v := s.reg.Gauge(metricSlotsInUse, nil).Value(); v != 0 {
		t.Errorf("slots gauge = %d after release, want 0", v)
	}
}

// TestMetricsScrapeIsValidExposition validates the complete /metrics body
// against the text exposition grammar (version 0.0.4): every line is a
// `# TYPE` header or a well-formed sample whose family was declared first,
// each family is declared exactly once, and the process-identity series
// (anytimed_build_info, anytimed_uptime_seconds) are present. A scrape that
// drifts from the grammar is silently dropped by real collectors, so this is
// tested at the full-Server level, with every subsystem's families live.
func TestMetricsScrapeIsValidExposition(t *testing.T) {
	s := testServer(t)
	// Touch every subsystem: pipeline + pools (app request), the deadline
	// path (delivered-accuracy histogram), streams, and the flight recorder.
	for _, path := range []string{"/blur?deadline=3ms", "/blur?deadline=1us", "/blur", "/blur/stream"} {
		if rec := get(t, s, path); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d", path, rec.Code)
		}
	}
	body := get(t, s, "/metrics").Body.String()

	typeRe := regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	labelRe := `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"`
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{` + labelRe + `(?:,` + labelRe + `)*\})? (-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|[-+]?Inf|NaN)$`)

	declared := map[string]string{}
	for n, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP") {
			continue
		}
		if m := typeRe.FindStringSubmatch(line); m != nil {
			if _, dup := declared[m[1]]; dup {
				t.Errorf("line %d: family %s declared twice", n+1, m[1])
			}
			declared[m[1]] = m[2]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("line %d: malformed comment %q", n+1, line)
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: malformed sample %q", n+1, line)
			continue
		}
		family := m[1]
		if _, ok := declared[family]; !ok {
			// Histogram children sample under derived names.
			base := family
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base = strings.TrimSuffix(base, suffix)
			}
			if declared[base] != "histogram" {
				t.Errorf("line %d: sample %s before its # TYPE header", n+1, family)
			}
		}
	}

	buildRe := regexp.MustCompile(`(?m)^anytimed_build_info\{goversion="go[^"]+",version="[^"]+"\} 1$`)
	if !buildRe.MatchString(body) {
		t.Error("exposition missing anytimed_build_info with goversion/version labels")
	}
	if counterValue(t, body, "anytimed_uptime_seconds") < 0 {
		t.Error("exposition missing anytimed_uptime_seconds")
	}
	for _, family := range []string{
		"anytimed_build_info", "anytimed_uptime_seconds",
		"anytime_reqtrace_recorded_total",
	} {
		if declared[family] == "" {
			t.Errorf("family %s not declared", family)
		}
	}
}
