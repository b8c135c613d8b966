package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"anytime/internal/reqtrace"
	"anytime/internal/serve"
	"anytime/internal/telemetry"
)

// fakeBackend emulates just enough of anytimed's surface for router unit
// tests: /healthz, and app routes answering with the X-Anytime-* headers
// after a configurable delay. It records the budget header it was handed.
type fakeBackend struct {
	ts      *httptest.Server
	delay   time.Duration
	snr     float64
	hits    atomic.Int32
	budgets chan string // received X-Anytime-Budget values (buffered)
}

func newFakeBackend(delay time.Duration, snr float64) *fakeBackend {
	b := &fakeBackend{delay: delay, snr: snr, budgets: make(chan string, 64)}
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte("ok\n"))
			return
		}
		b.hits.Add(1)
		select {
		case b.budgets <- r.Header.Get(serve.BudgetHeader):
		default:
		}
		if b.delay > 0 {
			select {
			case <-time.After(b.delay):
			case <-r.Context().Done():
				return
			}
		}
		w.Header().Set("X-Anytime-Version", "3")
		w.Header().Set("X-Anytime-Final", "false")
		w.Header().Set("X-Anytime-SNR-dB", fmt.Sprintf("%.2f", b.snr))
		w.Header().Set("X-Anytime-Trace", "backend-trace-id")
		w.Write([]byte("payload-" + b.ts.URL))
	}))
	return b
}

func (b *fakeBackend) name() string { return strings.TrimPrefix(b.ts.URL, "http://") }

func testRouter(t *testing.T, cfg RouterConfig, backends ...*fakeBackend) *Router {
	t.Helper()
	for _, b := range backends {
		cfg.Backends = append(cfg.Backends, b.ts.URL)
		t.Cleanup(b.ts.Close)
	}
	if cfg.HedgeMax == 0 {
		cfg.HedgeMax = -1 // hedging off unless the test asks
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func routerGet(t *testing.T, rt *Router, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestRouterAffinity: same (app, input) key → same backend, every time,
// and the response says who served it.
func TestRouterAffinity(t *testing.T) {
	b1 := newFakeBackend(0, 20)
	b2 := newFakeBackend(0, 20)
	rt := testRouter(t, RouterConfig{}, b1, b2)

	owner := ""
	for i := 0; i < 20; i++ {
		rec := routerGet(t, rt, "/blur?input=pinned")
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		got := rec.Header().Get("X-Anytime-Backend")
		if owner == "" {
			owner = got
		}
		if got != owner {
			t.Fatalf("key moved backends while membership was stable: %s then %s", owner, got)
		}
		if rec.Header().Get("X-Anytime-Hedged") != "false" {
			t.Fatalf("unhedged request marked hedged")
		}
	}
	// Distinct inputs spread: with 40 keys, both backends should see work.
	for i := 0; i < 40; i++ {
		routerGet(t, rt, fmt.Sprintf("/blur?input=k%d", i))
	}
	if b1.hits.Load() == 0 || b2.hits.Load() == 0 {
		t.Errorf("load did not spread: %d / %d", b1.hits.Load(), b2.hits.Load())
	}
}

// TestRouterBudgetPropagation: deadline requests reach the backend with a
// budget strictly no larger than the deadline; precise requests carry none.
func TestRouterBudgetPropagation(t *testing.T) {
	b := newFakeBackend(0, 20)
	rt := testRouter(t, RouterConfig{}, b)

	rec := routerGet(t, rt, "/blur?deadline=80ms")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	hdr := <-b.budgets
	if hdr == "" {
		t.Fatal("deadline request arrived without a budget header")
	}
	budget, err := time.ParseDuration(hdr)
	if err != nil {
		t.Fatalf("unparseable budget %q: %v", hdr, err)
	}
	if budget <= 0 || budget > 80*time.Millisecond {
		t.Fatalf("budget %v out of (0, 80ms]", budget)
	}

	routerGet(t, rt, "/blur")
	if hdr := <-b.budgets; hdr != "" {
		t.Fatalf("precise request carried budget %q", hdr)
	}
}

// TestRouterHedgeRescuesSlowShard: the primary owner is pathologically
// slow; the hedge fires and the fast secondary's snapshot is delivered,
// marked hedged. Uses real timers — delays are far apart (250ms vs 0), so
// the ordering is robust.
func TestRouterHedgeRescuesSlowShard(t *testing.T) {
	slow := newFakeBackend(250*time.Millisecond, 40)
	fast := newFakeBackend(0, 25)
	rt := testRouter(t, RouterConfig{
		HedgeMin:    5 * time.Millisecond,
		HedgeMax:    5 * time.Millisecond,
		TraceSample: 1,
	}, slow, fast)

	// Find a key owned by the slow backend so the hedge goes to the fast one.
	key := ""
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%d", i)
		if rt.Membership().Ring().Lookup(RingKey("/blur", k), 1)[0] == slow.name() {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key hashed to the slow backend in 200 tries")
	}

	start := time.Now()
	rec := routerGet(t, rt, "/blur?input="+key+"&deadline=100ms")
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Anytime-Backend"); got != fast.name() {
		t.Fatalf("served by %s, want the hedge target %s (elapsed %v)", got, fast.name(), elapsed)
	}
	if rec.Header().Get("X-Anytime-Hedged") != "true" {
		t.Fatal("hedged delivery not marked hedged")
	}
	// Delivered at the budget (~100ms), not the slow backend's 250ms.
	if elapsed > 200*time.Millisecond {
		t.Errorf("hedged delivery took %v; the slow shard was waited out", elapsed)
	}
	// Backend trace relayed under its own name, router trace on top.
	if rec.Header().Get("X-Anytime-Backend-Trace") != "backend-trace-id" {
		t.Error("backend trace header not relayed as X-Anytime-Backend-Trace")
	}
	if rec.Header().Get("X-Anytime-Trace") == "backend-trace-id" {
		t.Error("router trace ID overwritten by the backend's")
	}

	// The router's own trace records how the race ended — the spans its
	// /debug/requests?id= promises and its delivery metrics are read from.
	// Matched by wire name, as an operator reading the trace would.
	tr := rt.rec.Find(rec.Header().Get("X-Anytime-Trace"))
	if tr == nil {
		t.Fatal("hedged request's trace not retained")
	}
	spans := map[string]reqtrace.Event{}
	for _, e := range tr.Events() {
		spans[e.Kind.String()] = e
	}
	if e, ok := spans["hedge.win"]; !ok || e.Name != fast.name() || e.Note != "hedge" {
		t.Errorf("hedge.win span = %+v (present %v), want member %s role hedge", e, ok, fast.name())
	}
	e, ok := spans["deliver"]
	if !ok || e.Name != fast.name() || e.Note != "hedged" || e.Dur <= 0 || e.Dur > elapsed {
		t.Errorf("deliver span = %+v (present %v), want member %s, hedged, elapsed in (0, %v]", e, ok, fast.name(), elapsed)
	}
	if e.Version != 3 || e.Flag {
		t.Errorf("deliver span carries snapshot v%d final=%v, want the relayed v3 approximate", e.Version, e.Flag)
	}
}

// TestRouterNoBackends: an all-down fleet answers 503 on apps and healthz —
// loudly unavailable, not hanging.
func TestRouterNoBackends(t *testing.T) {
	b := newFakeBackend(0, 20)
	rt := testRouter(t, RouterConfig{}, b)
	rt.Membership().SetState(b.name(), StateDown)

	if rec := routerGet(t, rt, "/blur?input=x"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("app with no backends: status %d", rec.Code)
	}
	if rec := routerGet(t, rt, "/healthz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no backends: status %d", rec.Code)
	}
	rt.Membership().SetState(b.name(), StateHealthy)
	if rec := routerGet(t, rt, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz with backends: status %d", rec.Code)
	}
}

// TestRouterMemberAdmin: list, add, and drain-remove through the HTTP
// admin surface.
func TestRouterMemberAdmin(t *testing.T) {
	b1 := newFakeBackend(0, 20)
	b2 := newFakeBackend(0, 20)
	rt := testRouter(t, RouterConfig{}, b1)

	var views []memberView
	rec := routerGet(t, rt, "/members")
	if err := json.Unmarshal(rec.Body.Bytes(), &views); err != nil || len(views) != 1 {
		t.Fatalf("GET /members: %v %s", err, rec.Body.String())
	}
	if views[0].State != "healthy" {
		t.Fatalf("member state %q", views[0].State)
	}

	// Join b2.
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/members?url="+b2.ts.URL, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /members: %d %s", rec.Code, rec.Body.String())
	}
	if rt.Membership().Ring().Size() != 2 {
		t.Fatal("join did not grow the ring")
	}
	// Rejected joins: missing and duplicate URL.
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/members", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("POST /members without url: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/members?url="+b2.ts.URL, nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("duplicate join: %d", rec.Code)
	}

	// Drain-remove b2; the backend does not implement /drain (404) and the
	// removal must proceed regardless.
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/members?name="+b2.name(), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE /members: %d %s", rec.Code, rec.Body.String())
	}
	if rt.Membership().Ring().Size() != 1 || rt.Membership().Member(b2.name()) != nil {
		t.Fatal("remove did not shrink the fleet")
	}
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/members?name=ghost", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("removing unknown member: %d", rec.Code)
	}
}

// TestRouterDebugRequests: router spans land in the flight recorder and
// render (route.pick, budget, forward, deliver spans present for a traced
// request).
func TestRouterDebugRequests(t *testing.T) {
	b := newFakeBackend(0, 20)
	rt := testRouter(t, RouterConfig{TraceSample: 1}, b)

	rec := routerGet(t, rt, "/blur?input=x&deadline=50ms")
	id := rec.Header().Get("X-Anytime-Trace")
	if id == "" {
		t.Fatal("no router trace ID on the response")
	}
	detail := routerGet(t, rt, "/debug/requests?id="+id)
	if detail.Code != http.StatusOK {
		t.Fatalf("trace %s not retained: %d", id, detail.Code)
	}
	body := detail.Body.String()
	for _, span := range []string{"route.pick", "budget", "forward", "forward.done", "deliver"} {
		if !strings.Contains(body, span) {
			t.Errorf("trace detail missing %q span:\n%s", span, body)
		}
	}
	list := routerGet(t, rt, "/debug/requests")
	if !strings.Contains(list.Body.String(), id) {
		t.Error("trace list does not include the request")
	}
	js := routerGet(t, rt, "/debug/requests.json")
	if !json.Valid(js.Body.Bytes()) {
		t.Error("debug/requests.json is not valid JSON")
	}
}

// TestRouterHedgeDelayFromDigest: before samples the delay is HedgeMax;
// after traffic it tracks the configured quantile, clamped.
func TestRouterHedgeDelayFromDigest(t *testing.T) {
	b := newFakeBackend(0, 20)
	rt := testRouter(t, RouterConfig{
		HedgeMin: 2 * time.Millisecond,
		HedgeMax: 100 * time.Millisecond,
	}, b)
	if got := rt.HedgeDelay(); got != 100*time.Millisecond {
		t.Fatalf("cold hedge delay = %v, want HedgeMax", got)
	}
	for i := 0; i < 100; i++ {
		routerGet(t, rt, "/blur?input=x")
	}
	got := rt.HedgeDelay()
	if got < 2*time.Millisecond || got > 100*time.Millisecond {
		t.Fatalf("warm hedge delay %v outside clamp", got)
	}
	// Loopback fakes answer in well under 100ms, so the p99 must have
	// pulled the delay off the cold cap.
	if got == 100*time.Millisecond {
		t.Fatalf("hedge delay stuck at the cold cap after 100 samples")
	}

	rtOff := testRouter(t, RouterConfig{HedgeMax: -1}, newFakeBackend(0, 20))
	if rtOff.HedgeDelay() >= 0 {
		t.Fatal("HedgeMax<0 should disable hedging")
	}
}

// TestRouterRelaysBody: the winning backend's payload arrives byte-for-byte.
func TestRouterRelaysBody(t *testing.T) {
	b := newFakeBackend(0, 20)
	rt := testRouter(t, RouterConfig{}, b)
	rec := routerGet(t, rt, "/blur?input=x")
	want := "payload-" + b.ts.URL
	if got, _ := io.ReadAll(rec.Body); string(got) != want {
		t.Fatalf("body %q, want %q", got, want)
	}
}

// TestRouterTraceAndMetricsAgree is the router's "cannot disagree" oracle:
// with every trace retained, the per-kind event counts over the flight
// recorder equal what telemetry.RouterHooks counted, series by series.
// One backend is slow enough that its keys hedge and fast enough to answer
// inside the budget, so every race is resolved by comparison and no attempt
// is cancelled — a cancelled straggler reports forward.done after its
// request's trace is sealed, where only the sink can see it.
func TestRouterTraceAndMetricsAgree(t *testing.T) {
	slow := newFakeBackend(30*time.Millisecond, 20)
	fast := newFakeBackend(0, 30)
	reg := telemetry.NewRegistry()
	rt := testRouter(t, RouterConfig{
		HedgeMin:    5 * time.Millisecond,
		HedgeMax:    5 * time.Millisecond,
		TraceSample: 1,
		Sink:        telemetry.RouterHooks(reg),
	}, slow, fast)

	for i := 0; i < 24; i++ {
		if rec := routerGet(t, rt, fmt.Sprintf("/blur?input=k%d&deadline=2s", i)); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}

	traced := map[string]int{}
	for _, tr := range rt.rec.Snapshot() {
		for _, e := range tr.Events() {
			switch e.Kind {
			case reqtrace.KindForwardDone:
				traced[fmt.Sprintf(`anytime_router_forwards_total{member=%q,role=%q,usable="%v"}`, e.Name, e.Note, e.Flag)]++
			case reqtrace.KindHedgeFire:
				traced["anytime_router_hedges_total"]++
			case reqtrace.KindHedgeWin:
				traced[fmt.Sprintf(`anytime_router_hedge_wins_total{role=%q}`, e.Note)]++
			case reqtrace.KindHedgeCancel:
				traced[fmt.Sprintf(`anytime_router_hedge_cancels_total{member=%q}`, e.Name)]++
			case reqtrace.KindDeliver:
				traced[fmt.Sprintf(`anytime_router_deliveries_total{hedged="%v",member=%q}`, e.Note == "hedged", e.Name)]++
			}
		}
	}
	hedged := fmt.Sprintf(`anytime_router_deliveries_total{hedged="true",member=%q}`, fast.name())
	if traced[hedged] == 0 || traced["anytime_router_hedges_total"] == 0 || traced[`anytime_router_hedge_wins_total{role="hedge"}`] == 0 {
		t.Fatalf("no hedged delivery among 24 keys — the scenario exercised nothing: %v", traced)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	counted := map[string]int{}
	fed := regexp.MustCompile(`(?m)^(anytime_router_(?:forwards|hedges|hedge_wins|hedge_cancels|deliveries)_total(?:\{[^}]*\})?) (\d+)$`)
	for _, m := range fed.FindAllStringSubmatch(b.String(), -1) {
		if n, _ := strconv.Atoi(m[2]); n > 0 {
			counted[m[1]] = n
		}
	}
	if !reflect.DeepEqual(counted, traced) {
		t.Errorf("metrics and traces disagree:\n metrics %v\n traces  %v", counted, traced)
	}
}

// TestRouterObservesEachRoundTripOnce: one routed request folds its
// forward's round trip into the member's RTT average exactly once.
func TestRouterObservesEachRoundTripOnce(t *testing.T) {
	b := newFakeBackend(0, 20)
	rt := testRouter(t, RouterConfig{}, b)
	m := rt.members.Member(b.name())
	m.ObserveRTT(time.Second) // a prior far above any loopback round trip
	if rec := routerGet(t, rt, "/blur"); rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	// One sample r moves the average to 1s + (r − 1s)/4 ≈ 750ms; a second
	// would take it to ≈ 560ms.
	if got := m.RTT(); got < 700*time.Millisecond || got > 800*time.Millisecond {
		t.Fatalf("RTT average %v after one round trip from a 1s prior, want ≈750ms (one sample)", got)
	}
}
