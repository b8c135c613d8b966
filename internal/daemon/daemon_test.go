package daemon

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"anytime/internal/pix"
	"anytime/internal/testgate"
)

func testServer(t testing.TB) *Server {
	t.Helper()
	s, err := New(64, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// refOf reads the precise reference of the route served at /path from the
// route table.
func refOf(t *testing.T, s *Server, path string) *pix.Image {
	t.Helper()
	for _, rt := range s.routes {
		if rt.pool.Name() == path {
			return rt.ref
		}
	}
	t.Fatalf("no route /%s", path)
	return nil
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestIndexAndNotFound(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/")
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte("hold a request")) {
		t.Errorf("index: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, s, "/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown path: %d", rec.Code)
	}
}

func TestPreciseBlur(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/blur")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Anytime-Final") != "true" {
		t.Error("precise request did not return the final output")
	}
	if rec.Header().Get("X-Anytime-SNR-dB") != "inf" {
		t.Errorf("precise SNR = %q", rec.Header().Get("X-Anytime-SNR-dB"))
	}
	img, err := pix.DecodePNM(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if img.W != 64 || img.H != 64 || img.C != 1 {
		t.Errorf("unexpected image geometry %dx%dx%d", img.W, img.H, img.C)
	}
	if !img.Equal(refOf(t, s, "blur")) {
		t.Error("precise response differs from the reference")
	}
}

func TestShortDeadlineBlurReturnsValidApproximation(t *testing.T) {
	testgate.Goroutines(t)
	s := testServer(t)
	rec := get(t, s, "/blur?deadline=3ms")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if _, err := pix.DecodePNM(bytes.NewReader(rec.Body.Bytes())); err != nil {
		t.Fatalf("deadline response not a valid image: %v", err)
	}
	if v := rec.Header().Get("X-Anytime-Version"); v == "" || v == "0" {
		t.Errorf("version header %q", v)
	}
}

func TestAcceptKnobStopsAtThreshold(t *testing.T) {
	testgate.Goroutines(t)
	s := testServer(t)
	rec := get(t, s, "/blur?accept=10")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	snr := rec.Header().Get("X-Anytime-SNR-dB")
	if snr == "inf" {
		// Legal (small image may jump straight to precise) but the usual
		// case should stop early; just check the header parses.
		return
	}
	db, err := strconv.ParseFloat(snr, 64)
	if err != nil {
		t.Fatalf("bad SNR header %q", snr)
	}
	if db < 10 {
		t.Errorf("accepted output below threshold: %v dB", db)
	}
}

func TestClusterReturnsRGB(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/cluster?deadline=5ms")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/x-portable-pixmap" {
		t.Errorf("content type %q", ct)
	}
	img, err := pix.DecodePNM(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if img.C != 3 {
		t.Errorf("cluster returned %d channels", img.C)
	}
}

func TestEqualizePrecise(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/equalize")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	img, err := pix.DecodePNM(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !img.Equal(refOf(t, s, "equalize")) {
		t.Error("precise equalize differs from reference")
	}
}

func TestKnobValidation(t *testing.T) {
	s := testServer(t)
	cases := []string{
		"/blur?accept=-1",
		"/blur?accept=x",
		"/blur?accept=NaN",
		"/blur?deadline=banana",
		"/blur?deadline=-5ms",
		"/blur?deadline=11s",
		"/blur?deadline=5ms&accept=10",
	}
	for _, path := range cases {
		if rec := get(t, s, path); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, rec.Code)
		}
	}
}

// TestRemovedHoldKnobRefusedByName: ?hold= is outside input that used to
// mean "stop early"; it must not fall through to a precise run. Every
// spelling gets a 400 whose body points at the deadline knob.
func TestRemovedHoldKnobRefusedByName(t *testing.T) {
	s := testServer(t)
	for _, path := range []string{"/blur?hold=5ms", "/blur?hold=", "/cluster?hold=banana", "/blur?deadline=5ms&hold=5ms"} {
		rec := get(t, s, path)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "deadline") {
			t.Errorf("%s: status %d body %q, want a 400 naming deadline", path, rec.Code, rec.Body.String())
		}
	}
}

// TestDeadlineContract pins the serving contract end to end: a deadline far
// too short for the pipeline still returns 200 with a valid, decodable
// approximation (never 504), the deadline headers report the
// interruption, and the delivered-accuracy metric is recorded.
func TestDeadlineContract(t *testing.T) {
	// A larger image than the other tests so a microsecond deadline
	// reliably interrupts before the precise output.
	s, err := New(256, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := get(t, s, "/blur?deadline=1us")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	img, err := pix.DecodePNM(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("deadline response not a valid image: %v", err)
	}
	if img.W != 256 || img.H != 256 {
		t.Errorf("unexpected geometry %dx%d", img.W, img.H)
	}
	if v := rec.Header().Get("X-Anytime-Version"); v == "" || v == "0" {
		t.Errorf("version header %q", v)
	}
	if d := rec.Header().Get("X-Anytime-Deadline"); d != "1µs" {
		t.Errorf("deadline header %q", d)
	}
	if rec.Header().Get("X-Anytime-Deadline-Fired") != "true" {
		t.Error("microsecond deadline did not fire")
	}
	if rec.Header().Get("X-Anytime-Final") != "false" {
		t.Error("microsecond deadline returned the final output")
	}
	metricsBody := get(t, s, "/metrics").Body.String()
	if !strings.Contains(metricsBody, "anytimed_delivered_snr_millidb") {
		t.Error("approximate delivery did not record the delivered-accuracy metric")
	}
	if !strings.Contains(metricsBody, `anytime_serve_deliveries_total{outcome="approximate"}`) {
		t.Error("serve delivery counter missing the approximate outcome")
	}
}

// TestPooledReuseStaysPreciseAcrossRequests is the warm-pool acceptance
// bar at the HTTP level: after interrupted deadline requests, the same
// pooled automaton must still produce the bit-exact precise output, for
// more than two consecutive reuse cycles.
func TestPooledReuseStaysPreciseAcrossRequests(t *testing.T) {
	s := testServer(t)
	for cycle := 1; cycle <= 3; cycle++ {
		if rec := get(t, s, "/blur?deadline=1us"); rec.Code != http.StatusOK {
			t.Fatalf("cycle %d deadline request: %d", cycle, rec.Code)
		}
		rec := get(t, s, "/blur")
		if rec.Code != http.StatusOK {
			t.Fatalf("cycle %d precise request: %d", cycle, rec.Code)
		}
		img, err := pix.DecodePNM(bytes.NewReader(rec.Body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !img.Equal(refOf(t, s, "blur")) {
			t.Fatalf("cycle %d: pooled precise output differs from the reference", cycle)
		}
	}
	// The pool must actually have been reused, not rebuilt per request.
	body := get(t, s, "/metrics").Body.String()
	warm := counterValue(t, body, `anytime_serve_pool_gets_total{pool="blur",source="warm"}`)
	if warm < 5 {
		t.Errorf("warm pool checkouts = %d across 6 requests, want ≥ 5", warm)
	}
}

// TestQueueSaturationRejects pins admission control: with one slot, no
// waiting room, and the slot held, the next request is turned away with
// 503 immediately.
func TestQueueSaturationRejects(t *testing.T) {
	s, err := New(64, 2, Config{Slots: 1, QueueLen: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.queue.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.queue.Release()
	if rec := get(t, s, "/blur"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("saturated queue returned %d, want 503", rec.Code)
	}
}

func TestStreamEmitsVersionsAndEndsAtFinal(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/blur/stream")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q", ct)
	}
	body := rec.Body.String()
	events := strings.Count(body, "data: ")
	if events < 1 {
		t.Fatalf("no SSE events:\n%s", body)
	}
	if !strings.Contains(body, `"final":true`) {
		t.Errorf("stream did not end with the final version:\n%s", body)
	}
	if !strings.Contains(body, `"snr_db":"inf"`) {
		t.Errorf("final event not precise:\n%s", body)
	}
}

func TestClusterStream(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/cluster/stream")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"final":true`) {
		t.Error("cluster stream missing final event")
	}
}

// hangUpAtFlush is a stream client that leaves at the first event.
type hangUpAtFlush struct {
	*httptest.ResponseRecorder
	hangUp context.CancelFunc
}

func (w hangUpAtFlush) Flush() { w.hangUp() }

// TestHangUpLeavesNothingRunning is the daemon's end of the goroutine gate:
// a client that goes away mid-run — under a deadline it does not wait out,
// or after the first event of a stream — takes its automaton, its
// subscription and serve.Run's watcher down with it.
func TestHangUpLeavesNothingRunning(t *testing.T) {
	testgate.Goroutines(t)
	s, err := New(256, 2, Config{}) // large enough that a run outlives the hang-up
	if err != nil {
		t.Fatal(err)
	}
	ctx, hangUp := context.WithCancel(context.Background())
	defer time.AfterFunc(2*time.Millisecond, hangUp).Stop()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/blur?deadline=10s", nil).WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("hang-up mid-run answered %d, want the unseen 503", rec.Code)
	}

	ctx, hangUp = context.WithCancel(context.Background())
	defer hangUp()
	stream := hangUpAtFlush{httptest.NewRecorder(), hangUp}
	s.ServeHTTP(stream, httptest.NewRequest(http.MethodGet, "/blur/stream", nil).WithContext(ctx))
	if body := stream.Body.String(); !strings.Contains(body, "data: ") || strings.Contains(body, `"final":true`) {
		t.Errorf("stream left at its first event ran to the end:\n%s", body)
	}
}

// TestEveryRoutePreciseMatchesReference: with no knob, each route of the
// table delivers its final version, bit-identical to the route's reference.
func TestEveryRoutePreciseMatchesReference(t *testing.T) {
	s := testServer(t)
	if len(s.routes) != len(routeTable) {
		t.Fatalf("%d routes built from a table of %d", len(s.routes), len(routeTable))
	}
	for _, rt := range s.routes {
		rec := get(t, s, "/"+rt.pool.Name())
		if rec.Code != http.StatusOK || rec.Header().Get("X-Anytime-Final") != "true" {
			t.Fatalf("/%s: status %d, final %q", rt.pool.Name(), rec.Code, rec.Header().Get("X-Anytime-Final"))
		}
		img, err := pix.DecodePNM(bytes.NewReader(rec.Body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !img.Equal(rt.ref) {
			t.Errorf("precise /%s differs from its reference", rt.pool.Name())
		}
	}
}

// TestCacheDisabled: anytimed keeps no snapshot cache. A repeated ?input=
// key and a ?prior= naming it are plain deadline requests, answered
// without the removed cache headers, and /metrics carries no snapshot-cache
// family.
func TestCacheDisabled(t *testing.T) {
	s := testServer(t)
	for _, path := range []string{
		"/blur?deadline=2s&input=k1",
		"/blur?deadline=2s&input=k1",
		"/blur?deadline=2s&input=k2&prior=k1",
	} {
		rec := get(t, s, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		for _, h := range []string{"X-Anytime-Cache", "X-Anytime-Seed-Version"} {
			if v := rec.Header().Get(h); v != "" {
				t.Fatalf("%s: %s %q on a request that runs cold", path, h, v)
			}
		}
	}
	if body := get(t, s, "/metrics").Body.String(); strings.Contains(body, "anytime_snapcache_") {
		t.Fatal("/metrics exposes a snapshot-cache family")
	}
}
