package cluster_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anytime/internal/cluster"
	"anytime/internal/daemon"
	"anytime/internal/reqtrace"
	"anytime/internal/serve"
	"anytime/internal/testgate"
)

// harness is the in-process fleet: N real anytimed servers (internal/daemon,
// the same code the binary runs) behind real loopback listeners, fronted by
// a cluster.Router. No mocks anywhere on the serving path — the deadline contract
// is asserted against the genuine article.
type harness struct {
	backends []*httptest.Server
	names    []string
	router   *cluster.Router
	front    *httptest.Server
	client   *http.Client

	mu   sync.Mutex
	legs []leg
}

// leg is one forwarded request (health probes aside) as its backend saw it:
// the budget header the router sent and the effective deadline the daemon
// answered with (empty on a leg the router cancelled before it delivered).
type leg struct{ budget, effective string }

func newHarness(t *testing.T, n int, cfg cluster.RouterConfig) *harness {
	t.Helper()
	h := &harness{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}}
	for i := 0; i < n; i++ {
		srv, err := daemon.New(64, 2, daemon.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			srv.ServeHTTP(w, r)
			if r.URL.Path == "/healthz" {
				return
			}
			h.mu.Lock()
			h.legs = append(h.legs, leg{r.Header.Get(serve.BudgetHeader), w.Header().Get("X-Anytime-Effective-Deadline")})
			h.mu.Unlock()
		}))
		t.Cleanup(ts.Close)
		h.backends = append(h.backends, ts)
		h.names = append(h.names, strings.TrimPrefix(ts.URL, "http://"))
		cfg.Backends = append(cfg.Backends, ts.URL)
	}
	if cfg.CheckInterval == 0 {
		cfg.CheckInterval = 50 * time.Millisecond
	}
	if cfg.CheckTimeout == 0 {
		// Distinct from the interval: under -race and full request load a
		// healthy backend can take >50ms to answer a probe, and a flapping
		// checker would empty the ring mid-test. Dead backends are still
		// detected fast — connection refused fails immediately.
		cfg.CheckTimeout = 2 * time.Second
	}
	if cfg.MaxFails == 0 {
		cfg.MaxFails = 2
	}
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(context.Background())
	t.Cleanup(rt.Close)
	h.router = rt
	h.front = httptest.NewServer(rt)
	t.Cleanup(h.front.Close)
	return h
}

func (h *harness) get(t *testing.T, path string) *http.Response {
	t.Helper()
	resp, err := h.client.Get(h.front.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp
}

// TestClusterDeadlineContract: the per-node contract holds through the
// router — a deadline request returns 200 with a versioned snapshot and an
// SNR, the budget header reaches the backend, and the end-to-end time is
// bounded by the deadline, not the precise run time. Every request is
// hedged at once, so the budget chain is checked on primary and hedge legs
// alike: effective deadline ≤ forwarded budget ≤ client deadline, the
// forwarded value being exactly the one the router reported computing; a
// precise request carries neither. The whole fleet — checker, hedged
// forwards with a cancelled loser, daemon runs — leaves no goroutine behind.
func TestClusterDeadlineContract(t *testing.T) {
	testgate.Goroutines(t)
	const deadline = 50 * time.Millisecond
	var mu sync.Mutex
	computed := make(map[string]bool) // budgets the router reported, as rendered on the wire
	h := newHarness(t, 3, cluster.RouterConfig{
		HedgeMin: time.Nanosecond, HedgeMax: time.Nanosecond,
		Sink: func(e reqtrace.Event) {
			if e.Kind == reqtrace.KindBudget {
				mu.Lock()
				computed[serve.FormatBudget(e.Dur)] = true
				mu.Unlock()
			}
		},
	})
	resp := h.get(t, "/blur?input=k0")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Anytime-Final") != "true" {
		t.Errorf("precise request through the router: final=%q", resp.Header.Get("X-Anytime-Final"))
	}
	for i := 0; i < 10; i++ {
		start := time.Now()
		resp := h.get(t, fmt.Sprintf("/blur?input=k%d&deadline=%v", i, deadline))
		elapsed := time.Since(start)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("deadline request %d: status %d", i, resp.StatusCode)
		}
		if v, err := strconv.Atoi(resp.Header.Get("X-Anytime-Version")); err != nil || v < 1 {
			t.Fatalf("version %q, want >= 1 (never empty-handed)", resp.Header.Get("X-Anytime-Version"))
		}
		if _, err := strconv.ParseFloat(resp.Header.Get("X-Anytime-SNR-dB"), 64); err != nil {
			t.Fatalf("unparseable SNR %q", resp.Header.Get("X-Anytime-SNR-dB"))
		}
		if resp.Header.Get("X-Anytime-Backend") == "" {
			t.Fatal("no backend attribution")
		}
		// Bounded by the deadline plus generous scheduling slack — far
		// below the ~precise run time for a cold 64x64 automaton chain.
		if elapsed > 2*time.Second {
			t.Fatalf("deadline request took %v", elapsed)
		}
	}

	// Closing a backend waits for its handlers, cancelled legs included.
	for _, b := range h.backends {
		b.Close()
	}
	budgeted, delivered := 0, 0
	for _, l := range h.legs {
		if l.budget == "" {
			if l.effective != "" {
				t.Errorf("precise leg answered with effective deadline %q", l.effective)
			}
			continue
		}
		budgeted++
		fwd, err := time.ParseDuration(l.budget)
		if err != nil || fwd > deadline || !computed[l.budget] {
			t.Errorf("forwarded budget %q (%v): want at most the client's %v and a value the router reported computing", l.budget, err, deadline)
		}
		if l.effective == "" {
			continue // the race's loser, cancelled before it delivered
		}
		delivered++
		if eff, err := time.ParseDuration(l.effective); err != nil || eff > max(fwd, time.Nanosecond) {
			t.Errorf("effective deadline %q (%v) above the forwarded budget %v", l.effective, err, fwd)
		}
	}
	if budgeted <= 10 || delivered < 10 {
		t.Errorf("%d budgeted legs, %d delivered, for 10 requests: want a delivery for each and hedge legs besides", budgeted, delivered)
	}
}

// TestClusterAffinity: while membership is stable, one key stays on one
// backend — the consistent-hash property the warm pools depend on.
func TestClusterAffinity(t *testing.T) {
	// No hedging: a slow primary (the race detector on a busy host) would
	// otherwise be answered by the next ring member and read as a move.
	h := newHarness(t, 3, cluster.RouterConfig{HedgeMax: -1})
	owners := map[string]string{}
	for round := 0; round < 5; round++ {
		for k := 0; k < 9; k++ {
			key := fmt.Sprintf("k%d", k)
			resp := h.get(t, "/equalize?input="+key+"&deadline=30ms")
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			backend := resp.Header.Get("X-Anytime-Backend")
			if prev, seen := owners[key]; seen && prev != backend {
				t.Fatalf("key %s moved %s -> %s with stable membership", key, prev, backend)
			}
			owners[key] = backend
		}
	}
	distinct := map[string]bool{}
	for _, b := range owners {
		distinct[b] = true
	}
	if len(distinct) < 2 {
		t.Errorf("9 keys all on one backend: %v", owners)
	}
}

// TestClusterBackendKilledMidSweep is the acceptance sweep: 1000 requests
// against a 3-backend fleet, one backend killed (in-flight connections
// severed, listener closed) a third of the way through, and NOT ONE
// response may be empty-handed: every request returns 200 with a versioned
// snapshot, served by whoever was reachable — failover inside the hedged
// race before the checker reacts, the rebuilt ring after.
func TestClusterBackendKilledMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-request sweep")
	}
	h := newHarness(t, 3, cluster.RouterConfig{
		HedgeMin: 5 * time.Millisecond,
		HedgeMax: 30 * time.Millisecond,
	})

	const total = 1000
	const workers = 32
	const killAt = total / 3

	var issued atomic.Int32
	var killOnce sync.Once
	victim := h.backends[0]
	victimName := h.names[0]

	type result struct {
		status  int
		version int
		backend string
		err     error
	}
	results := make([]result, total)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				i := int(issued.Add(1)) - 1
				if i >= total {
					return
				}
				if i == killAt {
					killOnce.Do(func() {
						// Sever in-flight connections first (requests die
						// mid-flight), then stop the listener entirely.
						victim.CloseClientConnections()
						victim.Close()
					})
				}
				key := fmt.Sprintf("k%d", rng.Intn(24))
				resp, err := h.client.Get(h.front.URL + "/blur?input=" + key + "&deadline=40ms")
				if err != nil {
					results[i] = result{err: err}
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				v, _ := strconv.Atoi(resp.Header.Get("X-Anytime-Version"))
				r := result{status: resp.StatusCode, version: v, backend: resp.Header.Get("X-Anytime-Backend")}
				if len(body) == 0 {
					r.status = -1 // empty body counts as empty-handed
				}
				results[i] = r
			}
		}(w)
	}
	wg.Wait()

	emptyHanded := 0
	servedByVictimAfterKill := 0
	for i, r := range results {
		if r.err != nil || r.status != http.StatusOK || r.version < 1 {
			emptyHanded++
			t.Errorf("request %d empty-handed: status=%d version=%d err=%v", i, r.status, r.version, r.err)
			if emptyHanded > 10 {
				t.Fatal("...and more")
			}
		}
		// The victim may legitimately serve requests that were in flight
		// before the kill; afterwards the sweep is concurrent so a small
		// index skew is expected, but far-past-kill victim attributions
		// would mean the ring never rebuilt.
		if i > killAt+workers && r.backend == victimName {
			servedByVictimAfterKill++
		}
	}
	if emptyHanded > 0 {
		t.Fatalf("%d/%d responses empty-handed after killing a backend", emptyHanded, total)
	}
	if servedByVictimAfterKill > 0 {
		t.Errorf("%d responses attributed to the dead backend well after the kill", servedByVictimAfterKill)
	}
	if got := h.router.Membership().Member(victimName).State(); got != cluster.StateDown {
		t.Errorf("victim state %v after sweep, want down", got)
	}
	if h.router.Membership().Ring().Size() != 2 {
		t.Errorf("ring size %d after kill, want 2", h.router.Membership().Ring().Size())
	}
}

// TestClusterDrainLifecycle: POST /drain on a backend takes it off the
// ring via the health checker (no dropped requests), DELETE /drain rejoins
// it — the operator's rolling-restart building block.
func TestClusterDrainLifecycle(t *testing.T) {
	h := newHarness(t, 3, cluster.RouterConfig{})
	target := h.backends[1]
	name := h.names[1]

	req, _ := http.NewRequest(http.MethodPost, target.URL+"/drain", nil)
	resp, err := h.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !waitTrue(t, func() bool { return h.router.Membership().Member(name).State() == cluster.StateDraining }) {
		t.Fatal("checker never saw the drain")
	}
	// The ring is rebuilt just after the state flips, not atomically with it.
	if !waitTrue(t, func() bool { return h.router.Membership().Ring().Size() == 2 }) {
		t.Fatal("draining member still on the ring")
	}
	// Traffic flows around it.
	for i := 0; i < 12; i++ {
		r := h.get(t, fmt.Sprintf("/blur?input=k%d&deadline=30ms", i))
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("request during drain: %d", r.StatusCode)
		}
		if r.Header.Get("X-Anytime-Backend") == name {
			t.Fatalf("new work routed to a draining backend")
		}
	}
	// Rejoin.
	req, _ = http.NewRequest(http.MethodDelete, target.URL+"/drain", nil)
	resp, err = h.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !waitTrue(t, func() bool { return h.router.Membership().Member(name).State() == cluster.StateHealthy }) {
		t.Fatal("backend never rejoined after DELETE /drain")
	}
	if !waitTrue(t, func() bool { return h.router.Membership().Ring().Size() == 3 }) {
		t.Fatal("rejoined member not back on the ring")
	}
}

// TestClusterLoadgenSmoke: the load generator end-to-end against the
// in-process fleet — a miniature of the nightly CI smoke and the BENCH
// run. Low rate, short window; asserts the report is coherent and no
// request came back empty-handed.
func TestClusterLoadgenSmoke(t *testing.T) {
	testgate.Goroutines(t)
	dur, minSent := 2*time.Second, 100
	if testing.Short() {
		dur, minSent = 250*time.Millisecond, 10
	}
	h := newHarness(t, 3, cluster.RouterConfig{})
	rep, err := cluster.RunLoad(t.Context(), cluster.LoadConfig{
		Target:   h.front.URL,
		Routes:   []string{"/blur", "/equalize"},
		Deadline: 40 * time.Millisecond,
		Rate:     60,
		Duration: dur,
		Curve:    "poisson",
		Seed:     7,
		Keys:     12,
		Client:   h.client,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent < minSent {
		t.Fatalf("sent %d, want the full schedule", rep.Sent)
	}
	if rep.NonOK != 0 || rep.Errors != 0 {
		t.Fatalf("empty-handed under nominal load: non_ok=%d errors=%d (of %d)", rep.NonOK, rep.Errors, rep.Sent)
	}
	if rep.OK+rep.Dropped != rep.Sent {
		t.Fatalf("accounting: ok=%d dropped=%d sent=%d", rep.OK, rep.Dropped, rep.Sent)
	}
	if rep.LatencyP50Ms <= 0 || rep.LatencyP99Ms < rep.LatencyP50Ms {
		t.Fatalf("latency percentiles incoherent: p50=%.2f p99=%.2f", rep.LatencyP50Ms, rep.LatencyP99Ms)
	}
	if rep.SNRP50DB <= 0 {
		t.Fatalf("delivered SNR p50 = %.2f dB, want positive", rep.SNRP50DB)
	}
}

// waitTrue polls cond for up to five seconds — for state that flips on the
// health checker's cadence, not synchronously.
func waitTrue(t *testing.T, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}
