package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"anytime/internal/reqtrace"
	"anytime/internal/serve"
)

// Default routing parameters; RouterConfig zero values take these.
const (
	// DefaultReplicas is the virtual-node count per member on the ring.
	DefaultReplicas = 64
	// DefaultHedgeQuantile is the latency quantile the hedge delay tracks:
	// hedging at p99 re-issues ~1% of requests.
	DefaultHedgeQuantile = 0.99
	// DefaultHedgeMin floors the hedge delay so a fast fleet doesn't hedge
	// every request off measurement noise.
	DefaultHedgeMin = 2 * time.Millisecond
	// DefaultHedgeMax caps the hedge delay so one latency spike in the
	// digest can't disable hedging for everyone after it. It also serves
	// as the delay before any samples arrive.
	DefaultHedgeMax = 250 * time.Millisecond
)

// digestSize is the latency-sample window behind the hedge quantile.
const digestSize = 512

// RouterConfig assembles a Router. Backends is the only required field.
type RouterConfig struct {
	// Backends are the anytimed base URLs forming the initial fleet.
	Backends []string
	// Replicas is the virtual-node count per member (default 64).
	Replicas int
	// HedgeQuantile picks the hedge delay from the latency digest
	// (default 0.99). Values outside (0,1) take the default.
	HedgeQuantile float64
	// HedgeMin / HedgeMax clamp the derived hedge delay (defaults 2ms /
	// 250ms). HedgeMax also stands in before any samples arrive. Setting
	// HedgeMax < 0 disables hedging entirely.
	HedgeMin, HedgeMax time.Duration
	// CheckInterval / CheckTimeout / MaxFails size the health checker
	// (defaults: 1s interval, interval timeout, 3 consecutive fails).
	CheckInterval, CheckTimeout time.Duration
	MaxFails                    int
	// Client performs forwards and probes (default http.DefaultClient).
	Client *http.Client
	// Sink observes every routing decision (telemetry.RouterHooks); may be
	// nil.
	Sink reqtrace.Sink
	// FlightSize / TraceSample size the router's own flight recorder
	// (reqtrace.RecorderConfig defaults apply).
	FlightSize, TraceSample int

	// timer overrides the hedge/budget clock; tests only.
	timer timerFunc
}

// Router is the fleet's front tier. It consistent-hashes each request's
// (app, input) key onto the ring of healthy anytimed backends, forwards
// with the remaining deadline budget in the X-Anytime-Budget header, hedges
// stragglers onto the next ring member after a p99-derived delay, and
// relays whichever snapshot has the higher SNR when the budget resolves the
// race — the anytime contract, lifted to a fleet: the deadline is the
// client's end-to-end deadline, and the answer is the best snapshot any
// reachable backend published within it.
type Router struct {
	members *Membership
	checker *Checker
	client  *http.Client
	sink    reqtrace.Sink
	rec     *reqtrace.Recorder
	digest  *Digest

	quantile float64
	hedgeMin time.Duration
	hedgeMax time.Duration
	timer    timerFunc

	mux *http.ServeMux
}

// NewRouter builds a router over the configured backends. Call Start to
// begin health checking and Close to stop it.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.HedgeQuantile <= 0 || cfg.HedgeQuantile >= 1 {
		cfg.HedgeQuantile = DefaultHedgeQuantile
	}
	if cfg.HedgeMin <= 0 {
		cfg.HedgeMin = DefaultHedgeMin
	}
	if cfg.HedgeMax == 0 {
		cfg.HedgeMax = DefaultHedgeMax
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.MaxFails <= 0 {
		cfg.MaxFails = 3
	}
	members, err := NewMembership(cfg.Backends, cfg.Replicas, cfg.Sink)
	if err != nil {
		return nil, err
	}
	rec, err := reqtrace.NewRecorder(reqtrace.RecorderConfig{
		Size:        cfg.FlightSize,
		SampleEvery: cfg.TraceSample,
	})
	if err != nil {
		return nil, err
	}
	rt := &Router{
		members:  members,
		checker:  NewChecker(members, cfg.Client, cfg.CheckInterval, cfg.CheckTimeout, cfg.MaxFails),
		client:   cfg.Client,
		sink:     cfg.Sink,
		rec:      rec,
		digest:   NewDigest(digestSize),
		quantile: cfg.HedgeQuantile,
		hedgeMin: cfg.HedgeMin,
		hedgeMax: cfg.HedgeMax,
		timer:    cfg.timer,
		mux:      http.NewServeMux(),
	}
	rt.routes()
	return rt, nil
}

// Start launches the health checker under ctx: cancelling ctx ends the
// probe loop (Close still works for callers that prefer explicit shutdown).
func (rt *Router) Start(ctx context.Context) { rt.checker.Start(ctx) }

// Close stops the health checker. In-flight requests complete.
func (rt *Router) Close() { rt.checker.Stop() }

// Membership exposes the fleet registry (tests, admin tooling).
func (rt *Router) Membership() *Membership { return rt.members }

// HedgeDelay returns the current hedge delay: the configured quantile of
// the latency digest clamped to [HedgeMin, HedgeMax], HedgeMax before any
// samples arrive, and a negative value (hedging disabled) when HedgeMax<0.
func (rt *Router) HedgeDelay() time.Duration {
	if rt.hedgeMax < 0 {
		return -1
	}
	d := rt.digest.Quantile(rt.quantile)
	if d == 0 {
		return rt.hedgeMax
	}
	if d < rt.hedgeMin {
		return rt.hedgeMin
	}
	if d > rt.hedgeMax {
		return rt.hedgeMax
	}
	return d
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

func (rt *Router) routes() {
	rt.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if rt.members.Ring().Lookup("", 1) == nil {
			http.Error(w, "no healthy backends", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	rt.mux.HandleFunc("GET /members", rt.handleMembersList)
	rt.mux.HandleFunc("POST /members", rt.handleMemberAdd)
	rt.mux.HandleFunc("DELETE /members", rt.handleMemberRemove)
	rt.rec.Mount(rt.mux, "router flight recorder")
	// Everything else is an app route, proxied onto the ring.
	rt.mux.HandleFunc("/", rt.handleProxy)
}

// memberView is the JSON shape of GET /members.
type memberView struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	State string `json:"state"`
	RTT   string `json:"rtt"`
}

func (rt *Router) handleMembersList(w http.ResponseWriter, r *http.Request) {
	ms := rt.members.Members()
	views := make([]memberView, 0, len(ms))
	for _, m := range ms {
		views = append(views, memberView{m.Name, m.URL, m.State().String(), m.RTT().String()})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(views)
}

// handleMemberAdd joins a backend: POST /members?url=http://host:port.
// The new member starts healthy; the next probe sweep corrects that if
// it's wrong. Only its share of keys moves.
func (rt *Router) handleMemberAdd(w http.ResponseWriter, r *http.Request) {
	u := r.URL.Query().Get("url")
	if u == "" {
		http.Error(w, "missing url parameter", http.StatusBadRequest)
		return
	}
	if err := rt.members.Add(u); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintln(w, "added")
}

// handleMemberRemove drains then drops a backend:
// DELETE /members?name=host:port. The backend is asked to drain (so its
// own /healthz flips for any other router watching it), marked draining
// here immediately (off the ring without waiting for a probe), and
// forgotten. In-flight requests to it complete.
func (rt *Router) handleMemberRemove(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	m := rt.members.Member(name)
	if m == nil {
		http.Error(w, "unknown member", http.StatusNotFound)
		return
	}
	rt.members.SetState(name, StateDraining)
	if req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, m.URL+"/drain", nil); err == nil {
		if resp, err := rt.client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	rt.members.Remove(name)
	fmt.Fprintln(w, "removed")
}

// handleProxy is the routing hot path: key → ring lookup → budget →
// hedged forward → relay the winning snapshot.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	arrival := time.Now()
	ctx, tr := reqtrace.New(r.Context(), r.URL.Path)
	w.Header().Set("X-Anytime-Trace", tr.ID())
	status := http.StatusOK
	defer func() {
		tr.Finish(status)
		rt.rec.Record(tr)
	}()

	// The routing key pins (app, input) to a backend so its warm pools see
	// the same keys across requests. The input key arrives as the ?input
	// query parameter; absent, the app alone routes (all
	// backends currently serve the same built-in input set).
	key := RingKey(r.URL.Path, r.URL.Query().Get("input"))
	ring := rt.members.Ring()
	targets := ring.Lookup(key, 2)
	if len(targets) == 0 {
		status = http.StatusServiceUnavailable
		tr.Error("no healthy backends")
		http.Error(w, "no healthy backends", status)
		return
	}
	tr.RoutePick(targets[0], key, 0)
	if len(targets) > 1 {
		tr.RoutePick(targets[1], key, 1)
	}
	primary := rt.members.Member(targets[0])
	if primary == nil {
		status = http.StatusServiceUnavailable
		http.Error(w, "no healthy backends", status)
		return
	}

	// Budget arithmetic: what remains of the client's deadline after the
	// router's own dwell and the expected network round trip. Zero-deadline
	// (precise) requests are never budgeted.
	deadline := parseDeadline(r)
	budget, floored := Remaining(deadline, time.Since(arrival), primary.RTT())
	if deadline > 0 {
		rt.sink.Send(tr.Budget(budget, floored))
	}

	// Assemble the race: hedge onto the next ring member if there is one.
	up1 := rt.upstream(primary, "primary", r, deadline, budget)
	var up2 *upstream
	if len(targets) > 1 {
		if second := rt.members.Member(targets[1]); second != nil {
			up2 = rt.upstream(second, "hedge", r, deadline, budget)
		}
	}
	rc := race{
		hedgeDelay: rt.HedgeDelay(),
		timer:      rt.timer,
		tr:         tr,
		sink:       rt.sink,
	}
	// The race's budget timer bounds the selection phase after a hedge
	// fires. The backends bound themselves via the forwarded header; the
	// router-side timer only needs to cover the leftover (network skew),
	// so it gets the budget plus slack rather than a second full deadline.
	if deadline > 0 && budget > 0 {
		// The race timer is router-side bookkeeping, not the wire budget: the
		// backends were already handed the unwidened value, and the +25% slack
		// only keeps the selection phase from abandoning a response that the
		// backend is still entitled to deliver at its own deadline.
		rc.budget = budget + budget/4
	}

	resp, err := runRace(ctx, rc, up1, up2)
	if err != nil {
		status = http.StatusBadGateway
		tr.Error(err.Error())
		if ctx.Err() != nil {
			status = 499 // client went away; nobody to answer
		}
		http.Error(w, "no backend could serve the request", status)
		return
	}

	elapsed := time.Since(arrival)
	rt.digest.Observe(elapsed)
	hedged := resp.role == "hedge"
	rt.sink.Send(tr.RouterDeliver(resp.member, hedged, resp.version, resp.final, elapsed))

	// Relay the winner verbatim, plus the router's own provenance headers.
	h := w.Header()
	for k, vs := range resp.header {
		if k == "X-Anytime-Trace" {
			// The router's trace ID names the end-to-end request; the
			// backend's names one leg of it.
			k = "X-Anytime-Backend-Trace"
		}
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	h.Set("X-Anytime-Trace", tr.ID())
	h.Set("X-Anytime-Backend", resp.member)
	h.Set("X-Anytime-Hedged", strconv.FormatBool(hedged))
	status = resp.status
	w.WriteHeader(status)
	_, _ = w.Write(resp.body)
}

// upstream builds one forwarding attempt against a member. The forwarded
// request carries the original path and query plus the budget header; its
// context is the race's per-attempt context, so cancelling the race loser
// tears the connection down.
func (rt *Router) upstream(m *Member, role string, r *http.Request, deadline, budget time.Duration) *upstream {
	target := m.URL + r.URL.RequestURI()
	return &upstream{
		member: m.Name,
		role:   role,
		do: func(ctx context.Context) *backendResponse {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
			if err != nil {
				return nil
			}
			if deadline > 0 {
				req.Header.Set(serve.BudgetHeader, serve.FormatBudget(budget))
			}
			start := time.Now()
			resp, err := rt.client.Do(req)
			if err != nil {
				return nil
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				return nil
			}
			rtt := time.Since(start)
			m.ObserveRTT(rtt)
			br := &backendResponse{
				member: m.Name,
				role:   role,
				status: resp.StatusCode,
				header: resp.Header,
				body:   body,
				rtt:    rtt,
			}
			// strconv accepts "inf" (metrics.FormatDB's spelling for a
			// final snapshot), so one parse covers both cases.
			if v, err := strconv.ParseFloat(resp.Header.Get("X-Anytime-SNR-dB"), 64); err == nil {
				br.snr = v
			}
			br.final = resp.Header.Get("X-Anytime-Final") == "true"
			br.version, _ = strconv.ParseUint(resp.Header.Get("X-Anytime-Version"), 10, 64)
			return br
		},
	}
}

// parseDeadline reads the request's deadline knob; malformed values are
// left for the backend to reject (the router does not duplicate knob
// validation), so errors here read as "no deadline".
func parseDeadline(r *http.Request) time.Duration {
	d := r.URL.Query().Get("deadline")
	if d == "" {
		return 0
	}
	v, err := time.ParseDuration(d)
	if err != nil || v <= 0 {
		return 0
	}
	return v
}
