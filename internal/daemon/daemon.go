// Package daemon is the anytimed server: the deadline-aware anytime
// serving runtime (internal/serve) wired to HTTP, with warm per-route
// pools, FIFO admission bounded by count and by time, deadlines that run
// from arrival, telemetry, request tracing, and —
// for fleet deployments behind cmd/anytimerouter — deadline-budget
// ingestion (serve.BudgetHeader) and a drain lifecycle (/drain flips
// /healthz to 503 so routers stop sending new work while in-flight
// requests finish against still-warm pools).
//
// cmd/anytimed is the thin binary wrapper; the package boundary exists so
// the cluster harness (internal/cluster) can spin real backends on
// httptest servers and test the fleet contract end-to-end in-process.
package daemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime/debug"
	"sync/atomic"
	"time"

	"anytime/internal/apps"
	"anytime/internal/core"
	"anytime/internal/metrics"
	"anytime/internal/pix"
	"anytime/internal/reqtrace"
	"anytime/internal/serve"
	"anytime/internal/telemetry"
)

// Server holds the prepared inputs, precise references, and the serving
// runtime — per-route warm pools and the FIFO admission queue — so request
// handling only pays for the automaton run itself.
type Server struct {
	mux *http.ServeMux

	// queue is the FIFO admission queue bounding concurrently running
	// automata (replacing the old unfair channel semaphore): slots execute,
	// up to queueLen more wait in arrival order, the rest are rejected, and
	// so is a deadline request whose projected wait would spend its
	// deadline.
	queue *serve.Queue

	// reg is the process metrics registry; every request's pipeline
	// reports into it through its automaton's own hooks and per-buffer
	// observers, and every serving decision through serveSink — the same
	// events the request's trace holds. slotsInUse mirrors queue occupancy
	// so the concurrency bound is visible at /metrics.
	reg        *telemetry.Registry
	serveSink  reqtrace.Sink
	slotsInUse *telemetry.Gauge

	// recorder is the always-on flight recorder: every app request gets a
	// reqtrace.Trace, and completed traces land here (category-sampled) for
	// /debug/requests. started anchors anytimed_uptime_seconds.
	recorder *reqtrace.Recorder
	started  time.Time

	// draining, when set, turns /healthz into a 503 so a routing tier's
	// health checks stop sending new work here; requests that still arrive
	// are served normally (the anytime contract holds to the last request)
	// but carry X-Anytime-Draining so the caller can tell. Flipped by
	// POST/DELETE /drain.
	draining atomic.Bool

	routes []route
}

// route is one served application: its warm pool (named after the URL
// path, which is also the /metrics pool label) and the precise reference
// deliveries are scored against.
type route struct {
	pool *serve.Pool[*pix.Image]
	ref  *pix.Image
}

// routeTable maps each URL path to its row of the apps table; stream adds
// the path's /stream endpoint.
var routeTable = []struct {
	path, app string
	stream    bool
}{
	{"blur", "conv2d", true},
	{"equalize", "histeq", false},
	{"cluster", "kmeans", true},
}

// Config carries the operational knobs from main. Zero values take
// the documented defaults; queueLen -1 means "no waiting room" (reject as
// soon as every slot is busy).
type Config struct {
	Pprof       bool
	Slots       int // concurrent automata (0 = 8)
	QueueLen    int // bounded waiting room (0 = 32, -1 = none)
	Warm        int // automata prebuilt per route pool (0 = 1)
	FlightSize  int // completed traces retained for /debug/requests (0 = 256)
	TraceSample int // retain 1 in N unremarkable OK traces (0 = 16)
}

func (c *Config) normalize() {
	if c.Slots == 0 {
		c.Slots = 8
	}
	switch c.QueueLen {
	case 0:
		c.QueueLen = 32
	case -1:
		c.QueueLen = 0
	}
	if c.Warm == 0 {
		c.Warm = 1
	}
	if c.FlightSize == 0 {
		c.FlightSize = 256
	}
	if c.TraceSample == 0 {
		c.TraceSample = 16
	}
}

// gcPercent is the collector's target heap growth (GOGC) the server sets
// for its process unless the environment sets GOGC. Every published
// version is a fresh image, about 3 MB of versions per 256² deadline
// request against a live heap near 10 MB, so at Go's default of 100 the
// collector runs every few requests; at overload its cycles cost answered
// requests (the open-loop 150 req/s, 256² workload on 2 CPUs answered
// 0.74 of its requests at 100 and 0.79–0.83 at 400).
const gcPercent = 400

func New(size, workers int, cfg Config) (*Server, error) {
	cfg.normalize()
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(gcPercent)
	}
	reg := telemetry.NewRegistry()
	serveSink := telemetry.ServeHooks(reg)
	queue, err := serve.NewQueue(cfg.Slots, cfg.QueueLen, serveSink)
	if err != nil {
		return nil, err
	}
	recorder, err := reqtrace.NewRecorder(reqtrace.RecorderConfig{
		Size:        cfg.FlightSize,
		SampleEvery: cfg.TraceSample,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		mux:        http.NewServeMux(),
		queue:      queue,
		reg:        reg,
		serveSink:  serveSink,
		slotsInUse: reg.Gauge(metricSlotsInUse, nil),
		recorder:   recorder,
		started:    time.Now(),
	}
	// Routes over the same kind of input share one image.
	inputs := map[apps.Input]*pix.Image{}
	for _, rd := range routeTable {
		app, ok := apps.Named(rd.app)
		if !ok {
			return nil, fmt.Errorf("route /%s: unknown app %q", rd.path, rd.app)
		}
		in := inputs[app.Input]
		if in == nil {
			if in, err = app.Input.Synthetic(size, 1); err != nil {
				return nil, err
			}
			inputs[app.Input] = in
		}
		opts := apps.Options{Workers: workers}
		var rt route
		if rt.ref, err = app.Precise(in, opts); err != nil {
			return nil, err
		}
		build := func() (*core.Automaton, *core.Buffer[*pix.Image], error) { return app.New(in, opts) }
		if rt.pool, err = s.newPool(rd.path, cfg, build); err != nil {
			return nil, err
		}
		s.routes = append(s.routes, rt)
		s.handle("GET /"+rd.path, s.handleApp(rt))
		if rd.stream {
			s.handle("GET /"+rd.path+"/stream", s.handleStream(build, rt.ref))
		}
	}
	s.registerOps(cfg.Pprof)
	s.recorder.Mount(s.mux, "flight recorder")
	s.handle("GET /", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "anytimed — hold a request for more precision")
		fmt.Fprintln(w, "  GET /blur?deadline=50ms  blur, best output published within 50ms")
		fmt.Fprintln(w, "  GET /blur?accept=25      blur, stopped at 25 dB")
		fmt.Fprintln(w, "  GET /equalize?deadline=10ms  histogram equalization")
		fmt.Fprintln(w, "  GET /cluster?deadline=100ms  k-means clustering")
		fmt.Fprintln(w, "  GET /blur/stream         live SSE: watch quality rise per version")
		fmt.Fprintln(w, "  GET /cluster/stream      live SSE for k-means")
		fmt.Fprintln(w, "  GET /metrics             Prometheus exposition (stages, buffers, pools, HTTP)")
		fmt.Fprintln(w, "  GET /debug/vars          expvar JSON view of the same registry")
		fmt.Fprintln(w, "  GET /debug/requests      flight recorder: recent request traces (?id= for detail)")
		fmt.Fprintln(w, "  GET /healthz             liveness probe")
		fmt.Fprintln(w, "no knob: precise output")
		fmt.Fprintln(w, "see docs/OPERATIONS.md for pool/queue sizing and the full metrics reference")
	})
	return s, nil
}

// newPool builds one route's warm pool. Telemetry attaches once per pooled
// instance, at construction: the lifecycle hooks and buffer observers
// survive Reset, so attaching per request would pile observers onto reused
// buffers. Each instance gets its own hooks value, whose checkpoint clock
// no concurrent run of the route can interleave. Buffer and stage names
// recur across instances (every /blur automaton publishes to the
// same-named buffer), so the series accumulate per route.
//
// Request tracing attaches the same way, through a per-instance
// reqtrace.Slot: the publish observer and reset hook registered here are
// permanent, and report into whichever request's trace is bound to the slot
// at the moment they fire (no trace bound = one atomic load, nothing
// recorded).
func (s *Server) newPool(name string, cfg Config, build func() (*core.Automaton, *core.Buffer[*pix.Image], error)) (*serve.Pool[*pix.Image], error) {
	p, err := serve.NewPool(name, cfg.Slots, func() (serve.Entry[*pix.Image], error) {
		a, out, err := build()
		if err != nil {
			return serve.Entry[*pix.Image]{}, err
		}
		a.SetHooks(telemetry.PipelineHooks(s.reg))
		telemetry.ObserveBuffer(s.reg, out)
		slot := &reqtrace.Slot{}
		out.OnPublish(func(sn core.Snapshot[*pix.Image]) {
			slot.Publish(out.Name(), uint64(sn.Version), len(sn.Value.Pix), sn.Final)
		})
		a.OnReset(slot.OnReset)
		return serve.Entry[*pix.Image]{Automaton: a, Out: out, Slot: slot}, nil
	}, s.serveSink)
	if err != nil {
		return nil, err
	}
	if err := p.Warm(cfg.Warm); err != nil {
		return nil, err
	}
	return p, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// handleApp builds the common anytime-over-HTTP flow around a route's warm
// pool: admission, checkout, knob dispatch, delivery, check-in. Every
// request gets a reqtrace.Trace (its ID is echoed in X-Anytime-Trace);
// completed traces go to the flight recorder, which always keeps the
// interesting ones — see /debug/requests.
//
// A deadline runs from the request's arrival: the run is granted what the
// admission wait left of it, and a request whose projected wait would
// leave nothing is refused before it waits.
func (s *Server) handleApp(rt route) http.HandlerFunc {
	pool, ref := rt.pool, rt.ref
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, tr := reqtrace.New(r.Context(), pool.Name())
		r = r.WithContext(ctx)
		sw, wrapped := w.(*statusWriter)
		if !wrapped {
			sw = &statusWriter{ResponseWriter: w}
			w = sw
		}
		w.Header().Set("X-Anytime-Trace", tr.ID())
		// Sealing must come after check-in (the deferred Put below runs
		// first — defers are LIFO) so the reset and pool.put spans land
		// inside the trace; only a sealed trace is admissible to the
		// recorder.
		defer func() {
			tr.Finish(sw.status())
			s.recorder.Record(tr)
		}()

		k, err := parseKnobs(r)
		if err != nil {
			tr.Error(err.Error())
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// A router-propagated budget caps the deadline: the fleet already
		// spent part of this request's time upstream (queue wait, network).
		// The grant bounds the admission wait of a request sent here
		// directly. A routed request is not refused on time: the router
		// already took its expected round trip, this queue's wait included,
		// off the budget, and a refusal here would only empty its hands.
		// Precise and accept requests (grant 0) wait without a time bound.
		grant, budgeted := serve.ApplyBudget(k.deadline, k.budget, k.budgetSet, time.Since(start))
		if budgeted {
			tr.Budget(grant, k.budget <= 0)
		}
		bound := grant
		if k.budgetSet {
			bound = 0
		}
		release, ok := s.admit(r, bound)
		if !ok {
			http.Error(w, "server at capacity", http.StatusServiceUnavailable)
			return
		}
		defer release()
		entry, err := pool.Get(ctx)
		if err != nil {
			tr.Error(err.Error())
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		entry.Slot.Bind(tr)
		// Check-in is deferred so that it follows the response write and
		// precedes the trace's sealing: the reset and pool.put spans land
		// inside the sealed trace without sitting on the client's critical
		// path. A failed check-in drops the entry; the pool rebuilds on
		// demand. Unbind follows Put so the check-in's reset/pool.put
		// events reach the trace.
		defer func() {
			_ = pool.Put(entry)
			entry.Slot.Unbind()
		}()

		// Every knob runs through internal/serve, so one Result carries the
		// delivered snapshot and whether the run was cut short. Every run
		// starts cold: a seeded run still computes every round from the
		// first, so a warm start at the same deadline delivers the cold
		// run's image.
		var res serve.Result[*pix.Image]
		switch {
		case k.accept > 0:
			res, err = serve.RunUntil(ctx, entry, func(sn core.Snapshot[*pix.Image]) bool {
				db, err := metrics.SNR(ref.Pix, sn.Value.Pix)
				return err == nil && db >= k.accept
			}, s.serveSink)
		case k.deadline > 0:
			// The run gets what the wait left of the deadline.
			grant, _ = serve.ApplyBudget(k.deadline, k.budget, k.budgetSet, time.Since(start))
			res, err = serve.Run(ctx, entry, grant, s.serveSink)
		default:
			res, err = serve.Run(ctx, entry, 0, s.serveSink)
		}
		if err != nil {
			httpRunError(w, err)
			return
		}
		snap := res.Snapshot

		db, err := metrics.SNR(ref.Pix, snap.Value.Pix)
		if err != nil {
			tr.Error(err.Error())
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		snrDB := db
		if math.IsInf(snrDB, 0) || math.IsNaN(snrDB) {
			snrDB = 0 // precise deliveries have no finite SNR; record "unmeasured"
		}
		tr.Deliver(uint64(snap.Version), snap.Final, res.Interrupted, snrDB, time.Since(start))
		s.recordDelivered(db, snap.Final)
		var buf bytes.Buffer
		if err := pix.EncodePNM(&buf, snap.Value); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		ct := "image/x-portable-graymap"
		if snap.Value.C == 3 {
			ct = "image/x-portable-pixmap"
		}
		w.Header().Set("Content-Type", ct)
		w.Header().Set("X-Anytime-Version", fmt.Sprint(snap.Version))
		w.Header().Set("X-Anytime-Final", fmt.Sprint(snap.Final))
		w.Header().Set("X-Anytime-SNR-dB", metrics.FormatDB(db))
		w.Header().Set("X-Anytime-Elapsed", time.Since(start).String())
		if k.deadline > 0 {
			w.Header().Set("X-Anytime-Deadline", k.deadline.String())
			w.Header().Set("X-Anytime-Effective-Deadline", grant.String())
			w.Header().Set("X-Anytime-Deadline-Fired", fmt.Sprint(res.Interrupted))
			// Echoed only when the budget actually capped the contract: a
			// budget looser than the deadline never participated, and
			// echoing it would misreport what governed the request.
			if budgeted {
				w.Header().Set(serve.BudgetHeader, serve.FormatBudget(k.budget))
			}
		}
		if s.draining.Load() {
			w.Header().Set("X-Anytime-Draining", "true")
		}
		_, _ = w.Write(buf.Bytes()) // a failed write is a client gone: nothing is left to tell it
	}
}

// httpRunError maps a serve.Run/RunUntil failure to a response: a gone
// client gets the (unseen) 503, anything else is a pipeline failure.
func httpRunError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.Canceled) {
		http.Error(w, "client went away", http.StatusServiceUnavailable)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

// recordDelivered records the delivered-accuracy metric: approximate
// deliveries observe their SNR (in millidecibels — the registry is
// integer-valued), precise ones only count (their SNR is +Inf). A
// non-final version can already be exact (kmeans republishes its exact
// image): its +Inf SNR is skipped as a final's is, since converted to an
// integer it would land past the last bucket and swamp the sum. The trace
// records such a delivery as unmeasured.
func (s *Server) recordDelivered(db float64, final bool) {
	if final || math.IsInf(db, 1) {
		return
	}
	if db < 0 {
		db = 0
	}
	s.reg.Histogram(metricDeliveredSNR, nil).Observe(uint64(db * 1000))
}

// admit takes an execution slot through the FIFO queue, giving up when the
// client goes away, the waiting room is full, or the wait ahead would
// spend budget (budget 0: no time bound). The slotsInUse gauge mirrors
// queue occupancy so the bound is observable at /metrics.
func (s *Server) admit(r *http.Request, budget time.Duration) (release func(), ok bool) {
	if err := s.queue.AcquireWithin(r.Context(), budget); err != nil {
		s.reg.Counter(metricSlotsRejected, nil).Inc()
		return nil, false
	}
	s.slotsInUse.Inc()
	return func() {
		s.slotsInUse.Dec()
		s.queue.Release()
	}, true
}
