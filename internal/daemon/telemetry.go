package daemon

import (
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anytime/internal/telemetry"
)

// Server-level metric names; the pipeline-level families come from
// internal/telemetry's bindings.
const (
	metricHTTPRequests  = "anytimed_http_requests_total"
	metricHTTPDuration  = "anytimed_http_request_duration_seconds"
	metricHTTPInFlight  = "anytimed_http_in_flight"
	metricSlotsInUse    = "anytimed_automaton_slots_in_use"
	metricSlotsRejected = "anytimed_automaton_slots_rejected_total"
	// metricDeliveredSNR is the delivered-accuracy histogram: the SNR (in
	// millidecibels; the registry is integer-valued) of every approximate
	// delivery. Precise deliveries are counted by
	// anytime_serve_deliveries_total{outcome="precise"} instead — their SNR
	// is +Inf.
	metricDeliveredSNR = "anytimed_delivered_snr_millidb"
	// metricBuildInfo is the conventional constant-1 info gauge carrying the
	// build's identity as labels; metricUptime is seconds since the server
	// was constructed, refreshed at each collection.
	metricBuildInfo = "anytimed_build_info"
	metricUptime    = "anytimed_uptime_seconds"
)

// handle registers h under pattern with the per-request metrics middleware:
// request count by route and status, a latency histogram by route, and an
// in-flight gauge. The route label is the mux pattern's path (bounded
// cardinality), never the raw request path.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	route := pattern
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		route = pattern[i+1:]
	}
	duration := s.reg.DurationHistogram(metricHTTPDuration, telemetry.Labels{"path": route})
	inFlight := s.reg.Gauge(metricHTTPInFlight, nil)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		inFlight.Inc()
		defer inFlight.Dec()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		duration.ObserveDuration(time.Since(start))
		s.reg.Counter(metricHTTPRequests, telemetry.Labels{
			"path": route,
			"code": strconv.Itoa(sw.status()),
		}).Inc()
	})
}

// statusWriter captures the response status for the request counter. It
// forwards Flush so the SSE stream handlers keep working through the
// middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// registerOps mounts the operational endpoints: Prometheus exposition,
// expvar, a liveness probe, and (behind the -pprof flag) the runtime
// profiler. These bypass the request middleware so scrapes don't count as
// traffic.
func (s *Server) registerOps(enablePprof bool) {
	s.reg.Gauge(metricBuildInfo, telemetry.Labels{
		"version":   buildVersion(),
		"goversion": runtime.Version(),
	}).Set(1)
	s.reg.OnCollect(s.collect)
	s.mux.Handle("GET /metrics", s.reg.Handler())
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	publishExpvarRegistry(s.reg)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	// The drain lifecycle: POST /drain marks the server draining (healthz
	// goes 503, so a router's health checker stops routing new work here
	// while in-flight and straggler requests still complete against warm
	// pools); DELETE /drain rejoins the fleet. Idempotent in both
	// directions — the response reports the state after the call.
	s.mux.HandleFunc("POST /drain", func(w http.ResponseWriter, r *http.Request) {
		s.draining.Store(true)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "draining")
	})
	s.mux.HandleFunc("DELETE /drain", func(w http.ResponseWriter, r *http.Request) {
		s.draining.Store(false)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "serving")
	})
	if enablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// collect is the registry's collection callback: it refreshes every series
// that mirrors state kept elsewhere — process uptime and the flight
// recorder's Stats, read once under its lock — so /metrics, /debug/vars
// and the summary table see the same values as /debug/requests, current
// without a background ticker. Labeled series appear with their first
// nonzero count, like the event-fed ones.
func (s *Server) collect() {
	s.reg.Gauge(metricUptime, nil).Set(int64(time.Since(s.started).Seconds()))
	st := s.recorder.Stats()
	s.reg.Counter(telemetry.MetricReqtraceSampledOut, nil).Store(st.SampledOut)
	s.reg.Counter(telemetry.MetricReqtraceEvicted, nil).Store(st.Evicted)
	for category, n := range st.ByCategory {
		s.reg.Counter(telemetry.MetricReqtraceRecorded, telemetry.Labels{"category": category}).Store(n)
	}
}

// buildVersion reports the main module's version from the binary's embedded
// build info — "(devel)" for plain `go build`, a pseudo-version or tag for
// module-installed builds, "unknown" when no build info is embedded.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// The expvar package rejects duplicate Publish names with a panic, but
// tests construct many servers per process; publish one process-wide
// expvar that reads whichever registry the newest server installed.
var (
	expvarOnce     sync.Once
	expvarRegistry atomic.Pointer[telemetry.Registry]
)

func publishExpvarRegistry(reg *telemetry.Registry) {
	expvarRegistry.Store(reg)
	expvarOnce.Do(func() {
		expvar.Publish("anytime", expvar.Func(func() any {
			if r := expvarRegistry.Load(); r != nil {
				return r.Expvar()
			}
			return nil
		}))
	})
}
