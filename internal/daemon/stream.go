package daemon

import (
	"fmt"
	"net/http"
	"time"

	"anytime/internal/core"
	"anytime/internal/metrics"
	"anytime/internal/pix"
	"anytime/internal/telemetry"
)

// handleStream serves one Server-Sent Events endpoint: the client watches
// the whole-application output quality rise live, one event per published
// version, and decides for itself when to stop listening — the
// hold-the-power-button interaction with the button on the client side.
//
// Streams build fresh automata rather than drawing from the warm pools: a
// stream holds its automaton for the client's whole attention span, so
// construction cost is noise, and keeping them out of the pools means a
// few long-lived stream watchers cannot starve the request path's warm
// instances. They do share the admission queue — a stream occupies an
// execution slot like any request.
//
// One SSE event is emitted per published output version:
//
//	data: {"version":3,"final":false,"snr_db":"24.18","elapsed_ms":12}
//
// The stream ends at the final (precise) version; closing the request
// stops the automaton.
func (s *Server) handleStream(build func() (*core.Automaton, *core.Buffer[*pix.Image], error), ref *pix.Image) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		flusher, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		release, ok := s.admit(r, 0)
		if !ok {
			http.Error(w, "server at capacity", http.StatusServiceUnavailable)
			return
		}
		defer release()
		a, out, err := build()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// Fresh (unpooled) automaton: attaching the observer per request
		// cannot pile up, the buffer dies with the stream.
		a.SetHooks(telemetry.PipelineHooks(s.reg))
		telemetry.ObserveBuffer(s.reg, out)
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")

		sub := out.Subscribe(r.Context())
		start := time.Now()
		if err := a.Start(r.Context()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer a.Stop()
		for snap := range sub {
			db, err := metrics.SNR(ref.Pix, snap.Value.Pix)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "data: {\"version\":%d,\"final\":%v,\"snr_db\":%q,\"elapsed_ms\":%d}\n\n",
				snap.Version, snap.Final, metrics.FormatDB(db), time.Since(start).Milliseconds())
			flusher.Flush()
		}
	}
}
