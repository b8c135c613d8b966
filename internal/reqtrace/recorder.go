package reqtrace

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder is the always-on flight recorder: a bounded ring of completed,
// sealed traces with category sampling. Errors, rejections, deadline
// misses and the slowest-N are always retained; other
// successes are retained one in SampleEvery and merely counted otherwise.
// The ring overwrites oldest-first, so the recorder's memory is bounded by
// Size regardless of traffic, and the view at /debug/requests is
// newest-biased — exactly what a crash-cart inspection wants.
//
// Record is called once per request after Finish seals the trace, and the
// readers (Snapshot, Find) copy pointers out under the same mutex, so the
// lock is held for pointer shuffling only: recorded traces are immutable
// and rendered without the lock.
type Recorder struct {
	size    int
	sample  uint64
	created time.Time

	okSeen atomic.Uint64 // OK traces seen, for 1-in-SampleEvery sampling

	mu      sync.Mutex
	ring    []*Trace // ring[0..len) valid; next is the overwrite cursor
	next    int
	slow    []time.Duration   // ascending; the slowTraces slowest retained OK elapsed times
	kept    map[string]uint64 // traces ever retained, by the label they were filed under
	sampled uint64
	evicted uint64
}

// RecorderConfig sizes a Recorder. Zero values take the defaults.
type RecorderConfig struct {
	// Size bounds the ring (default 256).
	Size int
	// SampleEvery retains one in this many unremarkable OK traces
	// (default 16; 1 keeps every trace).
	SampleEvery int
}

// slowTraces is how many of the slowest OK traces bypass sampling.
const slowTraces = 8

// NewRecorder returns an empty flight recorder.
func NewRecorder(cfg RecorderConfig) (*Recorder, error) {
	if cfg.Size == 0 {
		cfg.Size = 256
	}
	if cfg.Size < 1 {
		return nil, fmt.Errorf("reqtrace: recorder size %d must be positive", cfg.Size)
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 16
	}
	if cfg.SampleEvery < 1 {
		return nil, fmt.Errorf("reqtrace: sample-every %d must be positive", cfg.SampleEvery)
	}
	return &Recorder{
		size:    cfg.Size,
		sample:  uint64(cfg.SampleEvery),
		created: time.Now(),
		ring:    make([]*Trace, 0, cfg.Size),
		kept:    make(map[string]uint64),
	}, nil
}

// Size reports the ring's capacity.
func (r *Recorder) Size() int { return r.size }

// SampleEvery reports the OK-trace sampling period.
func (r *Recorder) SampleEvery() int { return int(r.sample) }

// Record offers a sealed trace to the recorder; traces still in flight are
// rejected outright (retaining a mutable trace would let /debug/requests
// readers race the request's writers — the snapshot-immutability discipline
// applies to trace records too). It returns the category the trace was
// filed under and whether it was retained.
func (r *Recorder) Record(t *Trace) (Category, bool) {
	if r == nil || t == nil || !t.Done() {
		return CategoryOK, false
	}
	cat := t.Category()
	label := cat.String()
	if cat == CategoryOK {
		switch {
		case r.admitSlow(t.Elapsed()):
			cat, label = CategorySlow, CategorySlow.String()
		case r.okSeen.Add(1)%r.sample == 0:
			label = "sampled"
		default:
			r.mu.Lock()
			r.sampled++
			r.mu.Unlock()
			return CategoryOK, false
		}
	}
	r.retain(t, label)
	return cat, true
}

// admitSlow reports whether an OK trace with the given elapsed time ranks
// among the slowTraces slowest retained so far, updating the rank list if
// so.
func (r *Recorder) admitSlow(elapsed time.Duration) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.slow) < slowTraces {
		r.slow = append(r.slow, elapsed)
		sort.Slice(r.slow, func(i, j int) bool { return r.slow[i] < r.slow[j] })
		return true
	}
	if elapsed <= r.slow[0] {
		return false
	}
	r.slow[0] = elapsed
	sort.Slice(r.slow, func(i, j int) bool { return r.slow[i] < r.slow[j] })
	return true
}

// retain files t in the ring under label (its category, or "sampled" for
// an unremarkable OK trace the sampler kept), overwriting the oldest trace
// once the ring is full.
func (r *Recorder) retain(t *Trace, label string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.kept[label]++
	if len(r.ring) < r.size {
		r.ring = append(r.ring, t)
		r.next = len(r.ring) % r.size
		return
	}
	r.ring[r.next] = t
	r.next = (r.next + 1) % r.size
	r.evicted++
}

// Snapshot returns the retained traces, newest first. The returned traces
// are sealed and safe to render concurrently with further Records.
func (r *Recorder) Snapshot() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, 0, len(r.ring))
	// ring[next-1] is the newest (next equals len until the ring wraps, so
	// the same arithmetic covers both phases).
	for i := 0; i < len(r.ring); i++ {
		out = append(out, r.ring[(r.next-1-i+2*len(r.ring))%len(r.ring)])
	}
	return out
}

// Find returns the retained trace with the given ID, or nil.
func (r *Recorder) Find(id string) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.ring {
		if t.ID() == id {
			return t
		}
	}
	return nil
}

// Stats is the recorder's own bookkeeping, exposed at /debug/requests and —
// read at collection time — as the anytime_reqtrace_* series at /metrics,
// so the two views are one set of counters.
type Stats struct {
	Held       int    `json:"held"`        // traces currently retained
	Capacity   int    `json:"capacity"`    // ring size
	Recorded   uint64 `json:"recorded"`    // traces ever retained
	SampledOut uint64 `json:"sampled_out"` // OK traces counted but dropped
	Evicted    uint64 `json:"evicted"`     // retained traces overwritten
	// ByCategory splits Recorded by the label each trace was filed under:
	// error | rejected | deadline-miss | slow | sampled.
	ByCategory map[string]uint64 `json:"by_category"`
}

// Stats returns the recorder's counters.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{
		Held:       len(r.ring),
		Capacity:   r.size,
		SampledOut: r.sampled,
		Evicted:    r.evicted,
		ByCategory: maps.Clone(r.kept),
	}
	for _, n := range r.kept {
		st.Recorded += n
	}
	return st
}

// Mount registers the recorder's inspection endpoints on mux; title opens
// the summary line ("flight recorder" on a backend, "router flight recorder"
// on the router). Mounted directly, they bypass any request middleware —
// looking at the recorder must not show up in it.
//
//	GET /debug/requests          newest-first summary table of retained traces
//	GET /debug/requests?id=<ID>  one trace in full: span tree + publish timeline
//	GET /debug/requests.json     the same data machine-readable
//
// The ID is the X-Anytime-Trace response header, so "this request was slow,
// why?" is one copy-paste away from its full span timeline — if the trace
// was interesting enough to keep (errors, rejections, deadline misses and
// the slowest always are; unremarkable successes are sampled).
func (r *Recorder) Mount(mux *http.ServeMux, title string) {
	mux.HandleFunc("GET /debug/requests", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if id := req.URL.Query().Get("id"); id != "" {
			t := r.Find(id)
			if t == nil {
				http.Error(w, "trace not found (evicted, sampled out, or never seen)", http.StatusNotFound)
				return
			}
			_ = t.WriteDetail(w, 60)
			return
		}
		st := r.Stats()
		fmt.Fprintf(w, "%s: %d/%d traces held, %d recorded, %d sampled out, %d evicted\n",
			title, st.Held, st.Capacity, st.Recorded, st.SampledOut, st.Evicted)
		fmt.Fprintf(w, "detail: GET /debug/requests?id=<ID>  (IDs are echoed as X-Anytime-Trace)\n\n")
		_ = WriteList(w, r.Snapshot())
	})
	mux.HandleFunc("GET /debug/requests.json", func(w http.ResponseWriter, _ *http.Request) {
		traces := r.Snapshot()
		views := make([]View, 0, len(traces))
		for _, t := range traces {
			views = append(views, t.View())
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Stats  Stats  `json:"stats"`
			Traces []View `json:"traces"`
		}{r.Stats(), views})
	})
}
