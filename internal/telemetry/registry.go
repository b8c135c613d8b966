// Package telemetry is the runtime observability layer of the anytime
// automaton: a lock-cheap metrics registry (counters, gauges, atomic
// histograms with fixed log-scale buckets) plus typed bindings that watch a
// running pipeline through core's Hooks and buffer observers. The paper's
// evaluation measures everything after the fact; a served automaton
// (cmd/anytimed) needs the same quantities — per-stage checkpoint latency,
// per-buffer publish rates and version watermarks, accuracy-versus-time —
// live, from every stage goroutine at once, without perturbing the pipeline
// being measured.
//
// Design: instrument handles are resolved once (a mutex-guarded map) and
// then updated with single atomic operations, so the hot paths — a publish,
// a checkpoint — never contend on the registry itself.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels attach dimensions to an instrument (stage name, buffer name, HTTP
// route). Instruments with the same name and different labels are distinct
// time series under one metric family, exactly as in Prometheus.
type Labels map[string]string

// Registry holds all instruments of one process (or one run). The zero
// value is not usable; call NewRegistry.
type Registry struct {
	created time.Time

	mu     sync.Mutex
	series map[string]*series // keyed by name + canonical labels

	collectMu sync.Mutex // serializes collect, so mirrored counters stay monotone
	collect   func()
}

// series is one registered time series: exactly one of the instrument
// fields is set, according to kind.
type series struct {
	name   string
	labels Labels
	key    string
	kind   kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// NewRegistry returns an empty registry. Its creation time anchors the
// rate column of WriteSummary.
func NewRegistry() *Registry {
	return &Registry{created: time.Now(), series: map[string]*series{}}
}

// seriesKey canonicalizes name+labels so the same instrument is returned
// for the same identity regardless of map iteration order.
func seriesKey(name string, labels Labels) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	for _, k := range keys {
		b.WriteByte(0)
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}

// lookup returns the series for name+labels, creating it with make if
// absent. It panics if the name is already registered with a different
// instrument kind — that is a programming error, like redeclaring a
// variable with a different type.
func (r *Registry) lookup(name string, labels Labels, k kind, build func(*series)) *series {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[key]; ok {
		if s.kind != k {
			panic(fmt.Sprintf("telemetry: %q already registered as a %v, requested as a %v", name, s.kind, k))
		}
		return s
	}
	s := &series{name: name, labels: copyLabels(labels), key: key, kind: k}
	build(s)
	r.series[key] = s
	return s
}

// copyLabels defensively copies labels so later caller mutation cannot
// desynchronize a series from its canonical key.
func copyLabels(labels Labels) Labels {
	if len(labels) == 0 {
		return nil
	}
	c := Labels{}
	for k, v := range labels {
		c[k] = v
	}
	return c
}

// Counter returns the monotonically increasing counter registered under
// name+labels, creating it on first use.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	s := r.lookup(name, labels, kindCounter, func(s *series) { s.counter = &Counter{} })
	return s.counter
}

// Gauge returns the gauge registered under name+labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	s := r.lookup(name, labels, kindGauge, func(s *series) { s.gauge = &Gauge{} })
	return s.gauge
}

// Histogram returns the histogram registered under name+labels, creating it
// on first use. Observations are raw uint64 values bucketed on a fixed
// power-of-two log scale.
func (r *Registry) Histogram(name string, labels Labels) *Histogram {
	s := r.lookup(name, labels, kindHistogram, func(s *series) { s.hist = &Histogram{scale: 1} })
	return s.hist
}

// DurationHistogram returns a histogram whose observations are
// time.Durations, exposed in seconds (the Prometheus convention; name it
// *_seconds). Internally it buckets nanoseconds on the same power-of-two
// log scale.
func (r *Registry) DurationHistogram(name string, labels Labels) *Histogram {
	s := r.lookup(name, labels, kindHistogram, func(s *series) { s.hist = &Histogram{scale: 1e-9} })
	return s.hist
}

// OnCollect registers fn to run before every exposition. WritePrometheus,
// Expvar and WriteSummary all read through snapshot, so series that mirror
// state another package keeps under its own lock (a cache's size, a
// recorder's counters, process uptime) are refreshed for all three by the
// one callback and cannot disagree between them. fn runs without the
// registry lock held and may create instruments; a later call replaces it.
func (r *Registry) OnCollect(fn func()) {
	r.collectMu.Lock()
	r.collect = fn
	r.collectMu.Unlock()
}

// snapshot runs the collection callback, then returns the registered series
// sorted by name then label key, for deterministic exposition.
func (r *Registry) snapshot() []*series {
	r.collectMu.Lock()
	if r.collect != nil {
		r.collect()
	}
	r.collectMu.Unlock()
	r.mu.Lock()
	out := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].key < out[j].key
	})
	return out
}

// Counter is a monotonically increasing counter. The zero value is ready to
// use, but instruments should be obtained from a Registry so they are
// exposed.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Store sets the count to n. It is for a series mirrored from a monotone
// count its owner keeps, refreshed from Registry.OnCollect; an event-fed
// counter uses Inc and Add.
func (c *Counter) Store(n uint64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed value (queue depth, in-flight requests,
// a version watermark).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// SetMax raises the gauge to v if v is greater — a monotone watermark
// (highest published version, deepest queue).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count: bucket i holds observations v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). Observations are recorded
// with two atomic adds and no locks, so every stage goroutine can write the
// same histogram concurrently.
const histBuckets = 65

// Histogram is a fixed log2-bucket histogram. Observations and reads are
// lock-free; a read concurrent with writes sees a slightly torn but
// monotone view, which is exactly what scrape-based monitoring tolerates.
type Histogram struct {
	scale   float64 // exposition multiplier: 1 for raw values, 1e-9 for ns→s
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one raw value.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// ObserveDuration records a duration (negative durations clamp to zero).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed raw values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Mean returns the mean observation in exposition units (seconds for
// duration histograms), or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) * h.scale / float64(n)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 <= q <= 1)
// in exposition units: the upper edge of the bucket containing it. Log2
// buckets bound the estimate within 2x of the true value.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank == 0 {
		rank = 1
	}
	// A rank in bucket 64 (values of 2^63 and up) reports bucket 63's
	// upper edge, as Prometheus' histogram_quantile does for the +Inf
	// bucket, so the estimate stays finite.
	var cum uint64
	for i := range histBuckets - 1 {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return h.bucketUpper(i)
		}
	}
	return h.bucketUpper(histBuckets - 2)
}

// bucketUpper is finite bucket i's (i < 64) inclusive upper bound in
// exposition units.
func (h *Histogram) bucketUpper(i int) float64 {
	// Bucket i holds values < 2^i (bits.Len64(v) == i ⇒ v <= 2^i - 1).
	return float64(uint64(1)<<uint(i)) * h.scale
}

// cumulative returns the per-bucket cumulative counts up to and including
// the highest nonempty finite bucket, ready for Prometheus `le`
// exposition. Bucket 64, whose upper edge is +Inf, is left out: the
// exposition writes the +Inf bucket itself, from the total count.
func (h *Histogram) cumulative() (uppers []float64, counts []uint64) {
	top := -1
	var raw [histBuckets - 1]uint64
	for i := range raw {
		raw[i] = h.buckets[i].Load()
		if raw[i] > 0 {
			top = i
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += raw[i]
		uppers = append(uppers, h.bucketUpper(i))
		counts = append(counts, cum)
	}
	return uppers, counts
}
