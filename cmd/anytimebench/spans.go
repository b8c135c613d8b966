package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent names the span that caused this one (0 = root). Times are
// nanoseconds since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Counts are the tallies taken at the same boundary (versions published,
	// SNR calls, cache outcome), so ratios are measured where the work is.
	Counts map[string]int `json:"counts,omitempty"`
}

// spanRecorder keeps spans in memory and writes them out when the run ends.
// A nil recorder records nothing, which is how the untraced pass runs the
// same code path.
type spanRecorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *spanRecorder) begin(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	r.mu.Unlock()
	return id
}

// end closes a span.
func (r *spanRecorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// instant records a zero-length span at a moment observed earlier (a publish
// seen by an observer), carrying one tally.
func (r *spanRecorder) instant(name string, parent, req int, at time.Time, key string, n int) {
	if r == nil {
		return
	}
	t := int64(at.Sub(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: t, End: t, Counts: map[string]int{key: n}})
	r.mu.Unlock()
}

// count adds n to a named tally on an open or closed span.
func (r *spanRecorder) count(id int, key string, n int) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	s := &r.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]int{}
	}
	s.Counts[key] += n
	r.mu.Unlock()
}

// closed returns a copy of every closed span.
func (r *spanRecorder) closed() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// writeFile writes one JSON object per line.
func (r *spanRecorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.closed() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover. Overlapping children are merged
// first, so time two children share is subtracted once; children are clipped
// to the parent's interval.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		edge := s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// durationsMs collects the durations, in milliseconds, of the spans with the
// given name.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// readSpanFile reads back a file written by writeFile.
func readSpanFile(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(f)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
