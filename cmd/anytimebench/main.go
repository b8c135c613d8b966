// Command anytimebench is the repository's one benchmark: it measures the
// paper's normalized-runtime axis at the library level and the serving
// contract over loopback HTTP, one workload per process, and prints every
// metric by name and unit. README.md in this directory is the glossary.
//
//	anytimebench -workload lib_diffusive -seed 1 -seconds 10 -trace 0
//	anytimebench -workload serve_deadline -seed 1 -seconds 10 -trace 1 -trace-out spans.jsonl
//	anytimebench -compare A.jsonl B.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. -out appends the full
// result, with provenance, to a JSON-lines file that -compare reads.
//
// The runner measures every layer from outside — by timing calls into public
// functions and by reading the HTTP contract — and carries its own load
// generator and statistics, so a later change to the program cannot move the
// ruler it is measured with.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets up, so that setup_s is a median.
const setupRepeats = 3

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	short    bool
	traceOut string
	out      string
}

// scale is the length of a pass in nominal seconds. A run's length is a
// count, not a time: every workload fixes how many operations make one
// nominal second (on the reference host they take about that long), and
// -seconds selects how many of those a run issues. The count is therefore
// the same on every commit, fast or slow, and so is the highest percentile
// its sample supports. The traced pass is a quarter as long (tracedShare):
// it exists to apportion time between layers, not to resolve a tail. -short
// is a tenth, traced or not.
func (o options) scale() float64 {
	switch {
	case o.short:
		return o.seconds / 10
	case o.trace:
		return o.seconds * tracedShare
	}
	return o.seconds
}

// count is how many operations a pass issues at perSecond operations per
// nominal second, and never fewer than least.
func (o options) count(perSecond float64, least int) int {
	return max(least, int(math.Round(perSecond*o.scale())))
}

const tracedShare = 0.25

// shorten cuts a fixed duration to a tenth in -short mode.
func (o options) shorten(d time.Duration) time.Duration {
	if o.short {
		return d / 10
	}
	return d
}

// workloads maps each fixed workload name to its runner.
var workloads = map[string]func(context.Context, options) (*result, error){
	"lib_diffusive": func(ctx context.Context, o options) (*result, error) {
		return runLib(ctx, o, []string{"conv2d", "debayer"}, 7)
	},
	"lib_pipeline": func(ctx context.Context, o options) (*result, error) {
		return runLib(ctx, o, []string{"histeq", "kmeans"}, 18)
	},
	"serve_deadline": func(ctx context.Context, o options) (*result, error) { return runServed(ctx, o, serveDeadline) },
	"serve_accept":   func(ctx context.Context, o options) (*result, error) { return runServed(ctx, o, serveAccept) },
	"serve_overload": func(ctx context.Context, o options) (*result, error) { return runServed(ctx, o, serveOverload) },
	"fleet_nominal":  func(ctx context.Context, o options) (*result, error) { return runServed(ctx, o, fleetNominal) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var o options
	var trace int
	var compare bool
	flag.StringVar(&o.workload, "workload", "", fmt.Sprintf("one of %v", workloadNames()))
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the inputs, the arrival schedule and the key stream")
	flag.Float64Var(&o.seconds, "seconds", 10, "run length in nominal seconds: selects the fixed operation counts of the workload")
	flag.IntVar(&trace, "trace", 0, "1 = traced pass (per-layer metrics), 0 = untraced (end-to-end metrics)")
	flag.BoolVar(&o.short, "short", false, "a tenth of the counts on small inputs: correctness and schema only")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the spans here, one JSON object per line")
	flag.StringVar(&o.out, "out", "", "append the full result, with provenance, to this JSON-lines file")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: anytimebench -compare A.jsonl B.jsonl")
	flag.Parse()
	o.trace = trace != 0

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: anytimebench -compare A.jsonl B.jsonl")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json")
		if err != nil {
			fmt.Fprintln(os.Stderr, "anytimebench:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "anytimebench: need -workload (one of %v) and a positive -seconds\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "anytimebench:", err)
		os.Exit(1)
	}
	if err := res.finish(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "anytimebench:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// result accumulates one run.
type result struct {
	opts       options
	attempted  int // operations issued in the measured passes
	failed     int // operations that broke: transport error, unexpected status, dropped, failed check
	ok         int // operations answered with a checked, correct answer
	refused    int // open loop: requests the system refused by design (503, or the router's 502)
	setupS     float64
	constructS float64
	e2e        map[string]float64
	layer      map[string]float64
	counts     map[string]int // what must repeat exactly for one (workload, seed, -seconds)
	notes      []string
	asserts    []string // failed run-level assertions (traced pass)
	spans      *spanRecorder
}

func newResult(o options) *result {
	r := &result{
		opts:   o,
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
		counts: map[string]int{},
	}
	// A layer the workload does not exercise reads 0, its idle value.
	for _, d := range perLayerDefs {
		r.layer[d.name] = 0
	}
	return r
}

// note keeps the first few diagnostics for standard error.
func (r *result) note(format string, args ...any) {
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.failed == 0 && len(r.asserts) == 0 }

// pick applies f to every group.
func pick(groups []groupStats, f func(groupStats) float64) []float64 {
	out := make([]float64, len(groups))
	for i, g := range groups {
		out[i] = f(g)
	}
	return out
}

// endToEnd folds the statistics of every group (app) and segment into the
// end-to-end metrics. groups[i] holds group i's segments. Within a segment a
// statistic is a median over operations; segments are averaged, so that what
// depends on a segment's inputs or on where its automaton landed in memory
// is averaged too, where a median over the pooled operations would flip
// between the segments' values; groups are combined last. Times and ratios
// average geometrically, decibels arithmetically.
func (r *result) endToEnd(groups [][]groupStats) {
	fold := func(f func(groupStats) float64, avg func([]float64) float64) float64 {
		per := make([]float64, len(groups))
		for i, segs := range groups {
			per[i] = avg(pick(segs, f))
		}
		return avg(per)
	}
	r.e2e["setup_s"] = r.setupS
	r.e2e["first_output_x"] = fold(func(g groupStats) float64 { return g.firstX }, geomean)
	r.e2e["answer_at_x"] = fold(func(g groupStats) float64 { return g.answerX }, geomean)
	r.e2e["snr_mean_db"] = fold(func(g groupStats) float64 { return g.snrMean }, mean)
	if r.attempted > 0 {
		r.e2e["ok_share"] = float64(r.ok) / float64(r.attempted)
	}
}

// clientTimes fills the timing part of the client.* layer — what the
// generator saw and the gate leaves out — from the same per-group statistics.
func (r *result) clientTimes(groups []groupStats) {
	n := 0
	for _, g := range groups {
		n += g.n
	}
	r.layer["client.samples"] = float64(n)
	r.layer["client.latency_p50_ms"] = geomean(pick(groups, func(g groupStats) float64 { return g.lat50 }))
	r.layer["client.latency_p90_ms"] = geomean(pick(groups, func(g groupStats) float64 { return g.lat90 }))
	r.layer["client.overshoot_p50_ms"] = geomean(pick(groups, func(g groupStats) float64 { return g.over50 }))
	r.layer["client.overshoot_p90_ms"] = geomean(pick(groups, func(g groupStats) float64 { return g.over90 }))
	// The highest percentile that still has ten samples beyond it in the
	// smallest group, with the latency and overshoot there.
	p := groups[0].tailP
	for _, g := range groups {
		p = min(p, g.tailP)
	}
	r.layer["client.tail_percentile"] = p
	r.layer["client.latency_tail_ms"] = geomean(pick(groups, func(g groupStats) float64 { return g.tailLat }))
	r.layer["client.overshoot_tail_ms"] = geomean(pick(groups, func(g groupStats) float64 { return g.tailOver }))
}

// procMeter sums the runtime's own accounting over the measured stretches
// of a run, leaving out the set-ups between them.
type procMeter struct {
	mark      runtime.MemStats
	allocated uint64
	cycles    uint32
}

func (m *procMeter) start() { runtime.ReadMemStats(&m.mark) }

func (m *procMeter) stop() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	m.allocated += now.TotalAlloc - m.mark.TotalAlloc
	m.cycles += now.NumGC - m.mark.NumGC
}

// proc fills the proc.* layer from m, over ops operations.
func (r *result) proc(m *procMeter, ops int) {
	if ops > 0 {
		r.layer["proc.alloc_mb_per_op"] = float64(m.allocated) / (1 << 20) / float64(ops)
	}
	r.layer["proc.gc_cycles"] = float64(m.cycles)
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	r.layer["proc.gc_cpu_share"] = now.GCCPUFraction
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.layer["proc.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	r.layer["proc.construct_s"] = r.constructS
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints the human-readable table, writes the span and result files,
// and ends standard output with the one-line JSON object the driver reads.
func (r *result) finish(w io.Writer) error {
	defs := endToEndDefs
	values := r.e2e
	if r.opts.trace {
		defs, values = perLayerDefs, r.layer
	}
	metrics := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not produce %s", r.opts.workload, d.name)
		}
		metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "note:", n)
	}
	for _, a := range r.asserts {
		fmt.Fprintln(os.Stderr, "assertion failed:", a)
	}
	if r.opts.trace && r.opts.traceOut != "" && r.spans != nil {
		if err := r.spans.writeFile(r.opts.traceOut); err != nil {
			return err
		}
	}
	if r.opts.out != "" {
		if err := r.appendFull(metrics); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// fullResult is one line of an -out file.
type fullResult struct {
	Provenance provenance           `json:"provenance"`
	Workload   string               `json:"workload"`
	Traced     bool                 `json:"traced"`
	Correct    bool                 `json:"correct"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Refused    int                  `json:"refused"`
	Metrics    map[string]metricOut `json:"metrics"`
	Counts     map[string]int       `json:"counts"`
	// Claim is always null: this program measures and claims no gain. A
	// change that claims one says so in its own issue, against these numbers.
	Claim *string `json:"claim"`
}

func (r *result) appendFull(metrics map[string]metricOut) error {
	full := fullResult{
		Provenance: gatherProvenance(r.opts),
		Workload:   r.opts.workload,
		Traced:     r.opts.trace,
		Correct:    r.correct(),
		Attempted:  r.attempted,
		Failed:     r.failed,
		Refused:    r.refused,
		Metrics:    metrics,
		Counts:     r.counts,
	}
	line, err := json.Marshal(full)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(r.opts.out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
