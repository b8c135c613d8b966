package main

import (
	"context"
	"io"
	"maps"
	"path/filepath"
	"testing"
)

// Every workload runs end to end in -short mode, untraced and traced:
// correctness checks pass, and every metric BENCHMARK.json promises is there.
// No bound is checked — short runs on small inputs time nothing worth gating.
func TestEveryWorkloadShort(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			label := name + "/untraced"
			if trace {
				label = name + "/traced"
			}
			t.Run(label, func(t *testing.T) {
				o := options{workload: name, seed: 3, seconds: 3, short: true, trace: trace}
				if trace {
					o.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
				}
				res, err := workloads[name](context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() {
					t.Fatalf("failed %d of %d, notes %v, asserts %v", res.failed, res.attempted, res.notes, res.asserts)
				}
				if res.attempted < 1 {
					t.Fatal("nothing attempted")
				}
				defs, values := endToEndDefs, res.e2e
				if trace {
					defs, values = perLayerDefs, res.layer
				}
				for _, d := range defs {
					v, ok := values[d.name]
					if !ok {
						t.Errorf("%s is missing", d.name)
					}
					if !trace && v == 0 {
						t.Errorf("%s is 0", d.name)
					}
				}
				if err := res.finish(io.Discard); err != nil {
					t.Fatal(err)
				}
				if trace {
					checkSpanFile(t, o.traceOut)
				}
			})
		}
	}
}

// checkSpanFile: the spans of one request share an id and name their parent.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	spans, err := readSpanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("the traced pass wrote no spans")
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Req == 0 {
			t.Errorf("span %d (%s) carries no request id", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d (%s) names a parent %d that was not written", s.ID, s.Name, s.Parent)
		} else if p.Req != s.Req {
			t.Errorf("span %d (%s) and its parent %s belong to different requests", s.ID, s.Name, p.Name)
		}
	}
}

// BENCHMARK.json and the program must list the same workloads, metrics and
// units: the driver refuses a run whose metrics are not exactly the file's.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bench, err := readBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, the program has none", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(names), len(workloads))
	}
	match := func(kind string, file []boundedMetric, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(prog))
		}
		units := map[string]string{}
		for _, d := range prog {
			units[d.name] = d.unit
		}
		for _, m := range file {
			if u, ok := units[m.Name]; !ok {
				t.Errorf("%s: BENCHMARK.json names %q, the program does not report it", kind, m.Name)
			} else if u != m.Unit {
				t.Errorf("%s: %s is %q in BENCHMARK.json and %q in the program", kind, m.Name, m.Unit, u)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s has direction %q", kind, m.Name, m.Better)
			}
		}
	}
	match("end_to_end", bench.EndToEnd, endToEndDefs)
	match("per_layer", bench.PerLayer, perLayerDefs)
	// No gate is wider than 10 %, except set-up time (25 %, the driver's
	// cap) and first_output_x (20 %: README.md, "Why these five").
	for _, m := range bench.EndToEnd {
		limit := 0.10
		switch m.Name {
		case "setup_s":
			limit = 0.25
		case "first_output_x":
			limit = 0.20
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, limit)
		}
	}
}

// A run's length is a count fixed by the workload and -seconds, so what
// must repeat exactly does: two runs of one seed issue the same operations,
// and an open-loop schedule has the same length for every seed.
func TestCountsRepeatExactly(t *testing.T) {
	for _, name := range []string{"lib_pipeline", "serve_accept", "fleet_nominal"} {
		var first map[string]int
		for _, seed := range []uint64{3, 3, 4} {
			res, err := workloads[name](context.Background(), options{workload: name, seed: seed, seconds: 3, short: true})
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = res.counts
				if len(first) == 0 || res.attempted == 0 {
					t.Fatalf("%s: no counts recorded: %v", name, first)
				}
				continue
			}
			if !maps.Equal(first, res.counts) {
				t.Errorf("%s seed %d: counts %v, first run %v", name, seed, res.counts, first)
			}
		}
	}
}
