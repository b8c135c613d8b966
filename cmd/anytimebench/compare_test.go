package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// tightRuns returns five runs around v whose own spread (under one percent)
// is inside any bound BENCHMARK.json carries.
func tightRuns(v float64) []float64 {
	return []float64{v * 0.998, v * 1.002, v, v * 1.001, v * 0.999}
}

// worsen returns a copy of base with one metric moved by the given share in
// the direction that is worse for it.
func worsen(base map[string][]float64, m boundedMetric, by float64) map[string][]float64 {
	out := map[string][]float64{}
	for name, vs := range base {
		c := append([]float64(nil), vs...)
		if name == m.Name {
			f := 1 + by
			if m.Better == "higher" {
				f = 1 - by
			}
			for i := range c {
				c[i] *= f
			}
		}
		out[name] = c
	}
	return out
}

// The comparison is tested against the bounds BENCHMARK.json really carries:
// a result compared with itself is ok on every row, and a copy made 20 %
// worse on any one metric gated at 10 % is flagged (the two metrics with a
// wider bound, five points past it).
func TestCompareWithTheRealBounds(t *testing.T) {
	bench, err := readBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	const wl = "serve_deadline"
	base := map[string][]float64{}
	for i, m := range bench.EndToEnd {
		base[m.Name] = tightRuns(float64(3 + i))
	}
	sets := func(runs map[string][]float64) map[string]map[string][]float64 {
		return map[string]map[string][]float64{wl: runs}
	}

	var buf bytes.Buffer
	if compareResults(&buf, sets(base), sets(base), bench.EndToEnd) {
		t.Errorf("a result compared with itself is worse:\n%s", buf.String())
	}
	if n := strings.Count(buf.String(), " ok "); n != len(bench.EndToEnd) {
		t.Errorf("want %d ok rows, got %d:\n%s", len(bench.EndToEnd), n, buf.String())
	}

	for _, m := range bench.EndToEnd {
		by := max(0.20, m.Bound+0.05)
		buf.Reset()
		if !compareResults(&buf, sets(base), sets(worsen(base, m, by)), bench.EndToEnd) {
			t.Errorf("%s (bound %v): a copy %.0f%% worse was not flagged:\n%s", m.Name, m.Bound, 100*by, buf.String())
		}
		if n := strings.Count(buf.String(), "worse ("); n != 1 {
			t.Errorf("%s: want exactly one worse row, got %d:\n%s", m.Name, n, buf.String())
		}
		// The same move in the better direction is not a finding.
		if compareResults(&buf, sets(base), sets(worsen(base, m, -by)), bench.EndToEnd) {
			t.Errorf("%s: a copy %.0f%% better was flagged", m.Name, 100*by)
		}
	}
}

func TestCompareRows(t *testing.T) {
	metrics := []boundedMetric{{Name: "answer_at_x", Unit: "x", Better: "lower", Bound: 0.10}}
	base := map[string]map[string][]float64{"serve_deadline": {"answer_at_x": {1.160, 1.168, 1.164, 1.172, 1.164}}}
	slower := map[string]map[string][]float64{"serve_deadline": worsen(base["serve_deadline"], metrics[0], 0.20)}

	// The row gives the delta with its base.
	var buf bytes.Buffer
	compareResults(&buf, base, slower, metrics)
	if !strings.Contains(buf.String(), "+20.0% of 1.164 x") {
		t.Errorf("the row must give the delta with its base:\n%s", buf.String())
	}

	// A side whose own runs spread wider than the bound resolves nothing.
	noisy := map[string]map[string][]float64{"serve_deadline": {"answer_at_x": {1.0, 1.3, 1.6, 1.9, 2.2}}}
	buf.Reset()
	if compareResults(&buf, base, noisy, metrics) {
		t.Error("a spread wider than the bound must read unresolved, not worse")
	}
	if !strings.Contains(buf.String(), "unresolved") {
		t.Errorf("want an unresolved row:\n%s", buf.String())
	}
}
