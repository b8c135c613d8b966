package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readResults groups the untraced results of an -out file by workload and
// metric.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r fullResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// verdict judges one metric on one workload: a is the base, b the candidate.
// It is unresolved when either side's own run-to-run spread (interquartile
// range over median) is wider than the bound — a difference smaller than the
// noise is not a finding — worse when b's median is worse than a's by more
// than the bound, and ok otherwise. worseBy is signed: positive is worse.
func verdict(a, b []float64, m boundedMetric) (medA, medB, worseBy float64, v string) {
	medA, medB = median(a), median(b)
	if medA != 0 {
		worseBy = (medB - medA) / medA
		if medA < 0 {
			worseBy = -worseBy
		}
	}
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case max(iqrShare(a), iqrShare(b)) > m.Bound:
		v = "unresolved"
	case worseBy > m.Bound:
		v = "worse"
	default:
		v = "ok"
	}
	return
}

// compareFiles prints one row per workload × end-to-end metric and reports
// whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB, benchmarkPath string) (worse bool, err error) {
	bench, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	return compareResults(w, a, b, bench.EndToEnd), nil
}

func compareResults(w io.Writer, a, b map[string]map[string][]float64, metrics []boundedMetric) (worse bool) {
	var names []string
	for name := range a {
		if b[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-15s %-18s %12s %12s  %-28s %6s  %s\n", "workload", "metric", "A median", "B median", "B worse than A by", "bound", "verdict")
	for _, wl := range names {
		for _, m := range metrics {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			medA, medB, by, v := verdict(va, vb, m)
			if v == "worse" {
				worse = true
			}
			delta := fmt.Sprintf("%+.1f%% of %.4g %s", 100*by, medA, m.Unit)
			fmt.Fprintf(w, "%-15s %-18s %12.5g %12.5g  %-28s %5.0f%%  %s (n=%d,%d)\n",
				wl, m.Name, medA, medB, delta, 100*m.Bound, v, len(va), len(vb))
		}
	}
	return worse
}
