package sched

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPipelineValidate(t *testing.T) {
	bad := []Pipeline{
		{},
		{Stages: []StageSpec{{Name: "s"}}}, // no passes
		{Stages: []StageSpec{{Name: "s", PassCosts: []float64{0}}}},                  // zero cost
		{Stages: []StageSpec{{Name: "s", PassCosts: []float64{1}, ParallelFrac: 2}}}, // bad frac
		{Stages: []StageSpec{{Name: "s", PassCosts: []float64{1}, Deps: []int{0}}}},  // self dep
		{Stages: []StageSpec{{Name: "s", PassCosts: []float64{1}, Deps: []int{5}}}},  // forward dep
		{Stages: []StageSpec{{Name: "s", PassCosts: []float64{math.NaN()}}}},         // NaN cost
		{Stages: []StageSpec{{Name: "s", PassCosts: []float64{1}, Deps: []int{-1}}}}, // negative dep
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad pipeline %d validated", i)
		}
	}
	if err := Figure2Pipeline().Validate(); err != nil {
		t.Errorf("Figure 2 pipeline invalid: %v", err)
	}
}

func TestSink(t *testing.T) {
	if got := Figure2Pipeline().Sink(); got != 3 {
		t.Errorf("Sink = %d, want 3 (stage i)", got)
	}
	single := Pipeline{Stages: []StageSpec{{Name: "only", PassCosts: []float64{1}}}}
	if got := single.Sink(); got != 0 {
		t.Errorf("single-stage sink = %d", got)
	}
}

func TestPassTime(t *testing.T) {
	// Fully sequential: workers change nothing.
	if passTime(10, 0, 8) != 10 {
		t.Error("sequential pass scaled with workers")
	}
	// Fully parallel: ideal speedup.
	if passTime(10, 1, 5) != 2 {
		t.Error("parallel pass did not scale ideally")
	}
	// Defensive clamp.
	if passTime(10, 1, 0) != 10 {
		t.Error("zero workers not clamped")
	}
}

// TestSimulateSourceOnly: a single source stage's publish times are the
// running sums of its pass times.
func TestSimulateSourceOnly(t *testing.T) {
	p := Pipeline{Stages: []StageSpec{
		{Name: "f", PassCosts: []float64{3, 5, 7}, ParallelFrac: 1},
	}}
	res, err := Simulate(p, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 8, 15}
	for i, w := range want {
		if math.Abs(res.Publishes[0][i]-w) > 1e-9 {
			t.Errorf("publish %d at %v, want %v", i, res.Publishes[0][i], w)
		}
	}
	if res.FirstOutput != 3 || res.Final != 15 {
		t.Errorf("first %v final %v", res.FirstOutput, res.Final)
	}
	if math.Abs(res.MeanGap-6) > 1e-9 { // (5+7)/2
		t.Errorf("mean gap %v, want 6", res.MeanGap)
	}
	// Workers halve everything at ParallelFrac 1.
	res2, err := Simulate(p, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res2.Final-7.5) > 1e-9 {
		t.Errorf("2-worker final %v, want 7.5", res2.Final)
	}
}

// TestSimulateTwoStageHandChecked walks the asynchronous two-stage
// semantics by hand: f publishes at 10 (approx) and 30 (final); g (passes
// 4, 6) starts at 10, publishes 14 and 20, re-pins the final input at 20,
// publishes 24 and 30+... — verify against the simulator.
func TestSimulateTwoStageHandChecked(t *testing.T) {
	p := Pipeline{Stages: []StageSpec{
		{Name: "f", PassCosts: []float64{10, 20}},
		{Name: "g", PassCosts: []float64{4, 6}, Deps: []int{0}},
	}}
	res, err := Simulate(p, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// f: 10 (v1), 30 (v2 final).
	// g: pins v1 at 10 -> publishes 14, 20. Cycle ends at 20; no fresh
	// input until 30 -> idle. Pins v2 at 30 -> publishes 34, 40 (final).
	wantG := []float64{14, 20, 34, 40}
	if len(res.Publishes[1]) != len(wantG) {
		t.Fatalf("g published %v, want %v", res.Publishes[1], wantG)
	}
	for i, w := range wantG {
		if math.Abs(res.Publishes[1][i]-w) > 1e-9 {
			t.Errorf("g publish %d at %v, want %v", i, res.Publishes[1][i], w)
		}
	}
	if res.FirstOutput != 14 || res.Final != 40 {
		t.Errorf("first %v final %v", res.FirstOutput, res.Final)
	}
}

// TestSimulateSkipsStaleVersions: a slow child must skip intermediate
// parent versions, pinning only the newest — the async-pipeline semantics.
func TestSimulateSkipsStaleVersions(t *testing.T) {
	p := Pipeline{Stages: []StageSpec{
		{Name: "f", PassCosts: []float64{1, 1, 1, 1, 1, 20}},
		{Name: "g", PassCosts: []float64{50}, Deps: []int{0}},
	}}
	res, err := Simulate(p, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// g pins v1 at t=1, runs until 51 (f final at 25 meanwhile), then runs
	// exactly one more pass on the final version: 2 publishes total.
	if len(res.Publishes[1]) != 2 {
		t.Errorf("g published %d times, want 2 (skip stale)", len(res.Publishes[1]))
	}
}

func TestSimulateDiamondReachesFinal(t *testing.T) {
	res, err := Simulate(Figure2Pipeline(), []int{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final <= res.FirstOutput {
		t.Errorf("final %v not after first %v", res.Final, res.FirstOutput)
	}
	for s, pubs := range res.Publishes {
		if len(pubs) == 0 {
			t.Errorf("stage %d never published", s)
		}
		for i := 1; i < len(pubs); i++ {
			if pubs[i] < pubs[i-1] {
				t.Errorf("stage %d publish times not monotone: %v", s, pubs)
			}
		}
	}
}

func TestSimulateValidatesAllocation(t *testing.T) {
	p := Figure2Pipeline()
	if _, err := Simulate(p, []int{1, 1}); err == nil {
		t.Error("short allocation accepted")
	}
	if _, err := Simulate(p, []int{1, 1, 0, 1}); err == nil {
		t.Error("zero workers accepted")
	}
}

// TestSimulateFinalAlwaysReached: for arbitrary random chains, the sink
// always reaches a final output (no deadlock, no livelock).
func TestSimulateFinalAlwaysReached(t *testing.T) {
	f := func(costs []uint8, depth uint8) bool {
		n := int(depth)%4 + 1
		p := Pipeline{}
		for i := 0; i < n; i++ {
			passes := 1
			if len(costs) > 0 {
				passes = int(costs[i%len(costs)])%3 + 1
			}
			pc := make([]float64, passes)
			for j := range pc {
				pick := 1.0
				if len(costs) > 0 {
					pick = float64(costs[(i*3+j)%len(costs)])/16 + 0.5
				}
				pc[j] = pick
			}
			spec := StageSpec{Name: "s", PassCosts: pc, ParallelFrac: 0.5}
			if i > 0 {
				spec.Deps = []int{i - 1}
			}
			p.Stages = append(p.Stages, spec)
		}
		alloc := make([]int, n)
		for i := range alloc {
			alloc[i] = 1 + i%3
		}
		res, err := Simulate(p, alloc)
		return err == nil && res.Final >= res.FirstOutput && res.FirstOutput > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestMoreWorkersNeverHurtSource: with parallel work, adding workers to a
// single stage cannot increase its final time.
func TestMoreWorkersNeverHurtSource(t *testing.T) {
	p := Pipeline{Stages: []StageSpec{{Name: "f", PassCosts: []float64{10, 10}, ParallelFrac: 0.8}}}
	prev := math.Inf(1)
	for w := 1; w <= 8; w++ {
		res, err := Simulate(p, []int{w})
		if err != nil {
			t.Fatal(err)
		}
		if res.Final > prev+1e-9 {
			t.Errorf("final time rose from %v to %v at %d workers", prev, res.Final, w)
		}
		prev = res.Final
	}
}

func TestSpreadPolicyBasics(t *testing.T) {
	p := Figure2Pipeline()
	for _, pol := range DefaultPolicies() {
		alloc, err := pol.Allocate(p, 12)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		total := 0
		for i, w := range alloc {
			if w < 1 {
				t.Errorf("%s gave stage %d zero workers", pol.Name(), i)
			}
			total += w
		}
		if total != 12 {
			t.Errorf("%s allocated %d of 12 workers: %v", pol.Name(), total, alloc)
		}
	}
	if _, err := (Equal{}).Allocate(p, 2); err == nil {
		t.Error("budget below one per stage accepted")
	}
}

func TestFirstOutputPolicyFavorsLongestFirstPass(t *testing.T) {
	p := Figure2Pipeline()
	alloc, err := (FirstOutput{}).Allocate(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Stage f (index 0) has the costliest first pass and must get the most
	// workers.
	for i := 1; i < len(alloc); i++ {
		if alloc[i] > alloc[0] {
			t.Errorf("first-output policy gave stage %d (%d) more than f (%d)", i, alloc[i], alloc[0])
		}
	}
}

func TestOutputRatePolicyFavorsSink(t *testing.T) {
	p := Figure2Pipeline()
	alloc, err := (OutputRate{}).Allocate(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	sink := p.Sink()
	for i := range alloc {
		if i != sink && alloc[i] > alloc[sink] {
			t.Errorf("output-rate policy gave stage %d (%d) more than the sink (%d)", i, alloc[i], alloc[sink])
		}
	}
}

// TestPaperTradeoffOnFigure2 is the §IV-C2 claim itself: on the Figure 2
// pipeline, the first-output policy reaches the first whole-application
// output no later than the output-rate policy, and the output-rate policy
// achieves a mean inter-output gap no larger than the first-output policy.
func TestPaperTradeoffOnFigure2(t *testing.T) {
	p := Figure2Pipeline()
	rows, err := Compare(p, 16, DefaultPolicies())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Comparison{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	fo := byName["first-output"]
	or := byName["output-rate"]
	if fo.FirstOutput > or.FirstOutput+1e-9 {
		t.Errorf("first-output policy TTFO %v worse than output-rate %v", fo.FirstOutput, or.FirstOutput)
	}
	if or.MeanGap > fo.MeanGap+1e-9 {
		t.Errorf("output-rate policy gap %v worse than first-output %v", or.MeanGap, fo.MeanGap)
	}
	// And the tradeoff is real: the two optima are achieved by different
	// policies (strict inequality in at least one direction).
	if !(fo.FirstOutput < or.FirstOutput-1e-9 || or.MeanGap < fo.MeanGap-1e-9) {
		t.Errorf("no tradeoff visible: fo=%+v or=%+v", fo, or)
	}
}

func TestCompareReportsAllPolicies(t *testing.T) {
	rows, err := Compare(Figure2Pipeline(), 8, DefaultPolicies())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Final <= 0 || r.FirstOutput <= 0 {
			t.Errorf("%s: degenerate times %+v", r.Policy, r)
		}
	}
}

// TestSimulateDynamicBeatsStaticEqual: handing the whole budget to whatever
// is running must not be slower than a static equal split, and on the
// Figure 2 pipeline it should strictly improve time-to-first-output (only
// f runs at the start, so it gets every worker).
func TestSimulateDynamicBeatsStaticEqual(t *testing.T) {
	p := Figure2Pipeline()
	const budget = 16
	equalAlloc, err := (Equal{}).Allocate(p, budget)
	if err != nil {
		t.Fatal(err)
	}
	static, err := Simulate(p, equalAlloc)
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err := SimulateDynamic(p, budget)
	if err != nil {
		t.Fatal(err)
	}
	if dynamic.FirstOutput >= static.FirstOutput {
		t.Errorf("dynamic TTFO %v not better than static equal %v", dynamic.FirstOutput, static.FirstOutput)
	}
	if dynamic.Final > static.Final+1e-9 {
		t.Errorf("dynamic final %v worse than static equal %v", dynamic.Final, static.Final)
	}
}

func TestSimulateDynamicValidation(t *testing.T) {
	if _, err := SimulateDynamic(Figure2Pipeline(), 0); err == nil {
		t.Error("zero budget accepted")
	}
}

// TestWorkAccounting: a single source's work equals the sum of its pass
// costs, independent of workers; an async child adds its re-pass work.
func TestWorkAccounting(t *testing.T) {
	src := Pipeline{Stages: []StageSpec{{Name: "f", PassCosts: []float64{3, 5}, ParallelFrac: 1}}}
	for _, w := range []int{1, 4} {
		res, err := Simulate(src, []int{w})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Work-8) > 1e-9 {
			t.Errorf("workers=%d: work %v, want 8", w, res.Work)
		}
	}
	two := Pipeline{Stages: []StageSpec{
		{Name: "f", PassCosts: []float64{10, 20}},
		{Name: "g", PassCosts: []float64{4, 6}, Deps: []int{0}},
	}}
	res, err := Simulate(two, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// From TestSimulateTwoStageHandChecked: g runs two full cycles.
	want := 10.0 + 20 + 2*(4+6)
	if math.Abs(res.Work-want) > 1e-9 {
		t.Errorf("pipeline work %v, want %v", res.Work, want)
	}
}

// TestHisteqPipelineShape: the modeled histeq pipeline must validate, and —
// like the measured application — reach its precise output well after the
// equivalent of its baseline cost (the non-anytime middle stages force
// repeated apply cycles).
func TestHisteqPipelineShape(t *testing.T) {
	p := HisteqPipeline()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(p, []int{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Baseline-equivalent work: one full histogram + cdf + lut + one apply
	// cycle.
	baseline := p.TotalCost(0) + p.TotalCost(1) + p.TotalCost(2) + p.TotalCost(3)
	if res.Final <= baseline {
		t.Errorf("histeq model reached precise at %v, within its baseline %v; the non-anytime penalty vanished", res.Final, baseline)
	}
	// But the first whole-application output arrives before one baseline.
	if res.FirstOutput >= baseline {
		t.Errorf("first output at %v, after a full baseline %v; early availability vanished", res.FirstOutput, baseline)
	}
}
