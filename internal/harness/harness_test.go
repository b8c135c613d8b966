package harness

import (
	"bytes"
	"encoding/json"

	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"anytime/internal/metrics"
	"anytime/internal/pix"
)

// smallOpt keeps unit-test experiment runs fast.
var smallOpt = Options{Size: 48, Workers: 2, Seed: 3, BaselineReps: 1}

func TestTimeBaseline(t *testing.T) {
	d, err := TimeBaseline(func() error {
		time.Sleep(2 * time.Millisecond)
		return nil
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d < time.Millisecond {
		t.Errorf("baseline %v implausibly fast", d)
	}
	if _, err := TimeBaseline(func() error { return nil }, 0); err == nil {
		t.Error("reps=0 accepted")
	}
}

func TestCollectorProfile(t *testing.T) {
	ref := pix.MustNew(2, 2, 1)
	ref.Fill(10)
	near := pix.MustNew(2, 2, 1)
	near.Fill(9)
	col := NewCollector(ref, 4)
	col.Begin()
	col.Record(2, near)
	col.Record(4, ref.Clone())
	p, err := col.Finish("test", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Points) != 2 {
		t.Fatalf("%d points", len(p.Points))
	}
	if p.Points[0].Fraction != 0.5 || p.Points[1].Fraction != 1.0 {
		t.Errorf("fractions %v %v", p.Points[0].Fraction, p.Points[1].Fraction)
	}
	if !math.IsInf(p.Points[1].SNR, 1) {
		t.Errorf("exact point SNR %v", p.Points[1].SNR)
	}
	if p.PreciseAt() == 0 {
		t.Error("PreciseAt found no precise point")
	}
	if best, ok := p.BestUnder(100); !ok || !math.IsInf(best, 1) {
		t.Errorf("BestUnder = %v %v", best, ok)
	}
	var buf bytes.Buffer
	if err := p.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "runtime,snr_db,fraction") {
		t.Error("CSV header missing")
	}
	if !strings.Contains(buf.String(), "inf") {
		t.Error("CSV missing inf row")
	}
}

func TestCollectorFinishRejectsBadBaseline(t *testing.T) {
	col := NewCollector(pix.MustNew(1, 1, 1), 0)
	if _, err := col.Finish("x", 0); err == nil {
		t.Error("zero baseline accepted")
	}
}

func TestFig11Conv2DSmall(t *testing.T) {
	p, err := Fig11Conv2D(smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Points) < 4 {
		t.Fatalf("too few points: %d", len(p.Points))
	}
	last := p.Points[len(p.Points)-1]
	if !math.IsInf(last.SNR, 1) {
		t.Errorf("final point SNR %v, want +Inf", last.SNR)
	}
	for i := 1; i < len(p.Points); i++ {
		if p.Points[i].Runtime < p.Points[i-1].Runtime {
			t.Error("runtimes not monotone")
		}
	}
}

func TestFig12HisteqSmall(t *testing.T) {
	p, err := Fig12Histeq(smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p.Points[len(p.Points)-1].SNR, 1) {
		t.Error("histeq never reached precise output")
	}
}

func TestFig13DWT53Small(t *testing.T) {
	p, err := Fig13DWT53(smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p.Points[len(p.Points)-1].SNR, 1) {
		t.Error("dwt53 never reached precise output")
	}
}

func TestFig14DebayerSmall(t *testing.T) {
	p, err := Fig14Debayer(smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p.Points[len(p.Points)-1].SNR, 1) {
		t.Error("debayer never reached precise output")
	}
}

func TestFig15KmeansSmall(t *testing.T) {
	p, err := Fig15Kmeans(smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p.Points[len(p.Points)-1].SNR, 1) {
		t.Error("kmeans never reached precise output")
	}
}

func TestFig19PrecisionSmall(t *testing.T) {
	sweeps, err := Fig19Precision(smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 4 {
		t.Fatalf("%d sweeps", len(sweeps))
	}
	finalOf := func(s Sweep) float64 { return s.Points[len(s.Points)-1].SNR }
	if !math.IsInf(finalOf(sweeps[0]), 1) {
		t.Errorf("8-bit sweep final = %v", finalOf(sweeps[0]))
	}
	if !(finalOf(sweeps[1]) > finalOf(sweeps[2]) && finalOf(sweeps[2]) > finalOf(sweeps[3])) {
		t.Errorf("precision ordering violated: %v %v %v", finalOf(sweeps[1]), finalOf(sweeps[2]), finalOf(sweeps[3]))
	}
	var buf bytes.Buffer
	if err := WriteSweepsCSV(&buf, sweeps); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "6 bits") {
		t.Error("sweep CSV missing label")
	}
}

func TestFig20StorageSmall(t *testing.T) {
	sweeps, err := Fig20Storage(Options{Size: 64, Workers: 2, Seed: 3, BaselineReps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 3 {
		t.Fatalf("%d sweeps", len(sweeps))
	}
	finalOf := func(s Sweep) float64 { return s.Points[len(s.Points)-1].SNR }
	if !math.IsInf(finalOf(sweeps[0]), 1) {
		t.Errorf("p=0 sweep final = %v", finalOf(sweeps[0]))
	}
	// 1e-7 on a small image may inject zero faults; 1e-5 must not beat it.
	if finalOf(sweeps[1]) < finalOf(sweeps[2]) {
		t.Errorf("fault ordering violated: p=1e-7 %v < p=1e-5 %v", finalOf(sweeps[1]), finalOf(sweeps[2]))
	}
}

func TestFig16SnapshotSmall(t *testing.T) {
	r, err := Fig16Conv2DSnapshot(Options{Size: 128, Workers: 2, Seed: 3, BaselineReps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Image == nil {
		t.Fatal("no image")
	}
	if r.SNR < 0 {
		t.Errorf("snapshot SNR %v", r.SNR)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2dconv") {
		t.Error("summary missing app name")
	}
}

func TestFig10OrganizationsSmall(t *testing.T) {
	rows, err := Fig10Organizations(Options{Size: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	base := rows[0]
	if base.NormPrecise != 1.0 {
		t.Errorf("baseline norm %v", base.NormPrecise)
	}
	// Every anytime organization must deliver a first output before it
	// delivers the precise one.
	for _, r := range rows[1:] {
		if r.FirstOutput > r.Precise {
			t.Errorf("%s: first output after precise", r.Org)
		}
	}
	// The iterative sequential organization pays full redundancy: precise
	// strictly later than baseline. One wall-clock pair of a 64² workload
	// can invert under scheduling noise, so the claim is on the median of
	// seven paired runs.
	norms := []float64{rows[1].NormPrecise}
	for range 6 {
		more, err := Fig10Organizations(Options{Size: 64, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		norms = append(norms, more[1].NormPrecise)
	}
	slices.Sort(norms)
	if med := norms[len(norms)/2]; med <= 1.0 {
		t.Errorf("iterative sequential norm-precise median %v of %v, want > 1", med, norms)
	}
	var buf bytes.Buffer
	if err := WriteFig10(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "baseline") {
		t.Error("table missing baseline row")
	}
}

func TestSNRHelperAgreement(t *testing.T) {
	// Collector must agree with metrics.SNR on recorded images.
	ref, err := pix.SyntheticGray(16, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	approx := ref.Clone()
	approx.Pix[0] += 8
	col := NewCollector(ref, 0)
	col.Begin()
	col.Record(0, approx)
	p, err := col.Finish("x", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := metrics.SNR(ref.Pix, approx.Pix)
	if p.Points[0].SNR != want {
		t.Errorf("collector SNR %v != metrics %v", p.Points[0].SNR, want)
	}
}

func TestProfilePlot(t *testing.T) {
	p := Profile{App: "demo", Points: []Point{
		{Runtime: 0.2, SNR: 10},
		{Runtime: 0.6, SNR: 20},
		{Runtime: 1.4, SNR: math.Inf(1)},
	}}
	var buf bytes.Buffer
	if err := p.Plot(&buf, 40, 8); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "#") {
		t.Errorf("plot missing precise mark:\n%s", out)
	}
	if strings.Count(out, "*") != 2 {
		t.Errorf("plot wants 2 finite marks:\n%s", out)
	}
	if !strings.Contains(out, "|") {
		t.Errorf("plot missing baseline column:\n%s", out)
	}
	var empty bytes.Buffer
	if err := (Profile{App: "x"}).Plot(&empty, 40, 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "no points") {
		t.Error("empty profile plot wrong")
	}
}

func TestProfileMarshalJSON(t *testing.T) {
	p := Profile{
		App:      "demo",
		Baseline: time.Millisecond,
		Total:    2 * time.Millisecond,
		Points:   []Point{{Runtime: 0.5, SNR: 12.345}, {Runtime: 2.0, SNR: math.Inf(1)}},
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{`"app":"demo"`, `"snr_db":"12.35"`, `"snr_db":"inf"`, `"baseline_ns":1000000`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s:\n%s", want, out)
		}
	}
}

// TestFig19ConclusionRobustAcrossSeeds: the Figure 19 ordering (more pixel
// bits => higher final SNR, 8-bit exact) must hold for any input, not just
// the recorded seed.
func TestFig19ConclusionRobustAcrossSeeds(t *testing.T) {
	for _, seed := range []uint64{2, 13, 101} {
		sweeps, err := Fig19Precision(Options{Size: 48, Workers: 2, Seed: seed, BaselineReps: 1})
		if err != nil {
			t.Fatal(err)
		}
		final := func(i int) float64 { return sweeps[i].Points[len(sweeps[i].Points)-1].SNR }
		if !math.IsInf(final(0), 1) {
			t.Errorf("seed %d: 8-bit not exact (%v)", seed, final(0))
		}
		if !(final(1) > final(2) && final(2) > final(3)) {
			t.Errorf("seed %d: ordering violated: %v %v %v", seed, final(1), final(2), final(3))
		}
	}
}
