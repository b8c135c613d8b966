// Package harness drives the paper's evaluation (§IV): it times precise
// baselines, records runtime–accuracy profiles of running automata
// (Figures 11–15), halts automata at a target fraction of the baseline
// runtime to grab sample outputs (Figures 16–18), sweeps sample-size versus
// accuracy under reduced precision and approximate storage (Figures 19–20),
// and compares the automaton organizations of the §III-D summary example
// (Figure 10).
//
// The paper generates its profiles "from multiple runs, executing each
// automaton and halting it after some time to evaluate its output
// accuracy". This harness instead attaches an observer to the output buffer
// and records every published snapshot of a single run — an equivalent
// measurement (each snapshot is exactly what a halt at that moment would
// observe, by Property 3) at a fraction of the cost.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"anytime/internal/core"
	"anytime/internal/metrics"
	"anytime/internal/pix"
)

// Point is one observed output of a running automaton.
type Point struct {
	// Runtime is the elapsed wall time at publication, normalized to the
	// precise baseline's runtime (the x-axis of Figures 11–15).
	Runtime float64
	// SNR is the output accuracy in decibels relative to the precise
	// output (+Inf when bit-exact).
	SNR float64
	// Fraction is the portion of the sample processed, when the producing
	// stage reports one (the x-axis of Figures 19–20); otherwise 0.
	Fraction float64
}

// Profile is the measured runtime–accuracy curve of one automaton run.
type Profile struct {
	App      string
	Baseline time.Duration
	Total    time.Duration // automaton wall time to precise output
	Points   []Point
}

// PreciseAt returns the normalized runtime at which the profile first
// reached +Inf dB, or 0 if it never did.
func (p Profile) PreciseAt() float64 {
	for _, pt := range p.Points {
		if pt.SNR == metrics.InfDB {
			return pt.Runtime
		}
	}
	return 0
}

// BestUnder returns the best SNR among points with normalized runtime at
// most limit, and whether any such point exists.
func (p Profile) BestUnder(limit float64) (float64, bool) {
	best, ok := 0.0, false
	for _, pt := range p.Points {
		if pt.Runtime <= limit && (!ok || pt.SNR > best) {
			best, ok = pt.SNR, true
		}
	}
	return best, ok
}

// WriteCSV emits the profile as "runtime,snr_db,fraction" rows.
func (p Profile) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: baseline %v, total %v\n", p.App, p.Baseline, p.Total); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "runtime,snr_db,fraction"); err != nil {
		return err
	}
	for _, pt := range p.Points {
		if _, err := fmt.Fprintf(w, "%.4f,%s,%.4f\n", pt.Runtime, metrics.FormatDB(pt.SNR), pt.Fraction); err != nil {
			return err
		}
	}
	return nil
}

// Collector is the per-publish accuracy recorder: it stores a timestamp and
// the published image for every output of a run (immutable by Property 3)
// and scores them against the precise reference only when a curve is asked
// for, so SNR computation never delays the pipeline being measured. It is
// fed as a buffer publish observer (Observe) or, where the processed-sample
// count is the x-axis (Figures 19–20), by conv2d's OnSnapshot callback
// (Record), and exports the figures' Profile or the live
// accuracy-versus-wallclock curve (Curve, WriteJSON) from the same points.
type Collector struct {
	ref   *pix.Image
	total int // total sample size for Fraction, 0 if unused

	mu     sync.Mutex
	start  time.Time
	points []rawPoint
}

type rawPoint struct {
	at        time.Duration
	img       *pix.Image
	processed int
	version   core.Version
	final     bool
	snr       float64 // valid once scored
	scored    bool
}

// Sample is one exported point of the accuracy-versus-wallclock curve.
type Sample struct {
	// Elapsed is wall time since Begin (or the collector's creation).
	Elapsed time.Duration `json:"elapsed_ns"`
	// Version is the snapshot's buffer version (0 for points fed through
	// Record, which carries none).
	Version core.Version `json:"version"`
	// SNR is the accuracy in decibels against the precise reference
	// (+Inf when bit-exact; serialized as "inf" in JSON).
	SNR float64 `json:"-"`
	// Final marks the precise output.
	Final bool `json:"final"`
}

// NewCollector returns a collector comparing snapshots against the precise
// reference output. sampleTotal, if nonzero, scales recorded processed
// counts into Fraction.
func NewCollector(ref *pix.Image, sampleTotal int) *Collector {
	return &Collector{ref: ref, total: sampleTotal, start: time.Now()}
}

// Begin (re)sets the time origin and discards prior points. Call it
// immediately before starting the automaton.
func (c *Collector) Begin() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.start = time.Now()
	c.points = c.points[:0]
}

// Record stores one published snapshot; img must stay immutable after the
// call, as every automaton snapshot does. processed may be 0 when the
// producing stage does not report sample sizes.
func (c *Collector) Record(processed int, img *pix.Image) {
	c.add(rawPoint{img: img, processed: processed})
}

// Observe stores one buffer publish with its version and finality; attach
// it with buf.OnPublish(c.Observe) before the automaton starts. It coexists
// with tracers and metric observers on the same buffer.
func (c *Collector) Observe(s core.Snapshot[*pix.Image]) {
	c.add(rawPoint{img: s.Value, version: s.Version, final: s.Final})
}

func (c *Collector) add(rp rawPoint) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	rp.at = now.Sub(c.start)
	c.points = append(c.points, rp)
}

// scoreLocked computes the SNR of every point not yet scored; each image is
// scored once however many exports follow. Called with mu held.
func (c *Collector) scoreLocked() error {
	for i := range c.points {
		rp := &c.points[i]
		if rp.scored {
			continue
		}
		db, err := metrics.SNR(c.ref.Pix, rp.img.Pix)
		if err != nil {
			return fmt.Errorf("harness: accuracy sample %d (v%d): %w", i, rp.version, err)
		}
		rp.snr, rp.scored = db, true
	}
	return nil
}

// Curve returns the recorded points with SNR computed against the
// reference, in publish order.
func (c *Collector) Curve() ([]Sample, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.scoreLocked(); err != nil {
		return nil, err
	}
	curve := make([]Sample, len(c.points))
	for i, rp := range c.points {
		curve[i] = Sample{Elapsed: rp.at, Version: rp.version, SNR: rp.snr, Final: rp.final}
	}
	return curve, nil
}

// Finish computes the profile — the structure EXPERIMENTS figures are
// plotted from — normalizing runtimes by baseline (the precise run's wall
// time).
func (c *Collector) Finish(app string, baseline time.Duration) (Profile, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if baseline <= 0 {
		return Profile{}, fmt.Errorf("harness: nonpositive baseline %v", baseline)
	}
	if err := c.scoreLocked(); err != nil {
		return Profile{}, err
	}
	p := Profile{App: app, Baseline: baseline}
	for _, rp := range c.points {
		pt := Point{
			Runtime: float64(rp.at) / float64(baseline),
			SNR:     rp.snr,
		}
		if c.total > 0 {
			pt.Fraction = float64(rp.processed) / float64(c.total)
		}
		p.Points = append(p.Points, pt)
		if rp.at > p.Total {
			p.Total = rp.at
		}
	}
	return p, nil
}

// WriteJSON emits the curve as a JSON array of
// {elapsed_ns, version, snr_db, final} objects, with +Inf SNR serialized as
// "inf" like Profile.MarshalJSON.
func (c *Collector) WriteJSON(w io.Writer) error {
	curve, err := c.Curve()
	if err != nil {
		return err
	}
	type jsonSample struct {
		ElapsedNS int64  `json:"elapsed_ns"`
		Version   uint64 `json:"version"`
		SNRdB     string `json:"snr_db"`
		Final     bool   `json:"final"`
	}
	out := make([]jsonSample, len(curve))
	for i, s := range curve {
		out[i] = jsonSample{
			ElapsedNS: int64(s.Elapsed),
			Version:   uint64(s.Version),
			SNRdB:     metrics.FormatDB(s.SNR),
			Final:     s.Final,
		}
	}
	return json.NewEncoder(w).Encode(out)
}

// TimeBaseline runs fn reps times and returns the fastest duration (the
// standard way to suppress scheduling noise). reps must be positive.
func TimeBaseline(fn func() error, reps int) (time.Duration, error) {
	if reps < 1 {
		return 0, fmt.Errorf("harness: reps %d must be positive", reps)
	}
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// MarshalJSON renders the profile for external tooling: points as
// [runtime, snr_db, fraction] triples with +Inf serialized as "inf".
func (p Profile) MarshalJSON() ([]byte, error) {
	type jsonPoint struct {
		Runtime  float64 `json:"runtime"`
		SNR      string  `json:"snr_db"`
		Fraction float64 `json:"fraction,omitempty"`
	}
	pts := make([]jsonPoint, len(p.Points))
	for i, pt := range p.Points {
		pts[i] = jsonPoint{Runtime: pt.Runtime, SNR: metrics.FormatDB(pt.SNR), Fraction: pt.Fraction}
	}
	return json.Marshal(struct {
		App        string      `json:"app"`
		BaselineNS int64       `json:"baseline_ns"`
		TotalNS    int64       `json:"total_ns"`
		Points     []jsonPoint `json:"points"`
	}{p.App, int64(p.Baseline), int64(p.Total), pts})
}
