package harness

import (
	"fmt"
	"time"

	"anytime/internal/core"
	"anytime/internal/metrics"
	"anytime/internal/pix"
)

// HaltSweep reproduces the paper's literal measurement procedure for the
// runtime–accuracy figures: "executing each automaton and halting it after
// some time to evaluate its output accuracy", once per requested halt
// fraction. build must return a fresh automaton each call; ref is the
// precise output; fractions are normalized halt points (values >= 1 let
// the run finish if it can).
//
// The observer-based Collector measures the same curve from a single run;
// TestHaltSweepMatchesObserverProfile validates that equivalence.
func HaltSweep(build func() (*core.Automaton, *core.Buffer[*pix.Image], error), ref *pix.Image, baseline time.Duration, fractions []float64) (Profile, error) {
	if baseline <= 0 {
		return Profile{}, fmt.Errorf("harness: nonpositive baseline %v", baseline)
	}
	if len(fractions) == 0 {
		return Profile{}, fmt.Errorf("harness: no halt fractions")
	}
	p := Profile{App: "halt-sweep", Baseline: baseline}
	for _, frac := range fractions {
		if frac <= 0 {
			return Profile{}, fmt.Errorf("harness: nonpositive halt fraction %v", frac)
		}
		a, out, err := build()
		if err != nil {
			return Profile{}, err
		}
		res, err := run(a, out, time.Duration(frac*float64(baseline)))
		if err != nil {
			return Profile{}, err
		}
		db, err := metrics.SNR(ref.Pix, res.Snapshot.Value.Pix)
		if err != nil {
			return Profile{}, err
		}
		p.Points = append(p.Points, Point{
			Runtime: float64(res.Elapsed) / float64(baseline),
			SNR:     db,
		})
		p.Total = max(p.Total, res.Elapsed)
	}
	return p, nil
}
