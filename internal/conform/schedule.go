package conform

import (
	"fmt"
	"strings"
	"time"

	"anytime/internal/core"
)

// rng is the harness's deterministic generator (splitmix64). Every random
// decision of a conformance run flows from one of these, so a seed fully
// determines the schedule it expands into.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// chance reports true with probability pct/100.
func (r *rng) chance(pct int) bool { return r.intn(100) < pct }

// StopKind selects how a schedule interrupts its automaton.
type StopKind int

const (
	// StopNone runs the automaton to its precise output.
	StopNone StopKind = iota
	// StopAtPublish stops after the run's Count-th publish across all
	// probed buffers.
	StopAtPublish
	// StopAtCheckpoint stops when stage Stage reaches its Count-th
	// checkpoint. The trigger is deterministic in the stage's own
	// execution; the progress of sibling stages at that instant is exactly
	// what the invariants must be robust to.
	StopAtCheckpoint
)

func (k StopKind) String() string {
	switch k {
	case StopNone:
		return "none"
	case StopAtPublish:
		return "publish"
	case StopAtCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("StopKind(%d)", int(k))
	}
}

// StopPoint is a schedule's interrupt point.
type StopPoint struct {
	Kind  StopKind
	Stage string // StopAtCheckpoint only
	Count int    // 1-based trigger ordinal
}

// ChaosPoint is one seeded scheduling perturbation: at stage Stage's At-th
// checkpoint, stall (delay fault) or close the pause gate (pause fault)
// for Dur.
type ChaosPoint struct {
	Stage string
	At    int
	Dur   time.Duration
}

// Schedule is one fully expanded conformance plan: the configuration
// dimensions the explorer permutes (workers × publish policy ×
// granularity), the interrupt point, and the injected faults. A
// Schedule is a pure function of (App, Seed); see deriveSchedule.
type Schedule struct {
	Seed        uint64
	Workers     int
	Policy      core.PublishPolicy
	Granularity int // 0 selects the app default
	Stop        StopPoint
	// Pauses close the automaton's pause gate at the named stage's At-th
	// checkpoint for Dur; a helper then resumes it (the paper's
	// pause-anywhere interrupt, §III).
	Pauses []ChaosPoint
	// Delays stall the named stage at its At-th checkpoint for Dur,
	// skewing worker interleavings the way a noisy scheduler would.
	Delays []ChaosPoint
	// EdgeDelay starves asynchronous and synchronous pipeline edges: every
	// consumer blocks this long before taking its next snapshot/update.
	EdgeDelay time.Duration
	// StorageUpset, when positive, routes input reads of apps built on
	// approximate storage through internal/store's drowsy-upset machinery
	// with this per-bit read upset probability (§IV-B2).
	StorageUpset float64
}

func (s Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d workers=%d policy=%s", s.Seed, s.Workers, policyName(s.Policy))
	if s.Granularity > 0 {
		fmt.Fprintf(&b, " gran=%d", s.Granularity)
	}
	switch s.Stop.Kind {
	case StopAtPublish:
		fmt.Fprintf(&b, " stop=publish#%d", s.Stop.Count)
	case StopAtCheckpoint:
		fmt.Fprintf(&b, " stop=%s@ckpt#%d", s.Stop.Stage, s.Stop.Count)
	}
	for _, p := range s.Pauses {
		fmt.Fprintf(&b, " pause=%s@%d/%v", p.Stage, p.At, p.Dur)
	}
	for _, d := range s.Delays {
		fmt.Fprintf(&b, " delay=%s@%d/%v", d.Stage, d.At, d.Dur)
	}
	if s.EdgeDelay > 0 {
		fmt.Fprintf(&b, " edgedelay=%v", s.EdgeDelay)
	}
	if s.StorageUpset > 0 {
		fmt.Fprintf(&b, " upset=%g", s.StorageUpset)
	}
	return b.String()
}

func policyName(p core.PublishPolicy) string {
	switch p {
	case core.PublishEveryRound:
		return "every"
	case core.PublishOnDemand:
		return "demand"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// deriveSchedule expands a seed into a concrete schedule for the app,
// sampling only the dimensions the app supports (Features). The expansion
// is deterministic: the same (app, seed) pair always yields the same
// schedule, which is what makes a reported failure reproducible.
func deriveSchedule(app App, seed uint64) Schedule {
	r := newRNG(seed)
	feats := app.Features()
	stages := app.Stages()
	s := Schedule{Seed: seed, Workers: 1}
	if feats.Workers {
		s.Workers = 1 + r.intn(4)
	}
	if feats.Policies {
		s.Policy = []core.PublishPolicy{core.PublishEveryRound, core.PublishOnDemand}[r.intn(2)]
	}
	if feats.MaxGranularity > 0 && r.chance(50) {
		s.Granularity = 1 + r.intn(feats.MaxGranularity)
	}
	// Three in four schedules interrupt the automaton somewhere; the rest
	// run to the precise output and pin final-output equivalence.
	switch r.intn(4) {
	case 0:
		// StopNone
	case 1:
		s.Stop = StopPoint{Kind: StopAtPublish, Count: 1 + r.intn(12)}
	default:
		s.Stop = StopPoint{
			Kind:  StopAtCheckpoint,
			Stage: stages[r.intn(len(stages))],
			Count: 1 + r.intn(24),
		}
	}
	for i, n := 0, r.intn(3); i < n; i++ {
		s.Pauses = append(s.Pauses, ChaosPoint{
			Stage: stages[r.intn(len(stages))],
			At:    1 + r.intn(16),
			Dur:   time.Duration(50+r.intn(300)) * time.Microsecond,
		})
	}
	for i, n := 0, r.intn(4); i < n; i++ {
		s.Delays = append(s.Delays, ChaosPoint{
			Stage: stages[r.intn(len(stages))],
			At:    1 + r.intn(24),
			Dur:   time.Duration(1+r.intn(200)) * time.Microsecond,
		})
	}
	if feats.Edges && r.chance(30) {
		s.EdgeDelay = time.Duration(20+r.intn(200)) * time.Microsecond
	}
	if feats.Storage && r.chance(25) {
		s.StorageUpset = []float64{1e-5, 1e-4, 1e-3}[r.intn(3)]
	}
	return s
}
