package sched

import (
	"fmt"
	"sort"
)

// Policy allocates a budget of workers across a pipeline's stages.
type Policy interface {
	// Name labels the policy in reports.
	Name() string
	// Allocate returns one worker count per stage; counts are >= 1 and sum
	// to at most total.
	Allocate(p Pipeline, total int) ([]int, error)
}

// Equal splits the budget evenly — the naive baseline.
type Equal struct{}

// Name implements Policy.
func (Equal) Name() string { return "equal" }

// Allocate implements Policy.
func (Equal) Allocate(p Pipeline, total int) ([]int, error) {
	return spread(p, total, func(i int) float64 { return 1 })
}

// Proportional allocates in proportion to total stage cost — the
// conventional pipeline-balancing heuristic the paper notes "may not be
// suitable for the automaton pipeline".
type Proportional struct{}

// Name implements Policy.
func (Proportional) Name() string { return "proportional" }

// Allocate implements Policy.
func (Proportional) Allocate(p Pipeline, total int) ([]int, error) {
	return spread(p, total, p.TotalCost)
}

// FirstOutput targets the time to the first whole-application output: it
// weights stages by the cost of their FIRST pass, which is the critical
// path to O1111 ("we need to allocate more threads to the longest stage
// f", §IV-C2).
type FirstOutput struct{}

// Name implements Policy.
func (FirstOutput) Name() string { return "first-output" }

// Allocate implements Policy.
func (FirstOutput) Allocate(p Pipeline, total int) ([]int, error) {
	return spread(p, total, func(i int) float64 { return p.Stages[i].PassCosts[0] })
}

// OutputRate targets the time between consecutive outputs: it weights the
// sink stage, whose pass latency bounds the inter-output gap ("we need to
// allocate more threads to the final stage i", §IV-C2).
type OutputRate struct{}

// Name implements Policy.
func (OutputRate) Name() string { return "output-rate" }

// Allocate implements Policy.
func (OutputRate) Allocate(p Pipeline, total int) ([]int, error) {
	sink := p.Sink()
	return spread(p, total, func(i int) float64 {
		if i == sink {
			return float64(total) // dominate the weighting
		}
		return 1
	})
}

// spread distributes total workers by weight, guaranteeing one worker per
// stage, with deterministic largest-remainder rounding.
func spread(p Pipeline, total int, weight func(i int) float64) ([]int, error) {
	n := len(p.Stages)
	if total < n {
		return nil, fmt.Errorf("sched: budget %d below one worker per stage (%d stages)", total, n)
	}
	alloc := make([]int, n)
	for i := range alloc {
		alloc[i] = 1
	}
	extra := total - n
	if extra == 0 {
		return alloc, nil
	}
	var sum float64
	ws := make([]float64, n)
	for i := range ws {
		w := weight(i)
		if w < 0 {
			w = 0
		}
		ws[i] = w
		sum += w
	}
	if sum == 0 {
		return alloc, nil
	}
	type frac struct {
		i   int
		rem float64
	}
	fracs := make([]frac, n)
	assigned := 0
	for i := range ws {
		share := float64(extra) * ws[i] / sum
		whole := int(share)
		alloc[i] += whole
		assigned += whole
		fracs[i] = frac{i: i, rem: share - float64(whole)}
	}
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].rem != fracs[b].rem {
			return fracs[a].rem > fracs[b].rem
		}
		return fracs[a].i < fracs[b].i
	})
	for k := 0; assigned < extra; k++ {
		alloc[fracs[k%n].i]++
		assigned++
	}
	return alloc, nil
}

// Comparison is one policy's simulated outcome on a pipeline.
type Comparison struct {
	Policy      string
	Allocation  []int
	FirstOutput float64
	MeanGap     float64
	Final       float64
	Work        float64
}

// Compare simulates every policy on the pipeline with the given worker
// budget.
func Compare(p Pipeline, total int, policies []Policy) ([]Comparison, error) {
	out := make([]Comparison, 0, len(policies))
	for _, pol := range policies {
		alloc, err := pol.Allocate(p, total)
		if err != nil {
			return nil, fmt.Errorf("sched: %s: %w", pol.Name(), err)
		}
		res, err := Simulate(p, alloc)
		if err != nil {
			return nil, fmt.Errorf("sched: %s: %w", pol.Name(), err)
		}
		out = append(out, Comparison{
			Policy:      pol.Name(),
			Allocation:  alloc,
			FirstOutput: res.FirstOutput,
			MeanGap:     res.MeanGap,
			Final:       res.Final,
			Work:        res.Work,
		})
	}
	return out, nil
}

// DefaultPolicies are the four allocation strategies discussed in §IV-C2.
func DefaultPolicies() []Policy {
	return []Policy{Equal{}, Proportional{}, FirstOutput{}, OutputRate{}}
}
