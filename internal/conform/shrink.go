package conform

import (
	"anytime/internal/core"
)

// shrinkRetries is how many times a candidate simplification is re-run
// before concluding it no longer fails: real OS scheduling makes some
// failures flaky, so a candidate keeps only if at least one of its retries
// still violates an invariant.
const shrinkRetries = 3

// shrinkBudget caps the total number of candidate evaluations (each up to
// shrinkRetries runs), so shrinking a pathological failure stays bounded.
const shrinkBudget = 48

// shrink minimizes a failing schedule by greedily applying simplifying
// transformations — dropping chaos points, zeroing faults, reverting
// policy/snapshot/workers to defaults, halving the interrupt ordinal —
// and keeping each one that still reproduces a violation. The result is
// the smallest schedule the budget could confirm failing, which is what a
// human debugs from.
func shrink(app App, s Schedule) Schedule {
	budget := shrinkBudget
	fails := func(c Schedule) bool {
		if budget <= 0 {
			return false
		}
		budget--
		for i := 0; i < shrinkRetries; i++ {
			if RunOne(app, c).Failed() {
				return true
			}
		}
		return false
	}
	cur := s
	for changed := true; changed && budget > 0; {
		changed = false
		for _, cand := range shrinkCandidates(cur) {
			if fails(cand) {
				cur = cand
				changed = true
				break
			}
		}
	}
	return cur
}

// shrinkCandidates returns the one-step simplifications of s, most
// aggressive first.
func shrinkCandidates(s Schedule) []Schedule {
	var out []Schedule
	add := func(c Schedule) { out = append(out, c) }

	// Drop all chaos at once — the best case is a chaos-free failure.
	if len(s.Pauses) > 0 || len(s.Delays) > 0 || s.EdgeDelay > 0 || s.StorageUpset > 0 {
		c := s
		c.Pauses, c.Delays, c.EdgeDelay, c.StorageUpset = nil, nil, 0, 0
		add(c)
	}
	for i := range s.Pauses {
		c := s
		c.Pauses = append(append([]ChaosPoint(nil), s.Pauses[:i]...), s.Pauses[i+1:]...)
		add(c)
	}
	for i := range s.Delays {
		c := s
		c.Delays = append(append([]ChaosPoint(nil), s.Delays[:i]...), s.Delays[i+1:]...)
		add(c)
	}
	if s.EdgeDelay > 0 {
		c := s
		c.EdgeDelay = 0
		add(c)
	}
	if s.StorageUpset > 0 {
		c := s
		c.StorageUpset = 0
		add(c)
	}
	if s.Stop.Kind != StopNone {
		c := s
		c.Stop = StopPoint{}
		add(c)
	}
	if s.Stop.Count > 1 {
		c := s
		c.Stop.Count = s.Stop.Count / 2
		add(c)
	}
	if s.Workers > 1 {
		c := s
		c.Workers = 1
		add(c)
	}
	if s.Policy != core.PublishEveryRound {
		c := s
		c.Policy = core.PublishEveryRound
		add(c)
	}
	if s.Granularity > 0 {
		c := s
		c.Granularity = 0
		add(c)
	}
	return out
}
