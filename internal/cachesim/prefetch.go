package cachesim

import (
	"fmt"

	"anytime/internal/perm"
)

// Prefetcher predicts the upcoming word addresses of a sampling sweep. It
// is consulted before each demand access with the sweep position about to
// execute.
type Prefetcher interface {
	// Name labels the prefetcher in reports.
	Name() string
	// Predict returns the word addresses to prefetch before the demand
	// access at sweep position pos executes.
	Predict(pos int) []int
}

// NoPrefetch is the baseline: no prefetching.
type NoPrefetch struct{}

// Name implements Prefetcher.
func (NoPrefetch) Name() string { return "none" }

// Predict implements Prefetcher.
func (NoPrefetch) Predict(int) []int { return nil }

// NextLine is the conventional sequential prefetcher: on every access it
// prefetches the next cache line after the current one in address order. It
// helps streaming sweeps and does nothing useful for permuted ones.
type NextLine struct {
	Order     perm.Order
	LineWords int
}

// Name implements Prefetcher.
func (p NextLine) Name() string { return "next-line" }

// Predict implements Prefetcher.
func (p NextLine) Predict(pos int) []int {
	if pos >= p.Order.Len() {
		return nil
	}
	return []int{p.Order.At(pos) + p.LineWords}
}

// PermPrefetcher is the paper's proposal: an address computation unit that
// replays the deterministic sampling permutation a fixed distance ahead of
// the demand stream, so even pseudo-random sweeps find their lines
// resident. "The overhead and complexity of such prefetchers is minimal: an
// address computation unit coupled with the deterministic tree or
// pseudo-random (e.g., LFSR) counters" (§IV-C3).
//
// Distance matters for the tree permutation: its early accesses stride by
// large powers of two and therefore pile into a handful of cache sets, so
// a deep prefetch is evicted by the intervening same-set fills before its
// demand access arrives (measured here: distance 2 is miss-free, distance
// 8 thrashes completely on an 8-way cache). A hardware design would pair
// the prefetcher with index hashing; the model simply defaults to a short,
// timely distance.
type PermPrefetcher struct {
	Order    perm.Order
	Distance int // sweep positions ahead; default 2
}

// Name implements Prefetcher.
func (p PermPrefetcher) Name() string { return "permutation" }

// Predict implements Prefetcher.
func (p PermPrefetcher) Predict(pos int) []int {
	distance := p.Distance
	if distance <= 0 {
		distance = 2
	}
	ahead := pos + distance
	if ahead >= p.Order.Len() {
		return nil
	}
	return []int{p.Order.At(ahead)}
}

// SweepResult reports one measured sweep.
type SweepResult struct {
	Permutation string
	Prefetcher  string
	MissRate    float64
	Hits        uint64
	Misses      uint64
}

// Sweep performs one full pass over n words in the given visit order,
// consulting the prefetcher before each demand access, and reports the
// demand miss rate.
func Sweep(cfg Config, ord perm.Order, pf Prefetcher) (SweepResult, error) {
	c, err := New(cfg)
	if err != nil {
		return SweepResult{}, err
	}
	if pf == nil {
		pf = NoPrefetch{}
	}
	for pos := 0; pos < ord.Len(); pos++ {
		for _, addr := range pf.Predict(pos) {
			if addr >= 0 && addr < ord.Len() {
				c.Prefetch(addr)
			}
		}
		c.Access(ord.At(pos))
	}
	return SweepResult{
		Prefetcher: pf.Name(),
		MissRate:   c.MissRate(),
		Hits:       c.Hits(),
		Misses:     c.Misses(),
	}, nil
}

// Study runs the §IV-C3 experiment: every permutation × every prefetcher
// over a data set of n words with the given cache geometry.
func Study(cfg Config, n int, seed uint64) ([]SweepResult, error) {
	seqOrd, err := perm.Sequential(n)
	if err != nil {
		return nil, err
	}
	treeOrd, err := perm.Tree1D(n)
	if err != nil {
		return nil, err
	}
	randOrd, err := perm.PseudoRandom(n, seed)
	if err != nil {
		return nil, err
	}
	perms := []struct {
		name string
		ord  perm.Order
	}{
		{"sequential", seqOrd},
		{"tree", treeOrd},
		{"pseudo-random", randOrd},
	}
	var out []SweepResult
	for _, p := range perms {
		pfs := []Prefetcher{
			NoPrefetch{},
			NextLine{Order: p.ord, LineWords: cfg.LineWords},
			PermPrefetcher{Order: p.ord},
		}
		for _, pf := range pfs {
			r, err := Sweep(cfg, p.ord, pf)
			if err != nil {
				return nil, err
			}
			r.Permutation = p.name
			out = append(out, r)
		}
	}
	return out, nil
}

// FormatStudy renders study rows as an aligned table.
func FormatStudy(rows []SweepResult) string {
	out := fmt.Sprintf("%-14s %-12s %10s %10s %10s\n", "permutation", "prefetcher", "miss-rate", "hits", "misses")
	for _, r := range rows {
		out += fmt.Sprintf("%-14s %-12s %9.1f%% %10d %10d\n", r.Permutation, r.Prefetcher, r.MissRate*100, r.Hits, r.Misses)
	}
	return out
}
