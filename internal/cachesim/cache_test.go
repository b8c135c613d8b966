package cachesim

import (
	"strings"
	"testing"

	"anytime/internal/perm"
)

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{SizeWords: 0, Ways: 1, LineWords: 1},
		{SizeWords: 64, Ways: 0, LineWords: 1},
		{SizeWords: 64, Ways: 1, LineWords: 0},
		{SizeWords: 64, Ways: 1, LineWords: 3},  // not a power of two
		{SizeWords: 16, Ways: 32, LineWords: 1}, // fewer lines than ways
		{SizeWords: 48, Ways: 5, LineWords: 1},  // lines % ways != 0
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	c, err := New(Config{SizeWords: 64, Ways: 2, LineWords: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 16 lines in 2 ways is 8 sets: lines 8 apart (32 words) share a set,
	// so the third such line evicts the first.
	for _, addr := range []int{0, 32, 64, 0} {
		c.Access(addr)
	}
	if c.Misses() != 4 {
		t.Errorf("misses = %d, want 4 (8 sets of 2 ways)", c.Misses())
	}
}

func TestColdMissThenHit(t *testing.T) {
	c, err := New(Config{SizeWords: 64, Ways: 2, LineWords: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) {
		t.Error("repeat access missed")
	}
	// Same line, different word: hit.
	if !c.Access(3) {
		t.Error("same-line access missed")
	}
	// Next line: cold miss.
	if c.Access(4) {
		t.Error("next-line cold access hit")
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Errorf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
	if c.MissRate() != 0.5 {
		t.Errorf("miss rate %v", c.MissRate())
	}
}

// TestLRUEvictionHandChecked: a 1-set, 2-way cache with 1-word lines holds
// exactly two addresses; accessing a third evicts the least recent.
func TestLRUEvictionHandChecked(t *testing.T) {
	c, err := New(Config{SizeWords: 2, Ways: 2, LineWords: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0) // miss; resident {0}
	c.Access(1) // miss; resident {0,1}
	if !c.Access(0) {
		t.Error("0 evicted prematurely")
	}
	c.Access(2) // miss; evicts LRU = 1
	if !c.Access(0) {
		t.Error("0 evicted instead of LRU 1")
	}
	if c.Access(1) {
		t.Error("1 still resident after eviction")
	}
}

func TestPrefetchInstallsWithoutDemandCount(t *testing.T) {
	c, err := New(Config{SizeWords: 64, Ways: 2, LineWords: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.Prefetch(8)
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Error("prefetch counted as demand access")
	}
	if !c.Access(8) {
		t.Error("prefetched line missed")
	}
}

func TestSequentialSweepMissRateIsCompulsory(t *testing.T) {
	const n = 1 << 12
	ord, err := perm.Sequential(n)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Sweep(Config{SizeWords: 256, Ways: 4, LineWords: 8}, ord, NoPrefetch{})
	if err != nil {
		t.Fatal(err)
	}
	// A streaming sweep misses exactly once per line: 1/8.
	want := 1.0 / 8
	if r.MissRate != want {
		t.Errorf("sequential miss rate %v, want %v", r.MissRate, want)
	}
}

// TestStudyReproducesSectionIVC3 is the paper's locality claim end to end:
//
//  1. without prefetching, the tree and pseudo-random permutations miss far
//     more than sequential;
//  2. the conventional next-line prefetcher rescues only sequential; and
//  3. the deterministic permutation prefetcher brings every permutation's
//     demand miss rate to (near) zero.
func TestStudyReproducesSectionIVC3(t *testing.T) {
	// 64Ki-word data set against a 4Ki-word cache: 16x oversubscribed.
	rows, err := Study(Config{SizeWords: 4096, Ways: 8, LineWords: 16}, 1<<16, 7)
	if err != nil {
		t.Fatal(err)
	}
	get := func(permName, pf string) SweepResult {
		for _, r := range rows {
			if r.Permutation == permName && r.Prefetcher == pf {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", permName, pf)
		return SweepResult{}
	}
	seqNone := get("sequential", "none").MissRate
	treeNone := get("tree", "none").MissRate
	randNone := get("pseudo-random", "none").MissRate
	if !(treeNone > 4*seqNone) || !(randNone > 4*seqNone) {
		t.Errorf("permuted sweeps did not lose locality: seq=%v tree=%v rand=%v", seqNone, treeNone, randNone)
	}
	// Next-line rescues sequential…
	if nl := get("sequential", "next-line").MissRate; nl > seqNone/4 {
		t.Errorf("next-line did not help the sequential sweep: %v vs %v", nl, seqNone)
	}
	// …but barely moves the permuted sweeps.
	if nl := get("pseudo-random", "next-line").MissRate; nl < randNone/2 {
		t.Errorf("next-line implausibly rescued the pseudo-random sweep: %v vs %v", nl, randNone)
	}
	// The permutation prefetcher (the paper's proposal) fixes everything.
	for _, permName := range []string{"sequential", "tree", "pseudo-random"} {
		if pp := get(permName, "permutation").MissRate; pp > 0.01 {
			t.Errorf("permutation prefetcher left %s at %v demand misses", permName, pp)
		}
	}
}

func TestFormatStudy(t *testing.T) {
	rows, err := Study(Config{SizeWords: 512, Ways: 4, LineWords: 8}, 1<<12, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatStudy(rows)
	for _, want := range []string{"sequential", "tree", "pseudo-random", "next-line", "permutation", "miss-rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestTreePrefetchDistanceConflict documents the tree permutation's
// power-of-two-stride conflict behavior: a short prefetch distance is
// miss-free, while a deep one self-evicts in the few sets the early tree
// accesses pile into.
func TestTreePrefetchDistanceConflict(t *testing.T) {
	cfg := Config{SizeWords: 4096, Ways: 8, LineWords: 16}
	tree, err := perm.Tree1D(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	short, err := Sweep(cfg, tree, PermPrefetcher{Order: tree, Distance: 2})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := Sweep(cfg, tree, PermPrefetcher{Order: tree, Distance: 8})
	if err != nil {
		t.Fatal(err)
	}
	if short.MissRate > 0.01 {
		t.Errorf("timely prefetch missed: %v", short.MissRate)
	}
	if deep.MissRate < 0.5 {
		t.Errorf("deep prefetch should self-evict under power-of-two strides, got %v", deep.MissRate)
	}
}
