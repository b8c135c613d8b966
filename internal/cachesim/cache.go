// Package cachesim reproduces the data-locality study of paper §IV-C3.
//
// The anytime automaton's non-sequential sampling permutations (tree,
// pseudo-random) defeat conventional cache locality, but because the
// permutations are deterministic, "simple hardware prefetchers can be
// implemented to alleviate the high miss rates … an address computation
// unit coupled with the deterministic tree or pseudo-random (e.g., LFSR)
// counters". This package provides a set-associative LRU cache model, a
// next-line prefetcher (the conventional design that only helps sequential
// access) and a permutation prefetcher (the paper's proposal), plus the
// experiment that measures miss rates for each permutation with each
// prefetcher.
package cachesim

import "fmt"

// Cache is a set-associative cache with true-LRU replacement, modeling hits
// and misses for word-granularity accesses. Addresses are word indices; a
// line holds LineWords consecutive words.
type Cache struct {
	sets      int
	ways      int
	lineWords int

	// lines[set][way] holds the line tag; lru[set][way] the recency stamp.
	lines [][]int64
	lru   [][]uint64
	clock uint64

	hits, misses uint64
}

// Config describes a cache geometry.
type Config struct {
	// SizeWords is the total capacity in words.
	SizeWords int
	// Ways is the associativity.
	Ways int
	// LineWords is the line size in words (a power of two).
	LineWords int
}

// New returns an empty cache with the given geometry.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeWords <= 0 || cfg.Ways <= 0 || cfg.LineWords <= 0 {
		return nil, fmt.Errorf("cachesim: nonpositive geometry %+v", cfg)
	}
	if cfg.LineWords&(cfg.LineWords-1) != 0 {
		return nil, fmt.Errorf("cachesim: line size %d must be a power of two", cfg.LineWords)
	}
	linesTotal := cfg.SizeWords / cfg.LineWords
	if linesTotal < cfg.Ways || linesTotal%cfg.Ways != 0 {
		return nil, fmt.Errorf("cachesim: %d lines not divisible into %d ways", linesTotal, cfg.Ways)
	}
	sets := linesTotal / cfg.Ways
	c := &Cache{sets: sets, ways: cfg.Ways, lineWords: cfg.LineWords}
	c.lines = make([][]int64, sets)
	c.lru = make([][]uint64, sets)
	for s := range c.lines {
		c.lines[s] = make([]int64, cfg.Ways)
		c.lru[s] = make([]uint64, cfg.Ways)
		for w := range c.lines[s] {
			c.lines[s][w] = -1
		}
	}
	return c, nil
}

// Hits reports demand hits so far.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses reports demand misses so far.
func (c *Cache) Misses() uint64 { return c.misses }

// MissRate reports misses / (hits + misses), or 0 before any access.
func (c *Cache) MissRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.misses) / float64(total)
}

// Access performs a demand access to the given word address, returning
// whether it hit.
func (c *Cache) Access(addr int) bool {
	hit := c.touch(addr)
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	return hit
}

// Prefetch installs the line containing addr without counting a demand
// access (prefetch traffic is free in this model; the paper's point is
// about demand miss latency).
func (c *Cache) Prefetch(addr int) { c.touch(addr) }

// touch looks the line up, updating LRU; on miss it installs the line
// (evicting true-LRU) and reports false.
func (c *Cache) touch(addr int) bool {
	line := int64(addr / c.lineWords)
	set := int(uint64(line) % uint64(c.sets))
	c.clock++
	ways := c.lines[set]
	for w, tag := range ways {
		if tag == line {
			c.lru[set][w] = c.clock
			return true
		}
	}
	victim := 0
	oldest := c.lru[set][0]
	for w := 1; w < c.ways; w++ {
		if c.lru[set][w] < oldest {
			oldest = c.lru[set][w]
			victim = w
		}
	}
	ways[victim] = line
	c.lru[set][victim] = c.clock
	return false
}
