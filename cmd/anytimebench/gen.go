package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// rng is splitmix64: tiny, stdlib-free, and identical on every platform, so
// a seed names one arrival schedule and one key stream forever.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in (0, 1].
func (r *rng) float() float64 {
	return (float64(r.next()>>11) + 1) / (1 << 53)
}

// stream derives an independent generator for one named purpose, so adding
// a consumer of randomness never shifts the values another consumer sees.
func stream(seed uint64, purpose string) *rng {
	r := &rng{s: seed}
	for _, c := range []byte(purpose) {
		r.s = r.next() ^ uint64(c)
	}
	return r
}

// poissonSchedule returns the arrival offsets of a Poisson process of the
// given rate over the window, conditioned on its count: exactly
// round(rate × window) arrivals, placed independently and uniformly over the
// window and sorted — which is how the arrivals of a Poisson process are
// distributed once their number is known. Fixing the number keeps the load
// offered the same for every seed (the unconditioned count would vary by
// ±2 % at 2250 arrivals, and the share an overloaded server can answer with
// it); the gaps, bursts and lulls are the seed's. The schedule is computed
// before the clock starts; the generator only sleeps until each offset.
func poissonSchedule(r *rng, rate float64, window time.Duration) []time.Duration {
	out := make([]time.Duration, int(math.Round(rate*window.Seconds())))
	for i := range out {
		out[i] = time.Duration(r.float() * float64(window))
	}
	slices.Sort(out)
	// float() is in (0, 1]: an arrival drawn at exactly 1 is due at the
	// window's last nanosecond, not after it.
	for i := len(out) - 1; i >= 0 && out[i] >= window; i-- {
		out[i] = window - 1
	}
	return out
}

// keyStream hands out request keys that are unique within a run and a
// function of (seed, counter) only. Unique keys keep the snapshot cache in
// its steady miss → admit → evict state instead of warming during the
// measurement.
type keyStream struct {
	r *rng
	n uint64
}

func newKeyStream(seed uint64) *keyStream { return &keyStream{r: stream(seed, "keys")} }

func (k *keyStream) next() string {
	k.n++
	return fmt.Sprintf("k%016x-%d", k.r.next(), k.n)
}

// take returns the next n keys.
func (k *keyStream) take(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = k.next()
	}
	return out
}

// generator is the seeded source of everything a run sends: the request
// keys and, for each open-loop pass, an arrival schedule and the stream its
// backend placement is drawn from. The program under test receives only
// what it generates.
type generator struct {
	seed   uint64
	keys   *keyStream
	passes int // open-loop passes so far: each draws its own arrival gaps
}

func newGenerator(seed uint64) *generator {
	return &generator{seed: seed, keys: newKeyStream(seed)}
}

// arrivals returns the next pass's Poisson schedule and placement stream.
func (g *generator) arrivals(rate float64, window time.Duration) ([]time.Duration, *rng) {
	g.passes++
	sched := poissonSchedule(stream(g.seed, fmt.Sprintf("arrivals-%d", g.passes)), rate, window)
	return sched, stream(g.seed, fmt.Sprintf("placement-%d", g.passes))
}
