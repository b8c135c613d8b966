package serve

import (
	"context"

	"anytime/internal/core"
	"anytime/internal/reqtrace"
	"anytime/internal/snapcache"
)

// Warm starts. A snapshot cache (internal/snapcache) can hold delivered
// snapshots, and a pooled automaton can be seeded with one before Start:
// SeedFromCache between Pool.Get and Run, Admit after the response is
// delivered, both nil-safe. A seeded image stage still computes every
// round from the first (core.SeedFrom), so a warm start cut after as many
// rounds as its seed had delivers the cold run's image; anytimed therefore
// runs every request cold, and these helpers serve callers that measure
// the seed path.

// SeedFromCache looks up key and, on a hit, seeds the entry's automaton
// with the cached value at its cached version. It returns the cache entry
// and whether the automaton was actually seeded. A hit that the automaton
// cannot apply (no OnSeed hook, payload mismatch) falls back to a cold
// start: the automaton is Reset to shed any partially applied seed and the
// request proceeds as a miss. A nil cache is a miss without the lookup.
func SeedFromCache[T any](ctx context.Context, e Entry[T], c *snapcache.Cache[T], key snapcache.Key) (snapcache.Entry[T], bool) {
	var zero snapcache.Entry[T]
	if c == nil {
		return zero, false
	}
	ce, ok := c.Get(key)
	if !ok || !Seed(ctx, e, ce.Value, ce.Version) {
		return zero, false
	}
	return ce, true
}

// Seed installs payload as the entry's starting published state at the
// given version, reporting success. On failure the error lands in the
// request's trace, the automaton is Reset (a partially applied seed must
// never start), and the caller should run cold.
func Seed[T any](ctx context.Context, e Entry[T], payload T, version core.Version) bool {
	if err := e.Automaton.SeedFrom(payload, version); err != nil {
		tr := reqtrace.FromContext(ctx)
		tr.Error("seed: " + err.Error())
		if rerr := e.Automaton.Reset(); rerr != nil {
			tr.Error("seed reset: " + rerr.Error())
		}
		return false
	}
	return true
}

// Admit offers a delivered snapshot to the cache on the way out of a
// request, reporting whether it was admitted. The cache's own admission
// rules apply (never replace a newer version, size bounds); a nil cache,
// an unpublished result, and a zero-version snapshot are all quiet no-ops.
// Callers should admit after the response is written — admission
// serializes on the cache's writer lock and has no business on the
// request's critical path.
func Admit[T any](c *snapcache.Cache[T], key snapcache.Key, res Result[T], snrDB float64) bool {
	if c == nil || res.Snapshot.Version == 0 {
		return false
	}
	return c.Put(key, snapcache.Entry[T]{
		Value:   res.Snapshot.Value,
		Version: res.Snapshot.Version,
		SNRdB:   snrDB,
	})
}
