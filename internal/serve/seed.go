package serve

import (
	"context"

	"anytime/internal/core"
	"anytime/internal/reqtrace"
	"anytime/internal/snapcache"
)

// Warm starts. The serving tier keeps a content-addressed cache of
// delivered snapshots (internal/snapcache); a request whose input digest
// hits the cache seeds its pooled automaton with the cached approximation
// before Start, so the deadline budget is spent purely on refinement. The
// helpers here are the pool-integrated glue: SeedFromCache between
// Pool.Get and Run, Admit after the response is delivered — both nil-safe
// so a daemon with caching disabled pays only a pointer check. Each lookup
// and each seed is reported once, as a cache.hit / cache.miss / cache.seed
// event into the request's trace and the sink of the pool the entry was
// checked out of.

// SeedFromCache looks up key and, on a hit, seeds the entry's automaton
// with the cached value at its cached version. It returns the cache entry
// (for response headers: seed version, cached SNR) and whether the
// automaton was actually seeded. A hit that the automaton cannot apply
// (no OnSeed hook, payload mismatch) falls back to a cold start: the
// automaton is Reset to shed any partially applied seed and the request
// proceeds as a miss. A nil cache is a miss without the lookup.
func SeedFromCache[T any](ctx context.Context, e Entry[T], c *snapcache.Cache[T], key snapcache.Key) (snapcache.Entry[T], bool) {
	var zero snapcache.Entry[T]
	if c == nil {
		return zero, false
	}
	tr := reqtrace.FromContext(ctx)
	ce, ok := c.Get(key)
	if !ok {
		e.sink.Send(tr.CacheMiss(key.App, key.Digest, false))
		return zero, false
	}
	e.sink.Send(tr.CacheHit(key.App, key.Digest, uint64(ce.Version), false))
	if !Seed(ctx, e, ce.Value, ce.Version) {
		return zero, false
	}
	return ce, true
}

// Seed installs payload as the entry's starting published state at the
// given version, reporting success. The delta-start path calls it directly
// with a pix.SeedFrame built from a sibling cache entry; the plain warm
// start goes through SeedFromCache. The cache.seed event's mode follows
// from the payload: a value of the buffer's own type is a whole snapshot
// (warm), anything else a partial frame (delta). On failure the automaton
// is Reset (a partially applied seed must never start) and the caller
// should run cold.
func Seed[T any](ctx context.Context, e Entry[T], payload any, version core.Version) bool {
	tr := reqtrace.FromContext(ctx)
	if err := e.Automaton.SeedFrom(payload, version); err != nil {
		tr.Error("seed: " + err.Error())
		if rerr := e.Automaton.Reset(); rerr != nil {
			tr.Error("seed reset: " + rerr.Error())
		}
		return false
	}
	mode := "delta"
	if _, whole := payload.(T); whole {
		mode = "warm"
	}
	e.sink.Send(tr.CacheSeed(e.Out.Name(), mode, uint64(version)))
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
