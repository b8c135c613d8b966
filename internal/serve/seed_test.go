package serve

import (
	"context"
	"testing"

	"anytime/internal/core"
	"anytime/internal/snapcache"
)

// seedEntry builds a one-stage entry whose automaton publishes rounds
// values and supports seeding its output buffer.
func seedEntry(t *testing.T, rounds int) Entry[int] {
	t.Helper()
	out := core.NewBuffer[int]("out", nil)
	a := core.New()
	if err := a.AddStage("count", func(c *core.Context) error {
		for i := 1; i <= rounds; i++ {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			if _, err := out.Publish(i, i == rounds); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	a.OnReset(out.Reset)
	a.OnSeed(func(seed any, v core.Version) error {
		val, ok := seed.(int)
		if !ok {
			return core.ErrNoSeedSupport
		}
		return out.Seed(val, v)
	})
	return Entry[int]{Automaton: a, Out: out}
}

func intCache(t *testing.T) *snapcache.Cache[int] {
	t.Helper()
	c, err := snapcache.New(snapcache.Config[int]{SizeOf: func(int) int { return 8 }})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSeedFromCacheMissThenAdmitThenHit(t *testing.T) {
	c := intCache(t)
	key := snapcache.Key{App: "count", Digest: "d1", Epoch: 1}
	ctx := context.Background()

	// Cold request: miss, run, admit the delivered snapshot.
	e := seedEntry(t, 3)
	if _, ok := SeedFromCache(ctx, e, c, key); ok {
		t.Fatal("hit on empty cache")
	}
	res, err := Run(ctx, e, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !Admit(c, key, res, 12.5) {
		t.Fatal("delivered snapshot not admitted")
	}

	// Warm request: hit, seed, publishes continue past the seed.
	e2 := seedEntry(t, 2)
	ce, ok := SeedFromCache(ctx, e2, c, key)
	if !ok {
		t.Fatal("warm request missed")
	}
	if ce.Version != 3 || ce.SNRdB != 12.5 {
		t.Fatalf("cache entry = %+v", ce)
	}
	s, ok := e2.Out.Peek()
	if !ok || s.Version != 3 || s.Value != 3 {
		t.Fatalf("seeded buffer = %+v, %v", s, ok)
	}
	res2, err := Run(ctx, e2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Snapshot.Version != 5 || !res2.Snapshot.Final {
		t.Fatalf("seeded run final = %+v, want version 5 (seed 3 + 2 publishes)", res2.Snapshot)
	}
}

func TestSeedFromCacheFallsBackWithoutSeedSupport(t *testing.T) {
	c := intCache(t)
	key := snapcache.Key{App: "count", Digest: "d1", Epoch: 1}
	c.Put(key, snapcache.Entry[int]{Value: 7, Version: 4})

	// An entry without an OnSeed hook must fall back to a cold start and
	// still be runnable afterwards.
	out := core.NewBuffer[int]("out", nil)
	a := core.New()
	if err := a.AddStage("one", func(cx *core.Context) error {
		_, err := out.Publish(1, true)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	a.OnReset(out.Reset)
	e := Entry[int]{Automaton: a, Out: out}
	if _, ok := SeedFromCache(context.Background(), e, c, key); ok {
		t.Fatal("seeded an automaton with no seed hook")
	}
	res, err := Run(context.Background(), e, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Version != 1 {
		t.Fatalf("cold fallback delivered %+v", res.Snapshot)
	}
}

func TestSeedFromCacheNilCache(t *testing.T) {
	e := seedEntry(t, 1)
	if _, ok := SeedFromCache(context.Background(), e, nil, snapcache.Key{}); ok {
		t.Fatal("nil cache produced a hit")
	}
	if Admit[int](nil, snapcache.Key{}, Result[int]{}, 0) {
		t.Fatal("nil cache admitted")
	}
}

func TestAdmitSkipsEmptyResult(t *testing.T) {
	c := intCache(t)
	if Admit(c, snapcache.Key{App: "a"}, Result[int]{}, 0) {
		t.Fatal("empty result admitted")
	}
	if c.Bytes() != 0 {
		t.Fatal("cache grew")
	}
}

func TestPooledSeedAcrossCheckouts(t *testing.T) {
	// A pooled entry: cold request admits, the next checkout of the same
	// (Reset) entry seeds from the cache.
	c := intCache(t)
	key := snapcache.Key{App: "count", Digest: "d", Epoch: 1}
	entry := seedEntry(t, 2)
	pool, err := NewPool("count", 1, func() (Entry[int], error) { return entry, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	e, err := pool.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := SeedFromCache(ctx, e, c, key); ok {
		t.Fatal("first checkout hit")
	}
	res, err := Run(ctx, e, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	Admit(c, key, res, 1)
	if err := pool.Put(e); err != nil {
		t.Fatal(err)
	}

	e, err = pool.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if idleLen(pool) != 0 {
		t.Fatal("pool did not hand back the idle entry")
	}
	if _, ok := SeedFromCache(ctx, e, c, key); !ok {
		t.Fatal("second checkout missed")
	}
	res, err = Run(ctx, e, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Version != 4 {
		t.Fatalf("pooled warm final = %+v, want version 4", res.Snapshot)
	}
	if err := pool.Put(e); err != nil {
		t.Fatal(err)
	}
}
