package serve_test

import (
	"context"
	"math"
	"testing"
	"time"

	"anytime/internal/apps/conv2d"
	"anytime/internal/core"
	"anytime/internal/metrics"
	"anytime/internal/pix"
	"anytime/internal/serve"
	"anytime/internal/snapcache"
)

// Warm-start cost.
//
// BenchmarkWarmStartSetup measures what a cache hit adds to the pooled
// request path: checkout alone versus checkout plus SeedFromCache — the
// lookup, the clone into the working image, the seeded first snapshot, and
// the buffer seed. The CI budget gate (TestWarmStartSetupBudget) holds that
// full warm-start setup under the cost of a pooled end-to-end request it
// times in the same process: seeding must stay a setup-scale cost, never a
// request-scale one.

// seedBenchPool builds a 1-slot conv2d pool plus a cache holding a real
// mid-run approximation for its input, admitted the same way the daemon
// admits delivered snapshots.
func seedBenchPool(tb testing.TB) (*serve.Pool[*pix.Image], *snapcache.Cache[*pix.Image], snapcache.Key) {
	tb.Helper()
	in, err := pix.SyntheticGray(256, 256, 1)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := conv2d.Config{Workers: 2}
	build := func() (serve.Entry[*pix.Image], error) {
		run, err := conv2d.New(in, cfg)
		if err != nil {
			return serve.Entry[*pix.Image]{}, err
		}
		return serve.Entry[*pix.Image]{Automaton: run.Automaton, Out: run.Out}, nil
	}
	pool, err := serve.NewPool("bench-seed", 1, build, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := pool.Warm(1); err != nil {
		tb.Fatal(err)
	}
	cache, err := snapcache.New(snapcache.Config[*pix.Image]{
		SizeOf: func(im *pix.Image) int { return len(im.Pix) * 4 },
	})
	if err != nil {
		tb.Fatal(err)
	}
	key := snapcache.Key{App: "conv2d", Digest: "bench-input", Epoch: 1}

	ctx := context.Background()
	e, err := pool.Get(ctx)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := serve.RunUntil(ctx, e, func(s core.Snapshot[*pix.Image]) bool {
		return s.Version >= 3
	}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	s := res.Snapshot
	if !cache.Put(key, snapcache.Entry[*pix.Image]{Value: s.Value, Version: s.Version, SNRdB: 20}) {
		tb.Fatal("admission refused")
	}
	if err := pool.Put(e); err != nil {
		tb.Fatal(err)
	}
	return pool, cache, key
}

func BenchmarkWarmStartSetup(b *testing.B) {
	pool, cache, key := seedBenchPool(b)
	ctx := context.Background()

	b.Run("checkout", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e, err := pool.Get(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if err := pool.Put(e); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("checkout+seed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e, err := pool.Get(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := serve.SeedFromCache(ctx, e, cache, key); !ok {
				b.Fatal("expected a cache hit")
			}
			if err := pool.Put(e); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestWarmStartSetupBudget is the CI gate: the full warm-start setup
// (checkout + hit + seed) must cost less than one pooled end-to-end
// request (checkout + run to precise + check-in) on the same pool, both
// timed here as best-of-N so the bound travels with the host instead of
// with a stored number.
func TestWarmStartSetupBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement; skipped under -short")
	}
	pool, cache, key := seedBenchPool(t)
	ctx := context.Background()
	bestOf := func(reps int, op func(serve.Entry[*pix.Image])) time.Duration {
		t.Helper()
		best := time.Duration(1 << 62)
		for i := 0; i < reps; i++ {
			start := time.Now()
			e, err := pool.Get(ctx)
			if err != nil {
				t.Fatal(err)
			}
			op(e)
			if err := pool.Put(e); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	budget := bestOf(5, func(e serve.Entry[*pix.Image]) {
		if _, err := serve.Run(ctx, e, 0, nil); err != nil {
			t.Fatal(err)
		}
	})
	setup := bestOf(25, func(e serve.Entry[*pix.Image]) {
		if _, ok := serve.SeedFromCache(ctx, e, cache, key); !ok {
			t.Fatal("expected a cache hit")
		}
	})
	t.Logf("warm-start setup %v, pooled request %v", setup, budget)
	if setup >= budget {
		t.Fatalf("warm-start setup %v is not under the pooled request's %v", setup, budget)
	}
}

// TestWarmStartBeatsColdAtVersionBudget is the record of why anytimed runs
// every request cold. A seeded image stage computes every round from the
// first and never hold-fills, so a run seeded with a cold run's version s
// and cut after k more publishes shows the seed wherever it has not
// recomputed. Over ten 256² inputs at one worker, publishing every round,
// for each seed version s:
//
//   - at k = s/2 the warm start beats the cold run cut at k: it still
//     shows s rounds of refinement;
//   - at k = s the two agree within 0.01 dB: both are the cold run's
//     version s, so a warm start at the same deadline is a cold start.
func TestWarmStartBeatsColdAtVersionBudget(t *testing.T) {
	const inputs = 10
	cfg := conv2d.Config{Workers: 1, Publish: core.PublishEveryRound}
	// versions runs run to its final and returns every version it published.
	versions := func(run *conv2d.Run) map[core.Version]*pix.Image {
		t.Helper()
		got := map[core.Version]*pix.Image{}
		run.Out.OnPublish(func(s core.Snapshot[*pix.Image]) { got[s.Version] = s.Value })
		if err := run.Automaton.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := run.Automaton.Wait(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	for seed := uint64(1); seed <= inputs; seed++ {
		in, err := pix.SyntheticGray(256, 256, seed)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := conv2d.Precise(in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		snr := func(im *pix.Image) float64 {
			t.Helper()
			db, err := metrics.SNR(ref.Pix, im.Pix)
			if err != nil {
				t.Fatal(err)
			}
			return db
		}
		coldRun, err := conv2d.New(in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cold := versions(coldRun)
		for _, s := range []core.Version{1, 2, 3, 4, 8} {
			warmRun, err := conv2d.New(in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := warmRun.Automaton.SeedFrom(cold[s], s); err != nil {
				t.Fatal(err)
			}
			warm := versions(warmRun)
			if k := s / 2; k > 0 {
				if w, c := snr(warm[s+k]), snr(cold[k]); w <= c {
					t.Errorf("input %d, seed %d, k %d: warm %.2f dB does not beat cold %.2f dB", seed, s, k, w, c)
				}
			}
			if w, c := snr(warm[2*s]), snr(cold[s]); math.Abs(w-c) > 0.01 {
				t.Errorf("input %d, seed %d, k %d: warm %.2f dB and cold %.2f dB differ by more than 0.01 dB", seed, s, s, w, c)
			}
		}
	}
}
