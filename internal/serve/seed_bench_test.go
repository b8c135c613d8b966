package serve_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"anytime/internal/apps/conv2d"
	"anytime/internal/core"
	"anytime/internal/metrics"
	"anytime/internal/pix"
	"anytime/internal/serve"
	"anytime/internal/snapcache"
)

// Warm-start cost and win, pinned in BENCH_snapcache.json.
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
	key := snapcache.Key{App: "conv2d", Digest: snapcache.DigestImage(in), Epoch: 1}

	ctx := context.Background()
	e, err := pool.Get(ctx)
	if err != nil {
		tb.Fatal(err)
	}
	stopped := core.StopWhen(e.Automaton, e.Out, func(s core.Snapshot[*pix.Image]) bool {
		return s.Version >= 3
	})
	if err := e.Automaton.Start(ctx); err != nil {
		tb.Fatal(err)
	}
	s, ok := <-stopped
	if !ok {
		tb.Fatal("automaton produced no snapshot to admit")
	}
	if err := e.Automaton.Wait(); err != nil && err != core.ErrStopped {
		tb.Fatal(err)
	}
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

// TestWarmStartBeatsColdAtVersionBudget pins the warm-start win
// deterministically: with one worker and publish-every-round, a run
// seeded at version K and given M more publishes must beat a cold run
// given the same M publishes — the seeded run's untouched tiles carry K
// rounds of prior refinement where the cold run still hold-fills.
//
// Publish counts are controlled exactly: an observer blocks the target
// publish on the stage goroutine while the run context is cancelled, and
// the diffusive driver's post-publish interrupt poll guarantees no
// further version lands after the release.
func TestWarmStartBeatsColdAtVersionBudget(t *testing.T) {
	const seedV, extra = 3, 2
	in, err := pix.SyntheticGray(128, 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := conv2d.Config{Workers: 1, Granularity: 2048, Publish: core.PublishEveryRound}
	ref, err := conv2d.Precise(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runTo := func(run *conv2d.Run, target core.Version) core.Snapshot[*pix.Image] {
		t.Helper()
		reached := make(chan struct{})
		release := make(chan struct{})
		var once sync.Once
		run.Out.OnPublish(func(s core.Snapshot[*pix.Image]) {
			if s.Version >= target {
				once.Do(func() { close(reached) })
				<-release
			}
		})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if err := run.Automaton.Start(ctx); err != nil {
			t.Fatal(err)
		}
		select {
		case <-reached:
		case <-run.Automaton.Done():
			t.Fatalf("run finished before reaching version %d", target)
		}
		cancel()
		close(release)
		if err := run.Automaton.Wait(); err != nil && err != core.ErrStopped {
			t.Fatal(err)
		}
		s, ok := run.Out.Latest()
		if !ok || s.Version != target {
			t.Fatalf("stopped at version %d (ok=%v), want exactly %d", s.Version, ok, target)
		}
		return s
	}
	snr := func(s core.Snapshot[*pix.Image]) float64 {
		t.Helper()
		db, err := metrics.SNR(ref.Pix, s.Value.Pix)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}

	// The "cached" approximation: a prior request that got seedV publishes.
	prior, err := conv2d.New(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cached := runTo(prior, seedV)
	if cached.Final {
		t.Fatalf("seed snapshot already final at version %d", cached.Version)
	}

	// Cold: extra publishes from scratch.
	coldRun, err := conv2d.New(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold := runTo(coldRun, extra)

	// Warm: seeded at cached.Version, then the same extra publishes.
	warmRun, err := conv2d.New(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := warmRun.Automaton.SeedFrom(cached.Value, cached.Version); err != nil {
		t.Fatal(err)
	}
	warm := runTo(warmRun, cached.Version+extra)

	coldDB, warmDB := snr(cold), snr(warm)
	t.Logf("cold %d publishes: %.2f dB; warm seed@%d + %d publishes: %.2f dB",
		extra, coldDB, cached.Version, extra, warmDB)
	if warmDB <= coldDB {
		t.Fatalf("warm start (%.2f dB) does not beat cold (%.2f dB) at the same publish budget", warmDB, coldDB)
	}
}
