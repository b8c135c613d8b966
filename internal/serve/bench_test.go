package serve_test

import (
	"context"
	"testing"

	"anytime/internal/apps/conv2d"
	"anytime/internal/pix"
	"anytime/internal/serve"
)

// BenchmarkPooledVsFresh measures per-request setup cost with and without
// the warm pool, over the same conv2d configuration anytimed serves.
// "setup" is everything a request pays before its stage goroutines can do
// useful work: construction (fresh) versus checkout+check-in (pooled,
// where the check-in pays the Reset rewind). The run itself is excluded —
// it is identical in both regimes. The pooled side's successors are
// serve.pool_cycle_us and core.reset_us in cmd/anytimebench/README.md
// ("Numbers observed"); the fresh side has none there, so
// docs/OPERATIONS.md quotes this benchmark for it, with host and commit.

func benchInput(b *testing.B) *pix.Image {
	b.Helper()
	in, err := pix.SyntheticGray(256, 256, 1)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

func BenchmarkPooledVsFresh(b *testing.B) {
	in := benchInput(b)
	cfg := conv2d.Config{Workers: 2}
	build := func() (serve.Entry[*pix.Image], error) {
		run, err := conv2d.New(in, cfg)
		if err != nil {
			return serve.Entry[*pix.Image]{}, err
		}
		return serve.Entry[*pix.Image]{Automaton: run.Automaton, Out: run.Out}, nil
	}

	b.Run("fresh/setup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := build(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("pooled/setup", func(b *testing.B) {
		pool, err := serve.NewPool("bench", 1, build, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := pool.Warm(1); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := pool.Get(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if err := pool.Put(e); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Full request cycles (setup + precise run) put the setup saving in
	// context: what fraction of a request the pool actually removes.
	b.Run("fresh/request", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e, err := build()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := serve.Run(context.Background(), e, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("pooled/request", func(b *testing.B) {
		pool, err := serve.NewPool("bench", 1, build, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := pool.Warm(1); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := pool.Get(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := serve.Run(context.Background(), e, 0, nil); err != nil {
				b.Fatal(err)
			}
			if err := pool.Put(e); err != nil {
				b.Fatal(err)
			}
		}
	})
}
