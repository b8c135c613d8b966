package conform

import (
	"context"
	"sync"
	"testing"

	"anytime/internal/apps/conv2d"
	"anytime/internal/apps/debayer"
	"anytime/internal/apps/histeq"
	"anytime/internal/apps/kmeans"
	"anytime/internal/core"
	"anytime/internal/pix"
)

// The seeded-cache sweep: warm-starting an automaton from a cached
// approximation (core.Automaton.SeedFrom, serve.SeedFromCache) must
// preserve the §III guarantees relative to a cold run — publishes stay
// strictly monotone from the seed version, every published snapshot stays
// decodable, and the forced-precise final output is bit-identical to the
// cold baseline. Runs in the nightly `-run Conform` cron and under -race
// in the PR race pass.

// seededCase adapts one warm-startable app for the sweep.
type seededCase struct {
	name   string
	c      int // output channels
	build  func(workers int) (*core.Automaton, *core.Buffer[*pix.Image], error)
	golden func() (*pix.Image, error)
}

func seededCases(t *testing.T) []seededCase {
	t.Helper()
	gray, rgb, mosaic, err := sharedInputs()
	if err != nil {
		t.Fatal(err)
	}
	return []seededCase{
		{
			name: "conv2d", c: 1,
			build: func(w int) (*core.Automaton, *core.Buffer[*pix.Image], error) {
				run, err := conv2d.New(gray, conv2d.Config{Workers: w, Granularity: 64})
				if err != nil {
					return nil, nil, err
				}
				return run.Automaton, run.Out, nil
			},
			golden: func() (*pix.Image, error) { return conv2d.Precise(gray, conv2d.Config{}) },
		},
		{
			name: "debayer", c: 3,
			build: func(w int) (*core.Automaton, *core.Buffer[*pix.Image], error) {
				run, err := debayer.New(mosaic, debayer.Config{Workers: w, Granularity: 64})
				if err != nil {
					return nil, nil, err
				}
				return run.Automaton, run.Out, nil
			},
			golden: func() (*pix.Image, error) { return debayer.Precise(mosaic, debayer.Config{}) },
		},
		{
			name: "histeq", c: 1,
			build: func(w int) (*core.Automaton, *core.Buffer[*pix.Image], error) {
				run, err := histeq.New(gray, histeq.Config{Workers: w})
				if err != nil {
					return nil, nil, err
				}
				return run.Automaton, run.Out, nil
			},
			golden: func() (*pix.Image, error) { return histeq.Precise(gray, histeq.Config{}) },
		},
		{
			name: "kmeans", c: 3,
			build: func(w int) (*core.Automaton, *core.Buffer[*pix.Image], error) {
				run, err := kmeans.New(rgb, kmeans.Config{Workers: w})
				if err != nil {
					return nil, nil, err
				}
				return run.Automaton, run.Out, nil
			},
			golden: func() (*pix.Image, error) { return kmeans.Precise(rgb, kmeans.Config{}) },
		},
	}
}

// runSeeded drives one warm-vs-cold cycle for an app: interrupt a cold run
// a few publishes in (producing the "cached" approximation a real serving
// tier would admit), reset, seed the same instance from it, run the seeded
// instance to its precise output, and check every probe invariant plus
// final equivalence against the sequential golden.
func runSeeded(t *testing.T, tc seededCase, workers int) {
	t.Helper()
	a, out, err := tc.build(workers)
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{Col: &Collector{}}
	sink := AttachProbe(env, out, sumImage, validImage(conformSize, conformSize, tc.c, 0, 255))

	// Cold phase: stop after a couple of publishes to capture a genuine
	// mid-run approximation. Stop runs off the publishing goroutine (it
	// waits for the stages to exit).
	stopCh := make(chan struct{})
	var once sync.Once
	env.OnPublish = func() {
		if sink.Publishes() >= 2 {
			once.Do(func() { close(stopCh) })
		}
	}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		<-stopCh
		a.Stop()
	}()
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil && err != core.ErrStopped {
		t.Fatalf("cold phase: %v", err)
	}
	once.Do(func() { close(stopCh) }) // finished before the trigger
	<-stopped
	sink.VerifyQuiescent()
	if v := env.Col.Violations(); len(v) != 0 {
		t.Fatalf("cold phase violations: %v", v)
	}
	cached, ok := out.Peek()
	if !ok {
		t.Fatal("cold phase published nothing")
	}

	// Warm phase: reset, seed, re-prove the invariants from the seed.
	env.Col = &Collector{}
	env.OnPublish = nil
	if err := a.Reset(); err != nil {
		t.Fatal(err)
	}
	env.reset()
	if err := a.SeedFrom(cached.Value, cached.Version); err != nil {
		t.Fatalf("SeedFrom: %v", err)
	}
	sink.seedVersion(cached.Version)
	seeded, ok := out.Peek()
	if !ok || seeded.Version != cached.Version || seeded.Final {
		t.Fatalf("seeded buffer state = %+v, ok=%v", seeded, ok)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatalf("seeded run: %v", err)
	}
	sink.VerifyQuiescent()
	if v := env.Col.Violations(); len(v) != 0 {
		t.Fatalf("seeded run violations: %v", v)
	}
	final, _, isFinal, ok := sink.Last()
	if !ok || !isFinal {
		t.Fatalf("seeded run did not reach a final output (version %d, final %v)", final, isFinal)
	}
	if final <= cached.Version {
		t.Fatalf("final version %d not past seed %d", final, cached.Version)
	}
	golden, err := tc.golden()
	if err != nil {
		t.Fatal(err)
	}
	fs, _ := out.Peek()
	if !fs.Value.Equal(golden) {
		t.Fatal("seeded precise final differs from the cold golden output")
	}
}

func TestConformSeededWarmStart(t *testing.T) {
	for _, tc := range seededCases(t) {
		for _, workers := range []int{1, 3} {
			tc, workers := tc, workers
			t.Run(tc.name, func(t *testing.T) { runSeeded(t, tc, workers) })
		}
	}
}

// TestConformSeededCorruptCacheCaught is the planted-bug self-test for the
// cache path: a corrupted cached snapshot (values no consumer could
// decode) seeded into a run must be convicted by the decodability
// validator at the first publish — the probes are the safety net between
// a bad cache entry and a client. The final output must still be valid:
// every pixel is recomputed from the input.
func TestConformSeededCorruptCacheCaught(t *testing.T) {
	gray, _, _, err := sharedInputs()
	if err != nil {
		t.Fatal(err)
	}
	run, err := conv2d.New(gray, conv2d.Config{Workers: 1, Granularity: 64})
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{Col: &Collector{}}
	sink := AttachProbe(env, run.Out, sumImage, validImage(conformSize, conformSize, 1, 0, 255))

	corrupt := pix.MustNew(conformSize, conformSize, 1)
	corrupt.Fill(999) // undecodable: outside the 8-bit pixel range
	if err := run.Automaton.SeedFrom(corrupt, 4); err != nil {
		t.Fatalf("SeedFrom: %v", err)
	}
	sink.seedVersion(4)
	if err := run.Automaton.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := run.Automaton.Wait(); err != nil {
		t.Fatal(err)
	}
	sink.VerifyQuiescent()
	convicted := false
	for _, v := range env.Col.Violations() {
		switch v.Invariant {
		case "invalid-snapshot":
			convicted = true
		case "version-monotone", "single-writer", "publish-after-final", "snapshot-mutated":
			t.Errorf("corrupt seed tripped an unrelated invariant: %v", v)
		}
	}
	if !convicted {
		t.Fatal("corrupted cached snapshot was not convicted by the decodability validator")
	}
	// The precise final recomputes every pixel from the input: valid again.
	fs, _ := run.Out.Peek()
	if !fs.Final {
		t.Fatal("run did not finish")
	}
	if verr := validImage(conformSize, conformSize, 1, 0, 255)(fs.Value); verr != nil {
		t.Fatalf("final output still corrupt: %v", verr)
	}
}
