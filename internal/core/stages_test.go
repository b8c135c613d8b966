package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"

	"anytime/internal/testgate"
)

// runSingle runs one stage function inside a fresh automaton and returns
// Wait's result.
func runSingle(t *testing.T, name string, fn func(*Context) error) error {
	t.Helper()
	a := New()
	if err := a.AddStage(name, fn); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return a.Wait()
}

func TestIterativePublishesAllPassesInOrder(t *testing.T) {
	out := NewBuffer[int]("out", nil)
	var seen []Snapshot[int]
	out.OnPublish(func(s Snapshot[int]) { seen = append(seen, s) })
	passes := []func() (int, error){
		func() (int, error) { return 10, nil },
		func() (int, error) { return 20, nil },
		func() (int, error) { return 30, nil },
	}
	if err := runSingle(t, "iter", func(c *Context) error {
		return Iterative(c, out, passes)
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("published %d snapshots", len(seen))
	}
	for i, s := range seen {
		if s.Value != (i+1)*10 {
			t.Errorf("snapshot %d value %d", i, s.Value)
		}
		if s.Final != (i == 2) {
			t.Errorf("snapshot %d final=%v", i, s.Final)
		}
	}
}

func TestIterativeEmptyPasses(t *testing.T) {
	out := NewBuffer[int]("out", nil)
	err := runSingle(t, "iter", func(c *Context) error {
		return Iterative(c, out, nil)
	})
	if err == nil {
		t.Error("empty pass list accepted")
	}
}

func TestIterativePassErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	out := NewBuffer[int]("out", nil)
	err := runSingle(t, "iter", func(c *Context) error {
		return Iterative(c, out, []func() (int, error){
			func() (int, error) { return 0, boom },
		})
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestDiffusiveComputesExactSum(t *testing.T) {
	// Diffusive sum of 0..n-1 with per-round snapshots.
	const n = 1000
	var acc atomic.Int64
	out := NewBuffer[int64]("sum", nil)
	var versions int
	out.OnPublish(func(s Snapshot[int64]) { versions++ })
	err := runSingle(t, "sum", func(c *Context) error {
		return Diffusive(c, out, n,
			func(pos int) error { acc.Add(int64(pos)); return nil },
			func(processed int) (int64, error) { return acc.Load(), nil },
			RoundConfig{Granularity: 100})
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := out.Latest()
	if !ok || !snap.Final {
		t.Fatal("no final snapshot")
	}
	if snap.Value != n*(n-1)/2 {
		t.Errorf("sum = %d", snap.Value)
	}
	if versions != 10 {
		t.Errorf("published %d versions, want 10", versions)
	}
}

func TestDiffusiveZeroTotalPublishesFinalImmediately(t *testing.T) {
	out := NewBuffer[int]("out", nil)
	err := runSingle(t, "empty", func(c *Context) error {
		return Diffusive(c, out, 0,
			func(pos int) error { t.Error("apply called"); return nil },
			func(processed int) (int, error) { return -1, nil },
			RoundConfig{})
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := out.Latest()
	if !ok || !snap.Final || snap.Value != -1 {
		t.Errorf("snapshot = %+v ok=%v", snap, ok)
	}
}

func TestDiffusiveNegativeTotalRejected(t *testing.T) {
	out := NewBuffer[int]("out", nil)
	err := runSingle(t, "neg", func(c *Context) error {
		return Diffusive(c, out, -1, func(int) error { return nil },
			func(int) (int, error) { return 0, nil }, RoundConfig{})
	})
	if err == nil {
		t.Error("negative total accepted")
	}
}

func TestDiffusiveNegativeConfigRejected(t *testing.T) {
	out := NewBuffer[int]("out", nil)
	err := runSingle(t, "cfg", func(c *Context) error {
		return Diffusive(c, out, 10, func(int) error { return nil },
			func(int) (int, error) { return 0, nil }, RoundConfig{Workers: -1})
	})
	if err == nil {
		t.Error("negative workers accepted")
	}
}

// TestDiffusiveEveryPositionExactlyOnce is the bijectivity guarantee at the
// execution layer, across worker counts and granularities.
func TestDiffusiveEveryPositionExactlyOnce(t *testing.T) {
	f := func(rawTotal uint16, rawGran, rawWorkers uint8) bool {
		total := int(rawTotal)%2000 + 1
		cfg := RoundConfig{
			Granularity: int(rawGran) % 130,
			Workers:     int(rawWorkers) % 9,
		}
		counts := make([]atomic.Int32, total)
		out := NewBuffer[int]("out", nil)
		a := New()
		if err := a.AddStage("d", func(c *Context) error {
			return Diffusive(c, out, total,
				func(pos int) error { counts[pos].Add(1); return nil },
				func(processed int) (int, error) { return processed, nil },
				cfg)
		}); err != nil {
			return false
		}
		if err := a.Start(context.Background()); err != nil {
			return false
		}
		if err := a.Wait(); err != nil {
			return false
		}
		for i := range counts {
			if counts[i].Load() != 1 {
				return false
			}
		}
		snap, ok := out.Latest()
		return ok && snap.Final && snap.Value == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDiffusiveSnapshotQuiescence: snapshot must never run concurrently
// with apply (the publisher needs a quiescent working buffer to clone).
func TestDiffusiveSnapshotQuiescence(t *testing.T) {
	testgate.Goroutines(t)
	var inApply atomic.Int32
	out := NewBuffer[int]("out", nil)
	err := runSingle(t, "q", func(c *Context) error {
		return Diffusive(c, out, 500,
			func(pos int) error {
				inApply.Add(1)
				defer inApply.Add(-1)
				return nil
			},
			func(processed int) (int, error) {
				if inApply.Load() != 0 {
					t.Error("snapshot ran concurrently with apply")
				}
				return processed, nil
			},
			RoundConfig{Granularity: 25, Workers: 4})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDiffusiveApplyErrorPropagates(t *testing.T) {
	testgate.Goroutines(t)
	boom := errors.New("boom")
	out := NewBuffer[int]("out", nil)
	for _, workers := range []int{1, 4} {
		err := runSingle(t, "err", func(c *Context) error {
			return Diffusive(c, out, 100,
				func(pos int) error {
					if pos == 57 {
						return boom
					}
					return nil
				},
				func(processed int) (int, error) { return processed, nil },
				RoundConfig{Granularity: 30, Workers: workers})
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d err = %v", workers, err)
		}
		out = NewBuffer[int]("out", nil)
	}
}

func TestDiffusiveSnapshotErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	out := NewBuffer[int]("out", nil)
	err := runSingle(t, "err", func(c *Context) error {
		return Diffusive(c, out, 10,
			func(pos int) error { return nil },
			func(processed int) (int, error) { return 0, boom },
			RoundConfig{Granularity: 5})
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

// TestAsyncConsumeSeesFinal verifies the asynchronous pipeline guarantee:
// however the consumer lags, it always processes the parent's final
// snapshot, so the precise output is always reachable (Figure 7).
func TestAsyncConsumeSeesFinal(t *testing.T) {
	parent := NewBuffer[int]("f", nil)
	child := NewBuffer[int]("g", nil)
	a := New()
	if err := a.AddStage("f", func(c *Context) error {
		for i := 1; i <= 50; i++ {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			if _, err := parent.Publish(i, i == 50); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddStage("g", func(c *Context) error {
		return AsyncConsume(c, parent, func(snap Snapshot[int]) error {
			_, err := child.Publish(snap.Value*2, snap.Final)
			return err
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	snap, ok := child.Latest()
	if !ok || !snap.Final || snap.Value != 100 {
		t.Errorf("child final = %+v ok=%v, want 100", snap, ok)
	}
}

// TestAsyncConsumeSkipsStaleVersions: a slow consumer must process the
// latest snapshot, not every intermediate one.
func TestAsyncConsumeSkipsStaleVersions(t *testing.T) {
	parent := NewBuffer[int]("f", nil)
	var consumed []Version
	a := New()
	ready := make(chan struct{})
	if err := a.AddStage("f", func(c *Context) error {
		for i := 1; i <= 100; i++ {
			if _, err := parent.Publish(i, i == 100); err != nil {
				return err
			}
		}
		close(ready)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddStage("g", func(c *Context) error {
		<-ready // let the producer finish first
		return AsyncConsume(c, parent, func(snap Snapshot[int]) error {
			consumed = append(consumed, snap.Version)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(consumed) != 1 || consumed[0] != 100 {
		t.Errorf("consumed versions %v, want just the final [100]", consumed)
	}
}

func TestAsyncConsumeFnErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	parent := NewBuffer[int]("f", nil)
	a := New()
	if err := a.AddStage("f", func(c *Context) error {
		_, err := parent.Publish(1, true)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddStage("g", func(c *Context) error {
		return AsyncConsume(c, parent, func(Snapshot[int]) error { return boom })
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); !errors.Is(err, boom) {
		t.Errorf("Wait = %v", err)
	}
}

// TestThreeStageAsyncPipelineReachesPrecise wires the paper's Figure 7
// shape (f -> g -> h) and checks the end-to-end eventual-precision
// guarantee with anytime stages at every level.
func TestThreeStageAsyncPipelineReachesPrecise(t *testing.T) {
	fBuf := NewBuffer[int]("f", nil)
	gBuf := NewBuffer[int]("g", nil)
	hBuf := NewBuffer[int]("h", nil)
	a := New()
	if err := a.AddStage("f", func(c *Context) error {
		return Iterative(c, fBuf, []func() (int, error){
			func() (int, error) { return 90, nil },  // coarse
			func() (int, error) { return 100, nil }, // precise
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddStage("g", func(c *Context) error {
		return AsyncConsume(c, fBuf, func(s Snapshot[int]) error {
			_, err := gBuf.Publish(s.Value+1, s.Final)
			return err
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddStage("h", func(c *Context) error {
		return AsyncConsume(c, gBuf, func(s Snapshot[int]) error {
			_, err := hBuf.Publish(s.Value*10, s.Final)
			return err
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	snap, ok := hBuf.Latest()
	if !ok || !snap.Final || snap.Value != 1010 {
		t.Errorf("pipeline output = %+v ok=%v, want final 1010", snap, ok)
	}
}

// TestAsyncConsumeSupportsNonAnytimeParent: correctness must hold even when
// the parent publishes only its precise output (n = 1), as the paper notes.
func TestAsyncConsumeSupportsNonAnytimeParent(t *testing.T) {
	parent := NewBuffer[int]("f", nil)
	child := NewBuffer[int]("g", nil)
	a := New()
	if err := a.AddStage("f", func(c *Context) error {
		_, err := parent.Publish(7, true)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddStage("g", func(c *Context) error {
		return AsyncConsume(c, parent, func(s Snapshot[int]) error {
			_, err := child.Publish(s.Value*3, s.Final)
			return err
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	snap, _ := child.Latest()
	if snap.Value != 21 || !snap.Final {
		t.Errorf("child = %+v", snap)
	}
}
