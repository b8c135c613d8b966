package conform

// The harness must be able to fail: each test here runs a deliberately
// broken automaton through RunOne and asserts the probes convict it of the
// right invariant. A conformance suite whose checkers cannot catch a
// planted violation proves nothing about the apps that pass it.

import (
	"reflect"
	"testing"
	"time"

	"anytime/internal/core"
)

// fakeApp adapts a hand-built automaton to the App interface so RunOne can
// drive it like any benchmark app.
type fakeApp struct {
	name   string
	stages []string
	build  func(env *Env) (*Instance, error)
}

func (f *fakeApp) Name() string                                  { return f.name }
func (f *fakeApp) Features() Features                            { return Features{} }
func (f *fakeApp) Stages() []string                              { return f.stages }
func (f *fakeApp) Build(env *Env, _ Schedule) (*Instance, error) { return f.build(env) }

func sumInt64(v int64) uint64 { return fnv1aStep(fnv1aInit, uint64(v)) }

func hasInvariant(vs []Violation, name string) bool {
	for _, v := range vs {
		if v.Invariant == name {
			return true
		}
	}
	return false
}

func requireViolation(t *testing.T, app App, invariant string) Result {
	t.Helper()
	res := RunOne(app, Schedule{Seed: 1, Workers: 1})
	if !hasInvariant(res.Violations, invariant) {
		t.Fatalf("planted %q violation not detected; got:\n%s", invariant, res.FailureSummary())
	}
	return res
}

// TestSelfSnapshotMutatorCaught plants the exact bug a publish path that
// reuses memory could introduce: a stage that keeps writing into an
// already published snapshot's backing store.
func TestSelfSnapshotMutatorCaught(t *testing.T) {
	t.Parallel()
	type box struct{ vals []int64 }
	sumBox := func(b *box) uint64 {
		h := uint64(fnv1aInit)
		for _, v := range b.vals {
			h = fnv1aStep(h, uint64(v))
		}
		return h
	}
	app := &fakeApp{name: "mutator", stages: []string{"mutate"}, build: func(env *Env) (*Instance, error) {
		buf := core.NewBuffer[*box]("mutant", nil)
		auto := core.New()
		shared := &box{vals: make([]int64, 4)}
		err := auto.AddStage("mutate", func(c *core.Context) error {
			for i := 0; i < 3; i++ {
				if err := c.Checkpoint(); err != nil {
					return err
				}
				// No clone: every publish hands out the same backing slice,
				// so writing round i+1 mutates the round-i snapshot in place.
				shared.vals[0] = int64(i + 1)
				if _, err := buf.Publish(shared, i == 2); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		sink := AttachProbe(env, buf, sumBox, nil)
		return &Instance{Automaton: auto, Probes: []*Probe{sink}, Sink: sink}, nil
	}}
	requireViolation(t, app, "snapshot-mutated")
}

// TestSelfDoubleWriterCaught plants a second publisher. The two goroutines
// hand off through a channel so there is no data race for the race
// detector to find — only the goroutine-pinning probe convicts it, and the
// conform sweeps run that probe over every app's buffers: it is the tree's
// gate for Property 2 (one writer per buffer).
func TestSelfDoubleWriterCaught(t *testing.T) {
	t.Parallel()
	app := &fakeApp{name: "doublewriter", stages: []string{"writer"}, build: func(env *Env) (*Instance, error) {
		buf := core.NewBuffer[int64]("contested", nil)
		auto := core.New()
		err := auto.AddStage("writer", func(c *core.Context) error {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			if _, err := buf.Publish(1, false); err != nil {
				return err
			}
			done := make(chan error)
			go func() {
				_, err := buf.Publish(2, true)
				done <- err
			}()
			return <-done
		})
		if err != nil {
			return nil, err
		}
		sink := AttachProbe(env, buf, sumInt64, nil)
		return &Instance{Automaton: auto, Probes: []*Probe{sink}, Sink: sink}, nil
	}}
	requireViolation(t, app, "single-writer")
}

// TestSelfInvalidSnapshotCaught plants an undecodable intermediate: the
// interrupt-validity invariant says every published snapshot must pass the
// app's decoder, not just the final one.
func TestSelfInvalidSnapshotCaught(t *testing.T) {
	t.Parallel()
	app := &fakeApp{name: "invalid", stages: []string{"emit"}, build: func(env *Env) (*Instance, error) {
		buf := core.NewBuffer[int64]("range", nil)
		auto := core.New()
		err := auto.AddStage("emit", func(c *core.Context) error {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			if _, err := buf.Publish(-5, false); err != nil {
				return err
			}
			_, err := buf.Publish(7, true)
			return err
		})
		if err != nil {
			return nil, err
		}
		sink := AttachProbe(env, buf, sumInt64, func(v int64) error {
			if v < 0 {
				return errInvalid(v)
			}
			return nil
		})
		return &Instance{Automaton: auto, Probes: []*Probe{sink}, Sink: sink}, nil
	}}
	requireViolation(t, app, "invalid-snapshot")
}

type errInvalid int64

func (e errInvalid) Error() string { return "negative value" }

// TestSelfWrongFinalCaught plants a final output that disagrees with the
// sequential golden.
func TestSelfWrongFinalCaught(t *testing.T) {
	t.Parallel()
	requireViolation(t, wrongFinalApp(), "final-mismatch")
}

func wrongFinalApp() App {
	return &fakeApp{name: "wrongfinal", stages: []string{"emit"}, build: func(env *Env) (*Instance, error) {
		buf := core.NewBuffer[int64]("answer", nil)
		auto := core.New()
		err := auto.AddStage("emit", func(c *core.Context) error {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			_, err := buf.Publish(41, true)
			return err
		})
		if err != nil {
			return nil, err
		}
		sink := AttachProbe(env, buf, sumInt64, nil)
		return &Instance{
			Automaton: auto,
			Probes:    []*Probe{sink},
			Sink:      sink,
			GoldenSum: sumInt64(42),
			HasGolden: true,
		}, nil
	}}
}

// TestSelfMissingFinalCaught plants a run that finishes without ever
// publishing a Final snapshot — the paper's Property 1 (the automaton
// eventually commits its precise output) would be silently broken.
func TestSelfMissingFinalCaught(t *testing.T) {
	t.Parallel()
	app := &fakeApp{name: "nofinal", stages: []string{"emit"}, build: func(env *Env) (*Instance, error) {
		buf := core.NewBuffer[int64]("forgetful", nil)
		auto := core.New()
		err := auto.AddStage("emit", func(c *core.Context) error {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			_, err := buf.Publish(1, false)
			return err
		})
		if err != nil {
			return nil, err
		}
		sink := AttachProbe(env, buf, sumInt64, nil)
		return &Instance{Automaton: auto, Probes: []*Probe{sink}, Sink: sink}, nil
	}}
	requireViolation(t, app, "no-final")
}

// TestSelfCleanRunPasses is the negative control: a correct pipeline under
// a chaotic schedule must produce zero violations.
func TestSelfCleanRunPasses(t *testing.T) {
	t.Parallel()
	s := Schedule{
		Seed:    3,
		Workers: 2,
		Pauses:  []ChaosPoint{{Stage: "square", At: 5, Dur: 100 * time.Microsecond}},
		Delays:  []ChaosPoint{{Stage: "sum", At: 3, Dur: 50 * time.Microsecond}},
	}
	res := RunOne(&syncPipeApp{}, s)
	if res.Failed() {
		t.Fatalf("clean pipeline reported violations:\n%s", res.FailureSummary())
	}
	if !res.Completed {
		t.Fatal("clean pipeline did not complete")
	}
}

// TestShrinkMinimizes feeds the shrinker a maximally noisy schedule whose
// failure (wrong final output) is independent of every knob, and expects
// it to strip the schedule down to the defaults.
func TestShrinkMinimizes(t *testing.T) {
	t.Parallel()
	app := wrongFinalApp()
	noisy := Schedule{
		Seed:        5,
		Workers:     4,
		Policy:      core.PublishOnDemand,
		Granularity: 7,
		Pauses:      []ChaosPoint{{Stage: "emit", At: 1, Dur: time.Millisecond}},
		Delays:      []ChaosPoint{{Stage: "emit", At: 1, Dur: time.Millisecond}},
		EdgeDelay:   time.Millisecond,
	}
	if !RunOne(app, noisy).Failed() {
		t.Fatal("noisy schedule unexpectedly passed")
	}
	shrunk := Shrink(app, noisy)
	want := Schedule{Seed: 5, Workers: 1, Policy: core.PublishEveryRound}
	if !reflect.DeepEqual(shrunk, want) {
		t.Fatalf("shrunk schedule not minimal:\ngot  %s\nwant %s", shrunk, want)
	}
	if !RunOne(app, shrunk).Failed() {
		t.Fatal("shrunk schedule no longer fails")
	}
}
