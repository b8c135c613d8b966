package conform

import (
	"context"
	"testing"

	"anytime/internal/core"
	"anytime/internal/pix"
	"anytime/internal/reqtrace"
)

// TestTracerRidesChaosSweeps proves the observability contract from the
// harness's side: a request tracer rides along inside seeded chaos runs —
// interrupts, pauses, injected faults — without perturbing a single
// invariant, while still recording every publish. The tracer is wired
// exactly as anytimed's pool factory wires it: a permanent reqtrace.Slot
// fed by an output-buffer publish observer and the automaton's OnReset,
// with a fresh trace bound per run.
func TestTracerRidesChaosSweeps(t *testing.T) {
	t.Parallel()
	app := &conv2dApp{}
	slot := &reqtrace.Slot{}
	build := func(s Schedule) (*Instance, *Env) {
		t.Helper()
		env := &Env{Col: &Collector{}}
		inst, out, err := app.build(env, s)
		if err != nil {
			t.Fatal(err)
		}
		out.OnPublish(func(sn core.Snapshot[*pix.Image]) {
			slot.Publish(out.Name(), uint64(sn.Version), len(sn.Value.Pix), sn.Final)
		})
		inst.Automaton.OnReset(slot.OnReset)
		return inst, env
	}
	seeds := uint64(schedulesPerApp(t) / 4)
	if seeds < 4 {
		seeds = 4
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		s := DeriveSchedule(app, seed)
		inst, env := build(s)
		_, tr := reqtrace.New(context.Background(), app.Name())
		slot.Bind(tr)
		res := runCycle(app, inst, env, s)
		slot.Unbind()
		tr.Finish(0)

		if res.Failed() {
			t.Fatalf("tracer perturbed seed %d:\n%s\nschedule: %s", seed, res.FailureSummary(), s)
		}
		// The bound trace saw exactly what the sink probe saw.
		publishes := 0
		for _, e := range tr.Events() {
			if e.Kind == reqtrace.KindPublish {
				publishes++
			}
		}
		if want := inst.Sink.Publishes(); int64(publishes) != want {
			t.Fatalf("seed %d: trace recorded %d publishes, sink probe counted %d", seed, publishes, want)
		}
	}
	// An unbound slot (no request in flight) must also be harmless.
	s := DeriveSchedule(app, 1)
	inst, env := build(s)
	if res := runCycle(app, inst, env, s); res.Failed() {
		t.Fatalf("unbound tracer perturbed the run:\n%s", res.FailureSummary())
	}
}
