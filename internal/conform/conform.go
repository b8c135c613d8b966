package conform

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"time"

	"anytime/internal/core"
)

// runWatchdog bounds one conformance run. The workloads finish in
// milliseconds; a run that is still going after this long has deadlocked,
// which is itself an invariant violation ("interruptible at any moment"
// implies "never wedged").
const runWatchdog = 30 * time.Second

// Result is the outcome of one schedule run.
type Result struct {
	App        string
	Schedule   Schedule
	Violations []Violation
	// Completed reports whether the automaton reached its precise output
	// (Wait returned nil); interrupted runs report false.
	Completed bool
	// Publishes is the total publish count across all probed buffers.
	Publishes int64
	// Cycle is the 1-based reuse cycle this result came from (RunReuse);
	// single-run results (RunOne) report 0.
	Cycle int
}

// Failed reports whether the run violated any invariant.
func (r Result) Failed() bool { return len(r.Violations) > 0 }

// FailureSummary formats the violations, one per line.
func (r Result) FailureSummary() string {
	lines := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		lines[i] = "  " + v.String()
	}
	return strings.Join(lines, "\n")
}

// RunOne executes app under the schedule and checks every conformance
// invariant: the probes watch each publish inline, the chaos scheduler
// injects the seeded perturbations and interrupt, and the terminal state
// is verified after quiescence.
func RunOne(app App, s Schedule) Result {
	env := &Env{Col: &Collector{}}
	inst, err := app.Build(env, s)
	if err != nil {
		env.Col.Add("build-error", app.Name(), "%v", err)
		return Result{App: app.Name(), Schedule: s, Violations: env.Col.Violations()}
	}
	return runCycle(app, inst, env, s)
}

// RunReuse builds one instance of app and runs it through cycles
// consecutive checkout cycles — the warm-pool discipline of internal/serve
// under the harness's invariants. Cycles 1..n-1 run under the schedule's
// own interrupt (an interrupted, possibly approximate request); the final
// cycle forces StopNone and must still reach the bit-exact precise output,
// proving Reset leaks no state from any earlier interrupted run. Between
// cycles the automaton is Reset (running the app's production OnReset
// hooks) and the probes' observation state is rewound, so every cycle
// re-proves version-monotonicity from version 1. Each cycle gets its own
// Collector; the sweep stops at the first failing cycle (a broken instance
// only produces noise afterwards).
func RunReuse(app App, s Schedule, cycles int) []Result {
	if cycles < 1 {
		cycles = 1
	}
	env := &Env{Col: &Collector{}}
	inst, err := app.Build(env, s)
	if err != nil {
		env.Col.Add("build-error", app.Name(), "%v", err)
		return []Result{{App: app.Name(), Schedule: s, Violations: env.Col.Violations()}}
	}
	results := make([]Result, 0, cycles)
	for c := 1; c <= cycles; c++ {
		cs := s
		if c == cycles {
			cs.Stop = StopPoint{Kind: StopNone}
		}
		env.Col = &Collector{}
		if c > 1 {
			if err := inst.Automaton.Reset(); err != nil {
				env.Col.Add("reset-error", app.Name(), "cycle %d: %v", c, err)
				return append(results, Result{App: app.Name(), Schedule: cs, Cycle: c, Violations: env.Col.Violations()})
			}
			env.reset()
		}
		res := runCycle(app, inst, env, cs)
		res.Cycle = c
		results = append(results, res)
		if res.Failed() {
			break
		}
	}
	return results
}

// runCycle is one start→quiesce pass over a built instance: attach a fresh
// chaos scheduler, run under the schedule's perturbations and interrupt,
// then verify the terminal state. env.OnPublish and the automaton's hooks
// are (re)bound here, which is safe because the instance is quiescent
// between cycles.
func runCycle(app App, inst *Instance, env *Env, s Schedule) Result {
	res := Result{App: app.Name(), Schedule: s}
	col := env.Col

	sched := newChaosScheduler(inst.Automaton, app.Stages(), s)
	var publishes atomic.Int64
	env.OnPublish = func() {
		n := publishes.Add(1)
		if s.Stop.Kind == StopAtPublish && n == int64(s.Stop.Count) {
			sched.trigger()
		}
	}
	inst.Automaton.SetHooks(sched.hooks())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := inst.Automaton.Start(ctx); err != nil {
		col.Add("build-error", app.Name(), "start: %v", err)
		res.Violations = col.Violations()
		return res
	}

	// Supervisor: perform the interrupt when the scheduler triggers it. An
	// observer or hook cannot call Stop itself (Stop waits for every stage
	// to exit, and hooks run on stage goroutines).
	supDone := make(chan struct{})
	go func() {
		defer close(supDone)
		select {
		case <-sched.stopCh:
			inst.Automaton.Stop()
		case <-inst.Automaton.Done():
		}
	}()

	select {
	case <-inst.Automaton.Done():
	case <-time.After(runWatchdog):
		// Wedged: cancel the context (non-blocking) and give the pipeline a
		// moment to unwind before reporting. If it stays stuck we leak its
		// goroutines — there is nothing safe left to wait on.
		col.Add("hang", app.Name(), "automaton still running after %v", runWatchdog)
		cancel()
		select {
		case <-inst.Automaton.Done():
		case <-time.After(5 * time.Second):
			res.Violations = col.Violations()
			return res
		}
	}
	<-supDone
	sched.pausers.Wait()

	err := inst.Automaton.Wait()
	res.Completed = err == nil
	interrupted := s.Stop.Kind != StopNone
	switch {
	case err == nil:
	case errors.Is(err, core.ErrStopped):
		// A legitimate anytime outcome — but only if somebody interrupted.
		if !interrupted {
			col.Add("stage-error", app.Name(), "stopped without an interrupt point: %v", err)
		}
	default:
		col.Add("stage-error", app.Name(), "%v", err)
	}

	// Terminal checks, now that quiescence gives us a happens-before edge
	// to every stage's writes.
	for _, p := range inst.Probes {
		p.VerifyQuiescent()
	}
	if res.Completed {
		_, sum, final, ok := inst.Sink.Last()
		switch {
		case !ok:
			col.Add("no-final", inst.Sink.Name, "run completed but the sink never published")
		case !final:
			col.Add("no-final", inst.Sink.Name, "run completed but the sink's last snapshot is not final")
		case inst.HasGolden && sum != inst.GoldenSum:
			col.Add("final-mismatch", inst.Sink.Name, "final checksum %016x != sequential golden %016x", sum, inst.GoldenSum)
		}
	}

	res.Publishes = publishes.Load()
	res.Violations = col.Violations()
	return res
}
