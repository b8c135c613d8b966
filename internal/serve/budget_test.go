package serve

import (
	"context"
	"testing"
	"time"

	"anytime/internal/reqtrace"
)

func TestParseBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		header string
		want   time.Duration
		wantOK bool
		errs   bool
	}{
		{name: "absent", header: "", want: 0, wantOK: false},
		{name: "typical", header: "35ms", want: 35 * time.Millisecond, wantOK: true},
		{name: "zero means exhausted", header: "0s", want: 0, wantOK: true},
		{name: "negative accepted as exhausted", header: "-5ms", want: -5 * time.Millisecond, wantOK: true},
		{name: "sub-millisecond", header: "250µs", want: 250 * time.Microsecond, wantOK: true},
		{name: "garbage", header: "35 milliseconds", errs: true},
		{name: "bare number", header: "35", errs: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, ok, err := ParseBudget(tc.header)
			if tc.errs {
				if err == nil {
					t.Fatalf("ParseBudget(%q) accepted", tc.header)
				}
				return
			}
			if err != nil || got != tc.want || ok != tc.wantOK {
				t.Fatalf("ParseBudget(%q) = (%v, %v, %v), want (%v, %v)", tc.header, got, ok, err, tc.want, tc.wantOK)
			}
		})
	}
}

func TestFormatBudgetRoundTripsAndClamps(t *testing.T) {
	for _, d := range []time.Duration{time.Nanosecond, time.Millisecond, 35 * time.Millisecond, 2 * time.Second} {
		got, ok, err := ParseBudget(FormatBudget(d))
		if err != nil || !ok || got != d {
			t.Errorf("round trip %v -> %q -> (%v, %v, %v)", d, FormatBudget(d), got, ok, err)
		}
	}
	// Negative budgets are clamped on the wire: the receiver sees "spent".
	got, ok, err := ParseBudget(FormatBudget(-time.Second))
	if err != nil || !ok || got != 0 {
		t.Errorf("negative budget formatted as %q, parsed (%v, %v, %v)", FormatBudget(-time.Second), got, ok, err)
	}
}

// TestApplyBudget is the backend half of the budget arithmetic: the budget
// caps the deadline, never raises it, and an exhausted budget degrades to
// the minimum best-effort contract instead of rejecting.
func TestApplyBudget(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for _, tc := range []struct {
		name             string
		deadline, budget time.Duration
		ok               bool
		want             time.Duration
		wantBudgeted     bool
	}{
		{name: "budget caps", deadline: ms(100), budget: ms(40), ok: true, want: ms(40), wantBudgeted: true},
		{name: "budget above deadline ignored", deadline: ms(100), budget: ms(200), ok: true, want: ms(100)},
		{name: "budget equal to deadline ignored", deadline: ms(100), budget: ms(100), ok: true, want: ms(100)},
		{name: "no header", deadline: ms(100), ok: false, want: ms(100)},
		{name: "exhausted floors to best-effort", deadline: ms(100), budget: 0, ok: true, want: time.Nanosecond, wantBudgeted: true},
		{name: "negative floors to best-effort", deadline: ms(100), budget: -ms(5), ok: true, want: time.Nanosecond, wantBudgeted: true},
		{name: "precise never budgeted", deadline: 0, budget: ms(40), ok: true, want: 0},
		{name: "hold-style negative deadline untouched", deadline: -1, budget: ms(40), ok: true, want: -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, budgeted := ApplyBudget(tc.deadline, tc.budget, tc.ok)
			if got != tc.want || budgeted != tc.wantBudgeted {
				t.Fatalf("ApplyBudget(%v, %v, %v) = (%v, %v), want (%v, %v)",
					tc.deadline, tc.budget, tc.ok, got, budgeted, tc.want, tc.wantBudgeted)
			}
		})
	}
}

// TestControllerKneeBoundaries pins the documented boundary semantics
// (docs/OPERATIONS.md "worked example"): depth exactly at ShedStart is
// still served at factor 1 — shedding engages strictly above the knee —
// and depth exactly at ShedFull saturates at MinFactor.
func TestControllerKneeBoundaries(t *testing.T) {
	c := Controller{ShedStart: 8, ShedFull: 32, MinFactor: 0.25}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.Factor(8); got != 1 {
		t.Errorf("Factor(ShedStart) = %v, want exactly 1 (knee is served unshed)", got)
	}
	if got := c.Factor(9); got >= 1 {
		t.Errorf("Factor(ShedStart+1) = %v, want < 1 (shedding engages strictly above the knee)", got)
	}
	if got := c.Factor(32); got != 0.25 {
		t.Errorf("Factor(ShedFull) = %v, want MinFactor", got)
	}
	if got := c.Factor(31); got <= 0.25 || got >= 1 {
		t.Errorf("Factor(ShedFull-1) = %v, want inside (MinFactor, 1)", got)
	}
	if got := c.Factor(1000); got != 0.25 {
		t.Errorf("Factor(beyond full) = %v, want MinFactor", got)
	}
}

// TestControllerScaleFactorOneIsInvisible: at factor exactly 1 Scale must
// return the deadline untouched AND stay silent — no shed event, on the
// sink or the trace. A spurious event at the knee would inflate the shed
// metrics on every request that merely grazed the queue.
func TestControllerScaleFactorOneIsInvisible(t *testing.T) {
	fired := 0
	c := Controller{ShedStart: 8, ShedFull: 32, MinFactor: 0.25, Sink: onKind(reqtrace.KindShed, func(reqtrace.Event) { fired++ })}
	d := 100 * time.Millisecond
	if got := c.Scale(context.Background(), d, 8); got != d {
		t.Fatalf("Scale at the knee = %v, want %v unchanged", got, d)
	}
	if got := c.Scale(context.Background(), d, 0); got != d {
		t.Fatalf("Scale at empty queue = %v, want %v", got, d)
	}
	if fired != 0 {
		t.Fatalf("shed reported %d times at factor 1", fired)
	}
	if got := c.Scale(context.Background(), d, 9); got >= d || fired != 1 {
		t.Fatalf("Scale above the knee = %v (events %d), want scaled-down and one shed event", got, fired)
	}
}
