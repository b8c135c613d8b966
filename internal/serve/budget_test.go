package serve

import (
	"testing"
	"time"
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
// caps the deadline, never raises it, the time already spent comes off the
// result, and an exhausted grant degrades to the minimum best-effort
// contract instead of rejecting — or becoming a precise run.
func TestApplyBudget(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for _, tc := range []struct {
		name             string
		deadline, budget time.Duration
		ok               bool
		spent            time.Duration
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
		{name: "wait charged to the deadline", deadline: ms(100), spent: ms(30), want: ms(70)},
		{name: "wait charged to the budget", deadline: ms(100), budget: ms(40), ok: true, spent: ms(30), want: ms(10), wantBudgeted: true},
		{name: "wait spends the deadline", deadline: ms(100), spent: ms(100), want: time.Nanosecond},
		{name: "wait past the deadline", deadline: ms(100), spent: ms(250), want: time.Nanosecond},
		{name: "exhausted budget after a wait", deadline: ms(100), budget: 0, ok: true, spent: ms(5), want: time.Nanosecond, wantBudgeted: true},
		{name: "precise never charged", deadline: 0, spent: ms(30), want: 0},
		{name: "negative spent ignored", deadline: ms(100), spent: -ms(30), want: ms(100)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, budgeted := ApplyBudget(tc.deadline, tc.budget, tc.ok, tc.spent)
			if got != tc.want || budgeted != tc.wantBudgeted {
				t.Fatalf("ApplyBudget(%v, %v, %v, %v) = (%v, %v), want (%v, %v)",
					tc.deadline, tc.budget, tc.ok, tc.spent, got, budgeted, tc.want, tc.wantBudgeted)
			}
		})
	}
}
