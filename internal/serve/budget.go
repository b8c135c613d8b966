package serve

import (
	"fmt"
	"time"
)

// BudgetHeader is the header a routing tier uses to hand a backend the
// remaining deadline budget for a request: the client's original deadline
// minus the time already spent upstream (router queue wait) and the
// expected cost of reaching this backend (observed RTT). The backend
// treats the budget as a ceiling on the deadline it grants, and charges
// its own queue wait against it as it does against a deadline.
//
// The value is a Go duration string ("37ms"). A zero or negative budget
// means the upstream has already spent the whole deadline: the backend
// should deliver the first snapshot it can produce, immediately — the
// anytime contract still forbids returning empty-handed.
const BudgetHeader = "X-Anytime-Budget"

// minBudget is the grant of a request with nothing left — its budget
// reached zero upstream, or its wait here spent the rest: just enough to
// enter the deadline>0 path of Run, which fires immediately and delivers
// the first published snapshot. A grant of 0 would instead mean "run to
// precise". The request still never returns empty-handed; it just does
// the minimum work.
const minBudget = time.Nanosecond

// ParseBudget parses a BudgetHeader value. ok reports whether a budget was
// present at all; an unparsable value is an error (the router and backend
// disagreeing about the wire format is a config bug worth surfacing, not
// masking).
func ParseBudget(header string) (budget time.Duration, ok bool, err error) {
	if header == "" {
		return 0, false, nil
	}
	d, err := time.ParseDuration(header)
	if err != nil {
		return 0, false, fmt.Errorf("serve: bad %s %q: %v", BudgetHeader, header, err)
	}
	return d, true, nil
}

// FormatBudget renders a budget for the BudgetHeader. Budgets that went
// negative upstream are clamped to "0s" on the wire: how far past zero the
// router was is its own diagnostic, not the backend's instruction.
func FormatBudget(budget time.Duration) string {
	if budget < 0 {
		budget = 0
	}
	return budget.String()
}

// ApplyBudget computes the grant a deadline request runs under: the
// deadline, capped by a propagated budget (ok reports one was present),
// less the time already spent since the request arrived:
//
//   - deadline <= 0 (precise request): never budgeted, never charged.
//     Precision is an explicit contract; a router must bound such requests
//     with admission control, not by silently converting them to
//     approximations.
//   - otherwise the grant is min(deadline, budget) − spent, and when
//     nothing is left — the upstream spent everything, or the wait here
//     did — the minimal positive grant, so the run delivers its first
//     snapshot and stops. It is never 0, which would mean run to precise.
//
// budgeted reports whether the budget tightened the deadline — the signal
// telemetry and traces record.
func ApplyBudget(deadline, budget time.Duration, ok bool, spent time.Duration) (grant time.Duration, budgeted bool) {
	if deadline <= 0 {
		return deadline, false
	}
	grant = deadline
	if ok && budget < deadline {
		grant, budgeted = budget, true
	}
	if grant -= max(spent, 0); grant <= 0 {
		return minBudget, budgeted
	}
	return grant, budgeted
}
