package telemetry

import (
	"strings"
	"testing"
	"time"

	"anytime/internal/reqtrace"
)

// TestRouterHooksRecord exercises every binding in RouterHooks by sending
// the sink the events the router emits for an untraced request and reading
// the series back.
func TestRouterHooksRecord(t *testing.T) {
	reg := NewRegistry()
	sink := RouterHooks(reg)
	var tr *reqtrace.Trace

	sink(tr.ForwardDone("b1:8080", "primary", 3*time.Millisecond, true))
	sink(tr.ForwardDone("b1:8080", "primary", 4*time.Millisecond, true))
	sink(tr.ForwardDone("b2:8080", "hedge", 0, false))
	if got := reg.Counter(MetricRouterForwards, Labels{"member": "b1:8080", "role": "primary", "usable": "true"}).Value(); got != 2 {
		t.Errorf("primary forwards = %d, want 2", got)
	}
	if got := reg.Counter(MetricRouterForwards, Labels{"member": "b2:8080", "role": "hedge", "usable": "false"}).Value(); got != 1 {
		t.Errorf("failed hedge forwards = %d, want 1", got)
	}
	if got := reg.DurationHistogram(MetricRouterForwardRTT, Labels{"member": "b1:8080"}).Count(); got != 2 {
		t.Errorf("rtt observations = %d, want 2 (usable only)", got)
	}
	if got := reg.DurationHistogram(MetricRouterForwardRTT, Labels{"member": "b2:8080"}).Count(); got != 0 {
		t.Errorf("unusable forward observed into the RTT histogram")
	}

	sink(tr.HedgeFire(12 * time.Millisecond))
	if got := reg.Counter(MetricRouterHedges, nil).Value(); got != 1 {
		t.Errorf("hedges = %d, want 1", got)
	}
	sink(tr.HedgeWin("b2:8080", "hedge"))
	sink(tr.HedgeWin("b1:8080", "primary"))
	if got := reg.Counter(MetricRouterHedgeWins, Labels{"role": "hedge"}).Value(); got != 1 {
		t.Errorf("hedge wins = %d, want 1", got)
	}
	sink(tr.HedgeCancel("b2:8080", "hedge"))
	if got := reg.Counter(MetricRouterHedgeCancels, Labels{"member": "b2:8080"}).Value(); got != 1 {
		t.Errorf("cancels = %d, want 1", got)
	}

	sink(tr.Budget(30*time.Millisecond, false)) // granted, not floored: not counted
	sink(tr.Budget(0, true))
	if got := reg.Counter(MetricRouterBudgetFloored, nil).Value(); got != 1 {
		t.Errorf("budget floored = %d, want 1", got)
	}
	sink(reqtrace.Event{Kind: reqtrace.KindMemberState, Name: "b2:8080", Note: "down"})
	if got := reg.Counter(MetricRouterMemberStates, Labels{"member": "b2:8080", "state": "down"}).Value(); got != 1 {
		t.Errorf("state transitions = %d, want 1", got)
	}

	sink(tr.RouterDeliver("b1:8080", true, 4, false, 20*time.Millisecond))
	sink(tr.RouterDeliver("b1:8080", false, 9, true, 5*time.Millisecond))
	if got := reg.Counter(MetricRouterDeliveries, Labels{"member": "b1:8080", "hedged": "true"}).Value(); got != 1 {
		t.Errorf("hedged deliveries = %d, want 1", got)
	}
	if got := reg.DurationHistogram(MetricRouterDeliveryTime, Labels{"hedged": "false"}).Count(); got != 1 {
		t.Errorf("unhedged delivery observations = %d, want 1", got)
	}

	// The family must render as valid exposition alongside everything else.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`anytime_router_forwards_total{member="b1:8080",role="primary",usable="true"} 2`,
		"anytime_router_forward_rtt_seconds_bucket",
		`anytime_router_deliveries_total{hedged="true",member="b1:8080"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
