package telemetry

import (
	"strconv"

	"anytime/internal/reqtrace"
)

// Metric names of the router-tier binding.
const (
	MetricRouterForwards      = "anytime_router_forwards_total"
	MetricRouterForwardRTT    = "anytime_router_forward_rtt_seconds"
	MetricRouterHedges        = "anytime_router_hedges_total"
	MetricRouterHedgeWins     = "anytime_router_hedge_wins_total"
	MetricRouterHedgeCancels  = "anytime_router_hedge_cancels_total"
	MetricRouterBudgetFloored = "anytime_router_budget_floored_total"
	MetricRouterMemberStates  = "anytime_router_member_state_changes_total"
	MetricRouterDeliveries    = "anytime_router_deliveries_total"
	MetricRouterDeliveryTime  = "anytime_router_delivery_seconds"
)

// RouterHooks returns the reqtrace.Sink recording the routing tier into
// reg — each series is derived from the same event the request's trace
// holds:
//
//   - forward.done → anytime_router_forwards_total{member,role,usable}:
//     proxied requests by backend, attempt role (primary | hedge), and
//     whether the response carried a deliverable snapshot (counted at
//     completion, so the usable label is known), and, for usable ones,
//     anytime_router_forward_rtt_seconds{member}: per-backend round-trip
//     histogram — the network term of the budget arithmetic, observable.
//   - hedge.fire → anytime_router_hedges_total: hedge timers that fired (a
//     secondary request was issued). The ratio to deliveries is the hedge
//     rate; it should track 1 - HedgeQuantile (~1% at p99).
//   - hedge.win → anytime_router_hedge_wins_total{role}: hedged races (the
//     hedge timer fired) by winning role; a failover is a rescue and counts
//     none, so wins never exceed hedges. A high hedge share means the hedge
//     delay is too long or a backend is sick.
//   - hedge.cancel → anytime_router_hedge_cancels_total{member}: in-flight
//     losers cancelled, by backend — who keeps losing races.
//   - budget (floored) → anytime_router_budget_floored_total: requests
//     whose remaining budget clamped to zero (the fleet spent the whole
//     deadline before any backend could run) — sustained growth means
//     deadlines are too tight for the topology.
//   - member.state → anytime_router_member_state_changes_total{member,state}:
//     health transitions (healthy | draining | down).
//   - deliver → anytime_router_deliveries_total{member,hedged}: responses
//     written, by serving backend and whether the secondary answered (a
//     hedge or a failover), and
//     anytime_router_delivery_seconds{hedged}: router-side end-to-end
//     latency (arrival to response written).
//
// All instruments are safe for concurrent use; one sink serves the whole
// router.
func RouterHooks(reg *Registry) reqtrace.Sink {
	hedges := reg.Counter(MetricRouterHedges, nil)
	floored := reg.Counter(MetricRouterBudgetFloored, nil)
	return func(e reqtrace.Event) {
		switch e.Kind {
		case reqtrace.KindForwardDone:
			reg.Counter(MetricRouterForwards, Labels{"member": e.Name, "role": e.Note, "usable": strconv.FormatBool(e.Flag)}).Inc()
			if e.Flag {
				reg.DurationHistogram(MetricRouterForwardRTT, Labels{"member": e.Name}).ObserveDuration(e.Dur)
			}
		case reqtrace.KindHedgeFire:
			hedges.Inc()
		case reqtrace.KindHedgeWin:
			reg.Counter(MetricRouterHedgeWins, Labels{"role": e.Note}).Inc()
		case reqtrace.KindHedgeCancel:
			reg.Counter(MetricRouterHedgeCancels, Labels{"member": e.Name}).Inc()
		case reqtrace.KindBudget:
			if e.Flag {
				floored.Inc()
			}
		case reqtrace.KindMemberState:
			reg.Counter(MetricRouterMemberStates, Labels{"member": e.Name, "state": e.Note}).Inc()
		case reqtrace.KindDeliver:
			hedged := strconv.FormatBool(e.Note == "hedged")
			reg.Counter(MetricRouterDeliveries, Labels{"member": e.Name, "hedged": hedged}).Inc()
			reg.DurationHistogram(MetricRouterDeliveryTime, Labels{"hedged": hedged}).ObserveDuration(e.Dur)
		}
	}
}
