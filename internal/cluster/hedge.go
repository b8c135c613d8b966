package cluster

import (
	"context"
	"errors"
	"math"
	"net/http"
	"time"

	"anytime/internal/reqtrace"
)

// ErrNoBackend is returned when a request cannot be served by any backend:
// the ring is empty, or every attempted forward failed.
var ErrNoBackend = errors.New("cluster: no backend could serve the request")

// backendResponse is one backend's answer, decoded far enough for the race
// to judge it: the raw body and headers to relay, plus the snapshot
// quality read from the X-Anytime-* headers. A final (precise) snapshot
// scores +Inf — it beats any approximation.
type backendResponse struct {
	member  string
	role    string // primary | hedge
	status  int
	header  http.Header
	body    []byte
	rtt     time.Duration
	snr     float64 // dB; +Inf for a final snapshot
	final   bool
	version uint64
}

// usable reports whether the response carries a deliverable snapshot.
func (r *backendResponse) usable() bool { return r != nil && r.status == http.StatusOK }

// score ranks responses in the race: final beats approximate, higher SNR
// beats lower. Unusable responses never reach scoring.
func (r *backendResponse) score() float64 {
	if r.final {
		return math.Inf(1)
	}
	return r.snr
}

// upstream is one forwarding attempt the race can launch: do must honor
// ctx cancellation (the loser's cancel is how the race returns capacity).
type upstream struct {
	member string
	role   string
	do     func(ctx context.Context) *backendResponse // nil = attempt failed
}

// timerFunc is the race's clock seam: production uses time.NewTimer, the
// determinism tests inject hand-fed channels so hedge/budget firings are
// scripted, not raced.
type timerFunc func(d time.Duration) (<-chan time.Time, func() bool)

func stdTimer(d time.Duration) (<-chan time.Time, func() bool) {
	t := time.NewTimer(d)
	return t.C, t.Stop
}

// race is one request's hedging configuration.
type race struct {
	// hedgeDelay arms the secondary: if the primary hasn't answered within
	// it, the next ring member is raced. <= 0 disables hedging (single
	// backend, or hedging turned off).
	hedgeDelay time.Duration
	// budget bounds the selection: when it fires, the best usable response
	// so far is delivered and the straggler cancelled. <= 0 means no
	// budget (precise requests): first usable response wins outright.
	budget time.Duration
	timer  timerFunc
	tr     *reqtrace.Trace
	sink   reqtrace.Sink
}

// runRace executes the hedged-forward protocol and returns exactly one
// response — the paper's deadline contract lifted to the fleet:
//
//  1. The primary forward launches immediately.
//  2. If it answers usably before the hedge delay, it wins outright.
//  3. When the hedge delay fires (or the primary fails outright), the
//     secondary launches; both race under the remaining budget.
//  4. When the budget fires, the best usable response received so far is
//     delivered and the outstanding attempt is cancelled. If both arrive
//     before the budget, the higher-SNR snapshot wins immediately.
//  5. If nothing usable has arrived when the budget fires, the race keeps
//     waiting and delivers the first usable response — budget exhaustion
//     degrades the answer, it never empties it. Only every attempt
//     failing yields an error.
//
// The returned response is the single delivery: the caller records the
// one deliver span (exactly-once, even when both attempts answered).
func runRace(ctx context.Context, rc race, primary, secondary *upstream) (*backendResponse, error) {
	if rc.timer == nil {
		rc.timer = stdTimer
	}
	type outcome struct {
		resp *backendResponse
		up   *upstream
	}
	results := make(chan outcome, 2)
	launched := 0
	cancels := make(map[*upstream]context.CancelFunc, 2)
	launch := func(up *upstream) {
		upCtx, cancel := context.WithCancel(ctx)
		cancels[up] = cancel
		launched++
		rc.sink.Send(rc.tr.Forward(up.member, up.role))
		go func() {
			resp := up.do(upCtx)
			var rtt time.Duration
			if resp != nil {
				rtt = resp.rtt
			}
			rc.sink.Send(rc.tr.ForwardDone(up.member, up.role, rtt, resp.usable()))
			results <- outcome{resp, up}
		}()
	}
	// deliver resolves the race: cancel the straggler (if any), credit the
	// win, hand the response up.
	pending := func(won *upstream) *upstream {
		for up, cancel := range cancels {
			if up != won && cancel != nil {
				return up
			}
		}
		return nil
	}
	deliver := func(o outcome) (*backendResponse, error) {
		if loser := pending(o.up); loser != nil {
			cancels[loser]()
			rc.sink.Send(rc.tr.HedgeCancel(loser.member, loser.role))
		}
		if launched > 1 {
			rc.sink.Send(rc.tr.HedgeWin(o.up.member, o.up.role))
		}
		return o.resp, nil
	}

	launch(primary)
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()

	// Phase one: primary alone, hedge timer armed.
	if secondary != nil && rc.hedgeDelay > 0 {
		hedgeC, stopHedge := rc.timer(rc.hedgeDelay)
		select {
		case <-ctx.Done():
			stopHedge()
			return nil, ctx.Err()
		case o := <-results:
			stopHedge()
			if o.resp.usable() {
				return deliver(o)
			}
			// Primary failed outright: fail over to the secondary without
			// waiting for the delay. Not a hedge win — a rescue.
			delete(cancels, o.up)
			launch(secondary)
			secondary = nil
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case o := <-results:
				if o.resp.usable() {
					return deliver(o)
				}
				return nil, ErrNoBackend
			}
		case <-hedgeC:
			rc.sink.Send(rc.tr.HedgeFire(rc.hedgeDelay))
			launch(secondary)
		}
	} else {
		// No hedging possible: wait the primary out, fail over only on
		// outright failure.
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case o := <-results:
			if o.resp.usable() {
				return deliver(o)
			}
			if secondary == nil {
				return nil, ErrNoBackend
			}
			delete(cancels, o.up)
			launch(secondary)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case o := <-results:
				if o.resp.usable() {
					return deliver(o)
				}
				return nil, ErrNoBackend
			}
		}
	}

	// Phase two: primary and hedge both in flight. Collect until the
	// budget fires or both answer; then deliver the best usable response.
	var budgetC <-chan time.Time
	var stopBudget func() bool
	if rc.budget > 0 {
		budgetC, stopBudget = rc.timer(rc.budget)
		defer stopBudget()
	}
	var best outcome
	// With no budget (precise requests) there is nothing to wait out: the
	// first usable answer wins, exactly as if the budget had already fired.
	budgetFired := rc.budget <= 0
	answered := 0
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case o := <-results:
			answered++
			delete(cancels, o.up) // done; nothing to cancel
			if o.resp.usable() && (best.resp == nil || o.resp.score() > best.resp.score()) {
				best = o
			}
			if o.resp.usable() && budgetFired {
				// The budget already fired; the first usable answer is the
				// delivery (best is o or an earlier better one).
				return deliver(best)
			}
			if answered == 2 {
				if best.resp == nil {
					return nil, ErrNoBackend
				}
				return deliver(best)
			}
			// One answered, one outstanding, budget still running: an
			// unusable answer leaves us waiting on the other; a usable one
			// is held as champion until the budget or the challenger
			// resolves the race.
		case <-budgetC:
			budgetFired = true
			budgetC = nil
			if best.resp != nil {
				return deliver(best)
			}
			// Nothing usable yet: never empty-handed — keep waiting for
			// the first usable answer.
		}
	}
}
