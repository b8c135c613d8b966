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
//  3. If it fails outright before the hedge delay, the secondary launches
//     at once and its answer is the outcome: a rescue, not a hedge.
//  4. When the hedge delay fires, the secondary launches and both race
//     under the budget, armed at that moment. When the budget fires, the
//     best usable response received so far is delivered and the
//     outstanding attempt is cancelled. If both answer before the budget,
//     the higher-SNR snapshot wins.
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
	results := make(chan outcome, 2) // one per attempt: a loser never blocks
	inFlight := make(map[*upstream]context.CancelFunc, 2)
	var stops []func() bool
	defer func() {
		for _, cancel := range inFlight {
			cancel()
		}
		for _, stop := range stops {
			stop()
		}
	}()
	launch := func(up *upstream) {
		upCtx, cancel := context.WithCancel(ctx)
		inFlight[up] = cancel
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
	arm := func(d time.Duration) <-chan time.Time {
		c, stop := rc.timer(d)
		stops = append(stops, stop)
		return c
	}

	launch(primary)
	var hedgeC, budgetC <-chan time.Time
	if secondary != nil && rc.hedgeDelay > 0 {
		hedgeC = arm(rc.hedgeDelay)
	}
	hedged := false
	// With no budget (precise requests) there is nothing to wait out: the
	// first usable answer wins, exactly as if the budget had already fired.
	budgetFired := rc.budget <= 0
	var best outcome
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-hedgeC:
			hedgeC, hedged = nil, true
			rc.sink.Send(rc.tr.HedgeFire(rc.hedgeDelay))
			launch(secondary)
			secondary = nil
			if rc.budget > 0 {
				budgetC = arm(rc.budget)
			}
		case <-budgetC:
			budgetC, budgetFired = nil, true
		case o := <-results:
			inFlight[o.up]() // answered: release its context now
			delete(inFlight, o.up)
			switch {
			case o.resp.usable():
				if best.resp == nil || o.resp.score() > best.resp.score() {
					best = o
				}
			case !hedged && secondary != nil:
				// The primary failed outright: fail over without waiting
				// out the hedge delay.
				hedgeC = nil
				launch(secondary)
				secondary = nil
			}
		}
		if best.resp != nil && (!hedged || budgetFired || len(inFlight) == 0) {
			for up, cancel := range inFlight {
				cancel()
				rc.sink.Send(rc.tr.HedgeCancel(up.member, up.role))
			}
			if hedged {
				rc.sink.Send(rc.tr.HedgeWin(best.up.member, best.up.role))
			}
			return best.resp, nil
		}
		if len(inFlight) == 0 {
			return nil, ErrNoBackend
		}
	}
}
