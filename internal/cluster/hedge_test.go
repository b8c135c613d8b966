package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anytime/internal/reqtrace"
	"anytime/internal/testgate"
)

// fakeClock hands runRace scripted timer channels, so "the hedge delay
// elapsed" and "the budget fired" are test statements, not sleeps: every
// interleaving below is exact and the suite runs in microseconds.
type fakeClock struct {
	timers []chan time.Time // dispensed in call order: hedge first, then budget
	next   int
	asked  []time.Duration
}

func newFakeClock(n int) *fakeClock {
	c := &fakeClock{}
	for i := 0; i < n; i++ {
		c.timers = append(c.timers, make(chan time.Time, 1))
	}
	return c
}

func (c *fakeClock) timer(d time.Duration) (<-chan time.Time, func() bool) {
	if c.next >= len(c.timers) {
		panic("fakeClock: more timers requested than scripted")
	}
	ch := c.timers[c.next]
	c.next++
	c.asked = append(c.asked, d)
	return ch, func() bool { return true }
}

func (c *fakeClock) fire(i int) { c.timers[i] <- time.Time{} }

// scriptedUpstream blocks until the test releases it (or its context is
// cancelled), then returns its scripted response.
type scriptedUpstream struct {
	up        *upstream
	release   chan struct{}
	cancelled atomic.Bool
	started   chan context.Context // the attempt's context, once launched
}

func newScripted(member, role string, resp *backendResponse) *scriptedUpstream {
	s := &scriptedUpstream{
		release: make(chan struct{}),
		started: make(chan context.Context, 1),
	}
	s.up = &upstream{
		member: member,
		role:   role,
		do: func(ctx context.Context) *backendResponse {
			select {
			case s.started <- ctx:
			default:
			}
			select {
			case <-ctx.Done():
				s.cancelled.Store(true)
				return nil
			case <-s.release:
				return resp
			}
		},
	}
	return s
}

func ok(member, role string, snr float64) *backendResponse {
	return &backendResponse{member: member, role: role, status: http.StatusOK, snr: snr}
}

func bad(member, role string) *backendResponse {
	return &backendResponse{member: member, role: role, status: http.StatusServiceUnavailable}
}

// counterSink counts the race's hedge decisions, for exactly-once
// assertions.
type counterSink struct {
	hedges, wins, cancels atomic.Int32
	winRole               atomic.Value // string
}

func (c *counterSink) sink(e reqtrace.Event) {
	switch e.Kind {
	case reqtrace.KindHedgeFire:
		c.hedges.Add(1)
	case reqtrace.KindHedgeWin:
		c.wins.Add(1)
		c.winRole.Store(e.Note)
	case reqtrace.KindHedgeCancel:
		c.cancels.Add(1)
	}
}

// TestRacePrimaryWinsBeforeHedge: a fast primary short-circuits everything —
// no hedge, no secondary launch, no cancel.
func TestRacePrimaryWinsBeforeHedge(t *testing.T) {
	clk := newFakeClock(1)
	var ch counterSink
	p := newScripted("a", "primary", ok("a", "primary", 20))
	s := newScripted("b", "hedge", ok("b", "hedge", 30))
	close(p.release)
	resp, err := runRace(context.Background(), race{
		hedgeDelay: 10 * time.Millisecond, budget: 50 * time.Millisecond,
		timer: clk.timer, sink: ch.sink,
	}, p.up, s.up)
	if err != nil || resp.member != "a" {
		t.Fatalf("resp=%+v err=%v, want primary a", resp, err)
	}
	if ch.hedges.Load() != 0 || ch.wins.Load() != 0 || ch.cancels.Load() != 0 {
		t.Errorf("hedge events reported on unhedged fast path: hedges=%d wins=%d cancels=%d",
			ch.hedges.Load(), ch.wins.Load(), ch.cancels.Load())
	}
	select {
	case <-s.started:
		t.Error("secondary launched although primary won before the hedge delay")
	default:
	}
}

// TestRaceHigherSNRWins: hedge fires, both backends answer inside the
// budget — the better snapshot wins regardless of arrival order, and the
// win is credited exactly once.
func TestRaceHigherSNRWins(t *testing.T) {
	for _, tc := range []struct {
		name               string
		pSNR, sSNR         float64
		sFinal             bool
		want               string
		wantRole           string
		releaseSecondFirst bool
	}{
		{name: "primary better", pSNR: 30, sSNR: 20, want: "a", wantRole: "primary"},
		{name: "hedge better", pSNR: 20, sSNR: 30, want: "b", wantRole: "hedge", releaseSecondFirst: true},
		{name: "final beats higher dB", pSNR: 90, sSNR: 0, sFinal: true, want: "b", wantRole: "hedge"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock(2)
			var ch counterSink
			sResp := ok("b", "hedge", tc.sSNR)
			sResp.final = tc.sFinal
			p := newScripted("a", "primary", ok("a", "primary", tc.pSNR))
			s := newScripted("b", "hedge", sResp)
			done := make(chan struct{})
			var resp *backendResponse
			var err error
			go func() {
				defer close(done)
				resp, err = runRace(context.Background(), race{
					hedgeDelay: 10 * time.Millisecond, budget: 50 * time.Millisecond,
					timer: clk.timer, sink: ch.sink,
				}, p.up, s.up)
			}()
			<-p.started
			clk.fire(0) // hedge delay elapses
			<-s.started
			if tc.releaseSecondFirst {
				close(s.release)
				close(p.release)
			} else {
				close(p.release)
				close(s.release)
			}
			<-done
			if err != nil || resp.member != tc.want {
				t.Fatalf("resp=%+v err=%v, want member %s", resp, err, tc.want)
			}
			if ch.hedges.Load() != 1 {
				t.Errorf("hedges=%d, want 1", ch.hedges.Load())
			}
			if ch.wins.Load() != 1 || ch.winRole.Load().(string) != tc.wantRole {
				t.Errorf("wins=%d role=%v, want exactly one %s win", ch.wins.Load(), ch.winRole.Load(), tc.wantRole)
			}
		})
	}
}

// TestRaceBudgetDeliversBestAndCancelsLoser: the budget fires while the
// hedge is still out — the usable primary is delivered immediately and the
// straggler's context is cancelled.
func TestRaceBudgetDeliversBestAndCancelsLoser(t *testing.T) {
	testgate.Goroutines(t)
	clk := newFakeClock(2)
	var ch counterSink
	p := newScripted("a", "primary", ok("a", "primary", 20))
	s := newScripted("b", "hedge", ok("b", "hedge", 99))
	done := make(chan struct{})
	var resp *backendResponse
	var err error
	go func() {
		defer close(done)
		resp, err = runRace(context.Background(), race{
			hedgeDelay: 10 * time.Millisecond, budget: 50 * time.Millisecond,
			timer: clk.timer, sink: ch.sink,
		}, p.up, s.up)
	}()
	<-p.started
	clk.fire(0) // hedge
	<-s.started
	close(p.release) // primary answers (20 dB), hedge still out
	// Whichever the race loop sees first — the primary's answer or the
	// budget — the delivery is the same: the usable primary, at the budget.
	clk.fire(1) // budget
	<-done
	if err != nil || resp == nil || resp.member != "a" {
		t.Fatalf("resp=%+v err=%v, want primary a delivered at budget", resp, err)
	}
	if !waitTrue(t, func() bool { return s.cancelled.Load() }) {
		t.Error("losing hedge was not cancelled after delivery")
	}
	if ch.cancels.Load() != 1 {
		t.Errorf("cancels=%d, want exactly 1", ch.cancels.Load())
	}
	if ch.wins.Load() != 1 || ch.winRole.Load().(string) != "primary" {
		t.Errorf("wins=%d role=%v, want one primary win", ch.wins.Load(), ch.winRole.Load())
	}
}

// TestRaceBudgetNeverEmptyHanded: the budget fires before anything usable
// arrived. The race must keep waiting and deliver the first usable answer —
// budget exhaustion degrades the answer, it never empties it.
func TestRaceBudgetNeverEmptyHanded(t *testing.T) {
	clk := newFakeClock(2)
	p := newScripted("a", "primary", ok("a", "primary", 15))
	s := newScripted("b", "hedge", ok("b", "hedge", 25))
	done := make(chan struct{})
	var resp *backendResponse
	var err error
	go func() {
		defer close(done)
		resp, err = runRace(context.Background(), race{
			hedgeDelay: 10 * time.Millisecond, budget: 50 * time.Millisecond,
			timer: clk.timer,
		}, p.up, s.up)
	}()
	<-p.started
	clk.fire(0) // hedge
	<-s.started
	clk.fire(1) // budget — nothing usable yet
	select {
	case <-done:
		t.Fatal("race returned empty-handed at budget expiry")
	case <-time.After(10 * time.Millisecond):
	}
	close(s.release) // first usable answer, after the budget
	<-done
	if err != nil || resp == nil || resp.member != "b" {
		t.Fatalf("resp=%+v err=%v, want the late hedge answer delivered", resp, err)
	}
}

// TestRacePrimaryFailureFailsOver: an unusable primary answer (backend
// rejected or errored) fails over to the secondary immediately, without
// waiting out the hedge delay, and is neither a hedge nor a hedge win.
func TestRacePrimaryFailureFailsOver(t *testing.T) {
	clk := newFakeClock(1)
	var ch counterSink
	p := newScripted("a", "primary", bad("a", "primary"))
	s := newScripted("b", "hedge", ok("b", "hedge", 25))
	close(p.release)
	close(s.release)
	resp, err := runRace(context.Background(), race{
		hedgeDelay: 10 * time.Millisecond, budget: 50 * time.Millisecond,
		timer: clk.timer, sink: ch.sink,
	}, p.up, s.up)
	if err != nil || resp.member != "b" {
		t.Fatalf("resp=%+v err=%v, want failover to b", resp, err)
	}
	if ch.hedges.Load() != 0 || ch.wins.Load() != 0 {
		t.Errorf("failover counted as a hedge: hedges=%d wins=%d", ch.hedges.Load(), ch.wins.Load())
	}
}

// TestRaceAllFail: every attempt unusable → ErrNoBackend, never a nil
// response with a nil error.
func TestRaceAllFail(t *testing.T) {
	clk := newFakeClock(1)
	p := newScripted("a", "primary", bad("a", "primary"))
	s := newScripted("b", "hedge", bad("b", "hedge"))
	close(p.release)
	close(s.release)
	resp, err := runRace(context.Background(), race{
		hedgeDelay: 10 * time.Millisecond, budget: 50 * time.Millisecond,
		timer: clk.timer,
	}, p.up, s.up)
	if !errors.Is(err, ErrNoBackend) || resp != nil {
		t.Fatalf("resp=%+v err=%v, want ErrNoBackend", resp, err)
	}
}

// TestRaceNoSecondary: a single-member fleet can't hedge; the primary's
// answer (or failure) is the outcome.
func TestRaceNoSecondary(t *testing.T) {
	p := newScripted("a", "primary", ok("a", "primary", 20))
	close(p.release)
	resp, err := runRace(context.Background(), race{hedgeDelay: time.Millisecond, budget: time.Millisecond}, p.up, nil)
	if err != nil || resp.member != "a" {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}

	p2 := newScripted("a", "primary", bad("a", "primary"))
	close(p2.release)
	if _, err := runRace(context.Background(), race{}, p2.up, nil); !errors.Is(err, ErrNoBackend) {
		t.Fatalf("err=%v, want ErrNoBackend", err)
	}
}

// TestRaceContextCancelPropagates: the client going away tears the race
// down and cancels every in-flight attempt.
func TestRaceContextCancelPropagates(t *testing.T) {
	testgate.Goroutines(t)
	clk := newFakeClock(2)
	ctx, cancel := context.WithCancel(context.Background())
	p := newScripted("a", "primary", ok("a", "primary", 20))
	s := newScripted("b", "hedge", ok("b", "hedge", 25))
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = runRace(ctx, race{hedgeDelay: 10 * time.Millisecond, budget: 50 * time.Millisecond, timer: clk.timer}, p.up, s.up)
	}()
	<-p.started
	clk.fire(0)
	<-s.started
	cancel()
	<-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if !waitTrue(t, func() bool { return p.cancelled.Load() && s.cancelled.Load() }) {
		t.Error("in-flight attempts not cancelled with the client context")
	}
}

// TestRaceNoBudgetFirstUsableWins: precise requests (no budget) deliver the
// first usable answer after a hedge instead of waiting for both.
func TestRaceNoBudgetFirstUsableWins(t *testing.T) {
	testgate.Goroutines(t)
	clk := newFakeClock(1) // hedge timer only: no budget timer must be requested
	p := newScripted("a", "primary", ok("a", "primary", 20))
	s := newScripted("b", "hedge", ok("b", "hedge", 25))
	done := make(chan struct{})
	var resp *backendResponse
	var err error
	go func() {
		defer close(done)
		resp, err = runRace(context.Background(), race{hedgeDelay: 10 * time.Millisecond, timer: clk.timer}, p.up, s.up)
	}()
	<-p.started
	clk.fire(0)
	<-s.started
	close(s.release) // hedge answers first
	<-done
	if err != nil || resp.member != "b" {
		t.Fatalf("resp=%+v err=%v, want first usable (b)", resp, err)
	}
	if !waitTrue(t, func() bool { return p.cancelled.Load() }) {
		t.Error("outstanding primary not cancelled after first-usable delivery")
	}
}

// TestRaceExactlyOnce sweeps every script of a hedged race: each attempt
// answers usable, unusable or final, and the primary's answer (P), the
// hedge timer (H), the secondary's answer (S) and the budget timer (B)
// come in every order, with a budget and without. Each event is fed only
// once the race has taken the one before — timers are unbuffered, and the
// race releases an attempt's context when it takes its answer — so the
// scripted order is the order the race sees. An event that cannot happen
// yet (S before the secondary launched) waits at the back of the line; one
// that can no longer happen (H after the primary answered, B with no
// budget armed) is dropped. 3×3 outcomes × 24 orders × 2 budgets is 432
// races, few enough to enumerate, so no interleaving is left to a random
// seed.
func TestRaceExactlyOnce(t *testing.T) {
	testgate.Goroutines(t)
	outcomes := []struct {
		name string
		resp func(member, role string) *backendResponse
	}{
		{"usable", func(m, r string) *backendResponse { return ok(m, r, 20) }},
		{"unusable", bad},
		{"final", func(m, r string) *backendResponse {
			resp := ok(m, r, 0)
			resp.final = true
			return resp
		}},
	}
	var orders []string
	var permute func(prefix, rest string)
	permute = func(prefix, rest string) {
		if rest == "" {
			orders = append(orders, prefix)
		}
		for i := range rest {
			permute(prefix+rest[i:i+1], rest[:i]+rest[i+1:])
		}
	}
	permute("", "PHSB")

	for _, budget := range []time.Duration{50 * time.Millisecond, 0} {
		for _, po := range outcomes {
			for _, so := range outcomes {
				for _, order := range orders {
					name := fmt.Sprintf("budget=%v/%s-%s/%s", budget, po.name, so.name, order)
					t.Run(name, func(t *testing.T) {
						raceScript(t, budget, po.resp("a", "primary"), so.resp("b", "hedge"), order)
					})
				}
			}
		}
	}
}

// raceScript runs one race of TestRaceExactlyOnce's sweep and checks the
// exactly-once invariants on what it delivered and reported.
func raceScript(t *testing.T, budget time.Duration, pResp, sResp *backendResponse, order string) {
	clk := &fakeClock{timers: []chan time.Time{make(chan time.Time), make(chan time.Time)}}
	var mu sync.Mutex
	var events []reqtrace.Event
	sink := func(e reqtrace.Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	p := newScripted("a", "primary", pResp)
	s := newScripted("b", "hedge", sResp)
	done := make(chan struct{})
	var resp *backendResponse
	var err error
	go func() {
		defer close(done)
		resp, err = runRace(context.Background(), race{
			hedgeDelay: 10 * time.Millisecond, budget: budget, timer: clk.timer, sink: sink,
		}, p.up, s.up)
	}()
	stuck := func(what string) { t.Fatalf("%s: race neither took %s nor returned", order, what) }
	// answer releases a launched attempt and waits for the race to take
	// its answer. The invariants below hold in any order, so a race that
	// kept the context open would only lose the ordering, after a pause.
	answer := func(a *scriptedUpstream) bool {
		var ctx context.Context
		select {
		case ctx = <-a.started:
		case <-done:
			return false
		case <-time.After(time.Second):
			stuck(a.up.role + "'s launch")
		}
		close(a.release)
		select {
		case <-ctx.Done():
		case <-done:
		case <-time.After(50 * time.Millisecond):
		}
		return true
	}
	fire := func(i int, what string) bool {
		select {
		case clk.timers[i] <- time.Time{}:
			return true
		case <-done:
			return false
		case <-time.After(time.Second):
			stuck(what)
		}
		return false
	}

	var pAnswered, sAnswered, hedgeFired, sWaited bool
	for line := []byte(order); len(line) > 0; line = line[1:] {
		switch line[0] {
		case 'P':
			pAnswered = answer(p)
		case 'H':
			if !pAnswered {
				hedgeFired = fire(0, "the hedge timer")
			}
		case 'B':
			if hedgeFired && budget > 0 {
				fire(1, "the budget timer")
			}
		case 'S':
			if hedgeFired || pAnswered && !pResp.usable() {
				sAnswered = answer(s)
			} else if !sWaited {
				sWaited = true
				line = append(line, 'S')
			}
		}
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("%s: race did not return once every event was fed", order)
	}

	// Exactly one outcome: a response or ErrNoBackend, never both or
	// neither.
	if (resp == nil) == (err == nil) || err != nil && !errors.Is(err, ErrNoBackend) {
		t.Fatalf("resp=%+v err=%v, want exactly one of a response and ErrNoBackend", resp, err)
	}
	// Every launched attempt answers in the script, so a usable answer
	// always arrives unless both are unusable — and then it must be
	// delivered.
	if want := pResp.usable() || sResp.usable(); (resp != nil) != want || resp != nil && !resp.usable() {
		t.Fatalf("resp=%+v err=%v, want a usable response: %v", resp, err, want)
	}
	mu.Lock()
	defer mu.Unlock()
	var fires int
	var wins, cancels []reqtrace.Event
	for _, e := range events {
		switch e.Kind {
		case reqtrace.KindHedgeFire:
			fires++
		case reqtrace.KindHedgeWin:
			wins = append(wins, e)
		case reqtrace.KindHedgeCancel:
			cancels = append(cancels, e)
		}
	}
	if fires != 0 && !hedgeFired || fires > 1 || hedgeFired && fires != 1 {
		t.Errorf("hedge.fire sent %d times, hedge timer taken: %v", fires, hedgeFired)
	}
	// At most one hedge.win, and one exactly when a hedged race delivered.
	if len(wins) > 1 || len(wins) == 1 && fires == 0 {
		t.Errorf("hedge.win %+v with %d hedge.fire", wins, fires)
	}
	if fires == 1 && resp != nil && (len(wins) != 1 || wins[0].Name != resp.member) {
		t.Errorf("hedged race delivered %s but credited %+v", resp.member, wins)
	}
	// At most one hedge.cancel, naming the attempt still in flight at the
	// delivery: the hedged race's loser, always when it never answered.
	loser, answered := "b", sAnswered
	if resp != nil && resp.member == "b" {
		loser, answered = "a", pAnswered
	}
	switch {
	case len(cancels) > 1 || len(cancels) == 1 && (fires == 0 || resp == nil || cancels[0].Name != loser):
		t.Errorf("hedge.cancel %+v, delivered %+v, loser %s", cancels, resp, loser)
	case fires == 1 && resp != nil && !answered && len(cancels) != 1:
		t.Errorf("loser %s never answered but was not cancelled: %+v", loser, cancels)
	}
}

// waitTrue polls cond for up to a second — only for effects that are
// asynchronous by nature (context cancellation reaching a goroutine).
func waitTrue(t *testing.T, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}
