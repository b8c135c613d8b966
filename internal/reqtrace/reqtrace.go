// Package reqtrace is request-scoped tracing for the serving path: one
// Trace per request, recording the request's whole life — admission queue
// enter/grant/reject, pool checkout/check-in, automaton run
// start/finish/reset, every buffer publish, deadline firing, and delivery —
// as spans with monotonic timestamps. Where internal/telemetry aggregates
// (how are requests doing?), reqtrace answers the per-request question: why
// did *this* request queue for 12ms, which pool entry did it get, which
// versions published before its deadline fired, and what snapshot was it
// finally handed.
//
// Every method is safe on a nil receiver and the disabled fast path — a
// nil *Trace, a nil Sink, an unbound Slot, a context without a trace —
// costs a pointer check (or one atomic load) and zero allocations, so
// instrumentation points stay in place permanently.
//
// An Event is also the only thing a serving-path decision point emits: the
// serving layers (internal/serve, internal/cluster) report each decision
// with one statement, sink.Send(tr.QueueGrant(wait)) — the helper appends
// the event to the request's trace and returns it, and Send hands that same
// value to the process-level Sink internal/telemetry turns into /metrics,
// so the trace and the metrics cannot disagree.
//
// Traces propagate by context (NewContext/FromContext), so the serving
// layers pick them up without new dependencies on the caller. When the Go
// execution tracer is running, each Trace additionally
// opens a runtime/trace task, letting `go tool trace` show requests against
// the scheduler; serve's queue-wait and run phases become regions inside
// it.
//
// Completed traces are retained by a Recorder — an always-on bounded flight
// recorder with category sampling: errors, rejections, deadline misses
// and the slowest-N are always kept; sampled-out successes
// are only counted. cmd/anytimed exposes the recorder at /debug/requests.
package reqtrace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	rtrace "runtime/trace"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies the instrumentation point an Event was recorded at.
type Kind uint8

const (
	// KindQueueEnter: the request started waiting for an execution slot.
	// N is the queue depth including it.
	KindQueueEnter Kind = iota + 1
	// KindQueueGrant: the request obtained a slot. Dur is the time spent
	// waiting (zero on the uncontended fast path).
	KindQueueGrant
	// KindQueueReject: admission control turned the request away. N is the
	// number of requests it found waiting; Dur is their projected wait when
	// that wait, not the queue's capacity, refused it (zero otherwise).
	KindQueueReject
	// KindPoolGet: an automaton was checked out. Name is the pool, Flag
	// reports a warm (reused) entry.
	KindPoolGet
	// KindPoolPut: the automaton was checked back in. Name is the pool,
	// Flag reports whether the entry was retained for reuse.
	KindPoolPut
	// KindRunStart: the automaton started. Dur is the (effective) deadline
	// it runs under, zero for run-to-precise.
	KindRunStart
	// KindRunFinish: the automaton finished or was stopped and its newest
	// snapshot was handed to the caller. Note is the outcome (precise |
	// stopped | failed), Dur the run's wall time, Flag whether that
	// snapshot is the final (precise) output.
	KindRunFinish
	// KindReset: the automaton's per-run state was rewound for the next
	// checkout (the warm-pool discipline).
	KindReset
	// KindPublish: a buffer published a snapshot. Name is the buffer,
	// Version its version, N the snapshot's payload bytes, Flag whether it
	// is the final (precise) output.
	KindPublish
	// KindDeadline: the request's deadline fired while the automaton was
	// still running. Dur is the deadline that fired.
	KindDeadline
	// KindDeliver: a snapshot was delivered. Version/Flag describe the
	// snapshot (Flag = final), Val its SNR in dB when the caller measured
	// one (0 otherwise), Dur the elapsed run time, Note "interrupted" when
	// the run was cut short. On the router Name is the serving member, Note
	// "hedged" when the hedge attempt supplied it, Dur the router-side
	// elapsed time.
	KindDeliver
	// KindError: the request failed. Note is the error text.
	KindError
	// KindRoute: the router picked a backend off the consistent-hash ring.
	// Name is the member, Note the ring key (app|digest), N the attempt
	// rank on the ring (0 = primary owner).
	KindRoute
	// KindBudget: the router computed the request's remaining deadline
	// budget. Dur is the budget granted downstream, Flag reports that the
	// budget floored at zero (the request is delivered best-effort).
	KindBudget
	// KindForward: a proxied request left for a backend. Name is the
	// member, Note the role (primary | hedge).
	KindForward
	// KindForwardDone: a proxied request returned. Name is the member,
	// Note the role, Dur the observed RTT, Flag whether the response was
	// usable (2xx with a snapshot).
	KindForwardDone
	// KindHedgeFire: the hedge delay elapsed with the primary still
	// outstanding; a secondary request was issued. Dur is the delay that
	// fired.
	KindHedgeFire
	// KindHedgeCancel: the race was decided and the losing in-flight
	// request was cancelled. Name is the cancelled member, Note its role.
	KindHedgeCancel
	// KindHedgeWin: a race that launched both attempts was resolved. Name
	// is the winning member, Note its role.
	KindHedgeWin
	// KindMemberState: a backend changed health state. Name is the member,
	// Note the new state (healthy | draining | down). It belongs to no
	// request, so only the Sink sees it.
	KindMemberState
)

var kindNames = [...]string{
	KindQueueEnter:  "queue.enter",
	KindQueueGrant:  "queue.grant",
	KindQueueReject: "queue.reject",
	KindPoolGet:     "pool.get",
	KindPoolPut:     "pool.put",
	KindRunStart:    "run.start",
	KindRunFinish:   "run.finish",
	KindReset:       "reset",
	KindPublish:     "publish",
	KindDeadline:    "deadline",
	KindDeliver:     "deliver",
	KindError:       "error",
	KindRoute:       "route.pick",
	KindBudget:      "budget",
	KindForward:     "forward",
	KindForwardDone: "forward.done",
	KindHedgeFire:   "hedge.fire",
	KindHedgeCancel: "hedge.cancel",
	KindHedgeWin:    "hedge.win",
	KindMemberState: "member.state",
}

// String returns the kind's stable wire name (also used in JSON).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText renders the kind by name, so JSON traces read without a
// decoder ring.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one span point in a request's life. At is the monotonic offset
// from the trace's start; the remaining fields are kind-specific (see the
// Kind constants for which mean what).
type Event struct {
	Kind    Kind          `json:"kind"`
	At      time.Duration `json:"at_ns"`
	Name    string        `json:"name,omitempty"`    // pool, buffer
	Version uint64        `json:"version,omitempty"` // snapshot version
	N       int           `json:"n,omitempty"`       // queue depth, payload bytes
	Dur     time.Duration `json:"dur_ns,omitempty"`  // wait, deadline, run time
	Val     float64       `json:"val,omitempty"`     // SNR dB
	Flag    bool          `json:"flag,omitempty"`    // warm, retained, final, delta
	Note    string        `json:"note,omitempty"`    // outcome, error text, digest
}

// Category classifies a completed trace for the flight recorder's retention
// policy and the exemplar counters.
type Category uint8

const (
	// CategoryOK: delivered within contract, nothing noteworthy.
	CategoryOK Category = iota
	// CategorySlow: an OK trace retained for being among the slowest seen.
	CategorySlow
	// CategoryDeadlineMiss: the deadline fired before the precise output —
	// an approximate snapshot was delivered.
	CategoryDeadlineMiss
	// CategoryRejected: admission control turned the request away.
	CategoryRejected
	// CategoryError: the request failed (stage error, no output, 5xx).
	CategoryError
)

var categoryNames = [...]string{
	CategoryOK:           "ok",
	CategorySlow:         "slow",
	CategoryDeadlineMiss: "deadline-miss",
	CategoryRejected:     "rejected",
	CategoryError:        "error",
}

// String returns the category's stable name (also the metrics label value,
// with '-' as-is).
func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("category(%d)", uint8(c))
}

// MarshalText renders the category by name.
func (c Category) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// Trace is one request's recorded life. A nil *Trace is the disabled
// tracer: every method is a no-op costing one pointer check, so
// instrumentation sites never branch on configuration themselves.
//
// Events may be appended from several goroutines at once (the request
// goroutine and the publishing stage goroutines reporting through a Slot);
// appends are serialized by a mutex that is uncontended in the common case.
// After Finish the trace is sealed and immutable: late events are dropped,
// and readers handed the trace by a Recorder can render it without
// synchronizing with the (long gone) request.
type Trace struct {
	id    string
	route string
	start time.Time // wall + monotonic; At offsets use the monotonic part

	task *rtrace.Task // execution-tracer bridge; nil unless it was running

	mu     sync.Mutex
	events []Event
	done   bool

	// classification flags, folded in as events arrive
	rejected bool
	deadline bool
	errored  bool

	// sealed at Finish
	elapsed time.Duration
	status  int
}

// idPrefix and idCounter generate traceparent-style request IDs (32 hex
// chars) without a per-request random read: 8 random bytes fixed at process
// start, then a process-wide counter.
var (
	idPrefix  [8]byte
	idCounter atomic.Uint64
	idOnce    sync.Once
)

func newID() string {
	idOnce.Do(func() {
		if _, err := rand.Read(idPrefix[:]); err != nil {
			// Degrade to time-seeded: IDs stay unique per process.
			now := uint64(time.Now().UnixNano())
			for i := range idPrefix {
				idPrefix[i] = byte(now >> (8 * i))
			}
		}
	})
	var b [16]byte
	copy(b[:8], idPrefix[:])
	n := idCounter.Add(1)
	for i := 0; i < 8; i++ {
		b[8+i] = byte(n >> (56 - 8*i))
	}
	return hex.EncodeToString(b[:])
}

// New returns a fresh trace for one request on the given route, bound into
// the returned context for the serving layers to find. When the Go
// execution tracer is running, the trace opens a runtime/trace task named
// "anytime.request" (ended at Finish) so `go tool trace`'s user-task view
// groups the request's regions and goroutines.
func New(ctx context.Context, route string) (context.Context, *Trace) {
	t := &Trace{
		id:     newID(),
		route:  route,
		start:  time.Now(),
		events: make([]Event, 0, 16),
	}
	if rtrace.IsEnabled() {
		ctx, t.task = rtrace.NewTask(ctx, "anytime.request")
		rtrace.Log(ctx, "anytime.trace", t.id)
	}
	return NewContext(ctx, t), t
}

// ctxKey is the private context key for the bound trace.
type ctxKey struct{}

// NewContext returns ctx carrying t.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace bound to ctx, or nil — and a nil *Trace
// swallows every call, so callers need not branch.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// ID returns the trace's request ID (32 hex chars, traceparent-style).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Route returns the route label the trace was created for.
func (t *Trace) Route() string {
	if t == nil {
		return ""
	}
	return t.route
}

// Start returns the trace's wall-clock start time.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Sink receives every decision the serving path reports, traced request or
// not: the process-level observer internal/telemetry binds to the metrics
// registry. Sinks run synchronously on the goroutine that made the decision
// and must not block; the events they see carry no At (that offset belongs
// to the trace's copy).
type Sink func(Event)

// Send hands e to the sink; a nil Sink is the disabled observer.
func (s Sink) Send(e Event) {
	if s != nil {
		s(e)
	}
}

// Add appends one event, stamping it with the monotonic offset from the
// trace's start. Nil traces and sealed traces drop the event.
func (t *Trace) Add(e Event) {
	if t == nil {
		return
	}
	e.At = time.Since(t.start)
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	switch e.Kind {
	case KindQueueReject:
		t.rejected = true
	case KindDeadline:
		t.deadline = true
	case KindError:
		t.errored = true
	}
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// report is Add for the decisions a Sink also observes: it hands e back so
// the site reports once, sink.Send(tr.QueueGrant(wait)). A nil or sealed
// trace still returns the event it would have recorded.
func (t *Trace) report(e Event) Event {
	t.Add(e)
	return e
}

// Instrumentation-point helpers: one per serving-path site, all nil-safe
// through Add.

// QueueEnter records the request starting to wait at the given depth.
func (t *Trace) QueueEnter(depth int) Event { return t.report(Event{Kind: KindQueueEnter, N: depth}) }

// QueueGrant records the request obtaining a slot after wait.
func (t *Trace) QueueGrant(wait time.Duration) Event {
	return t.report(Event{Kind: KindQueueGrant, Dur: wait})
}

// QueueReject records admission control turning the request away with
// depth requests waiting ahead of it: at capacity, or (projected > 0)
// projected to hold the slots past the request's budget.
func (t *Trace) QueueReject(depth int, projected time.Duration) Event {
	return t.report(Event{Kind: KindQueueReject, N: depth, Dur: projected})
}

// PoolGet records an automaton checkout from pool (warm = reused idle
// entry).
func (t *Trace) PoolGet(pool string, warm bool) Event {
	return t.report(Event{Kind: KindPoolGet, Name: pool, Flag: warm})
}

// PoolPut records the automaton's check-in (retained = kept for reuse).
func (t *Trace) PoolPut(pool string, retained bool) Event {
	return t.report(Event{Kind: KindPoolPut, Name: pool, Flag: retained})
}

// RunStart records the automaton starting under deadline (zero =
// run-to-precise).
func (t *Trace) RunStart(deadline time.Duration) { t.Add(Event{Kind: KindRunStart, Dur: deadline}) }

// RunFinish records the run ending with the given outcome label after
// elapsed and handing over its newest snapshot; final reports whether that
// is the precise output.
func (t *Trace) RunFinish(outcome string, final bool, elapsed time.Duration) Event {
	return t.report(Event{Kind: KindRunFinish, Note: outcome, Flag: final, Dur: elapsed})
}

// Reset records the automaton's per-run state being rewound.
func (t *Trace) Reset() { t.Add(Event{Kind: KindReset}) }

// Publish records one buffer publish: version, payload bytes, finality.
func (t *Trace) Publish(buffer string, version uint64, bytes int, final bool) {
	t.Add(Event{Kind: KindPublish, Name: buffer, Version: version, N: bytes, Flag: final})
}

// DeadlineFired records the request's deadline firing mid-run.
func (t *Trace) DeadlineFired(deadline time.Duration) {
	t.Add(Event{Kind: KindDeadline, Dur: deadline})
}

// Deliver records the delivered snapshot: its version, finality,
// interruption, measured SNR in dB (0 when unmeasured), and run time.
func (t *Trace) Deliver(version uint64, final, interrupted bool, snrDB float64, elapsed time.Duration) {
	e := Event{Kind: KindDeliver, Version: version, Flag: final, Val: snrDB, Dur: elapsed}
	if interrupted {
		e.Note = "interrupted"
	}
	t.Add(e)
}

// RouterDeliver records the router relaying member's snapshot (its version
// and finality) after elapsed; hedged reports that the hedge attempt
// supplied it. The SNR stays in the backend's own trace.
func (t *Trace) RouterDeliver(member string, hedged bool, version uint64, final bool, elapsed time.Duration) Event {
	e := Event{Kind: KindDeliver, Name: member, Version: version, Flag: final, Dur: elapsed}
	if hedged {
		e.Note = "hedged"
	}
	return t.report(e)
}

// Error records a request failure.
func (t *Trace) Error(note string) { t.Add(Event{Kind: KindError, Note: note}) }

// Router-tier helpers: the cross-node spans cmd/anytimerouter records so a
// single request's timeline spans the fleet (see internal/cluster).

// RoutePick records the ring pick: member will serve key as the rank-th
// choice (0 = primary owner).
func (t *Trace) RoutePick(member, key string, rank int) {
	t.Add(Event{Kind: KindRoute, Name: member, Note: key, N: rank})
}

// Budget records the remaining deadline budget granted downstream; floored
// reports the budget hit zero (best-effort delivery).
func (t *Trace) Budget(budget time.Duration, floored bool) Event {
	return t.report(Event{Kind: KindBudget, Dur: budget, Flag: floored})
}

// Forward records a proxied request leaving for member in the given role
// (primary | hedge).
func (t *Trace) Forward(member, role string) Event {
	return t.report(Event{Kind: KindForward, Name: member, Note: role})
}

// ForwardDone records a proxied request returning after rtt; usable
// reports whether the response carried a deliverable snapshot.
func (t *Trace) ForwardDone(member, role string, rtt time.Duration, usable bool) Event {
	return t.report(Event{Kind: KindForwardDone, Name: member, Note: role, Dur: rtt, Flag: usable})
}

// HedgeFire records the hedge delay elapsing with the primary outstanding.
func (t *Trace) HedgeFire(delay time.Duration) Event {
	return t.report(Event{Kind: KindHedgeFire, Dur: delay})
}

// HedgeWin records member, forwarded to in the given role, winning a race
// whose hedge timer fired.
func (t *Trace) HedgeWin(member, role string) Event {
	return t.report(Event{Kind: KindHedgeWin, Name: member, Note: role})
}

// HedgeCancel records the losing in-flight request being cancelled.
func (t *Trace) HedgeCancel(member, role string) Event {
	return t.report(Event{Kind: KindHedgeCancel, Name: member, Note: role})
}

// Finish seals the trace with the response status, fixing its elapsed time
// and category; further Adds are dropped. It also ends the runtime/trace
// task when one was opened. Finish is idempotent.
func (t *Trace) Finish(status int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		t.done = true
		t.elapsed = time.Since(t.start)
		t.status = status
		// A 5xx seals the trace as errored — unless admission control
		// rejected it, which is the runtime working as designed (and has its
		// own always-retained category), not a failure.
		if status >= 500 && !t.rejected {
			t.errored = true
		}
	}
	task := t.task
	t.task = nil
	t.mu.Unlock()
	if task != nil {
		task.End()
	}
}

// Done reports whether the trace has been sealed by Finish.
func (t *Trace) Done() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// Elapsed returns the sealed trace's total wall time (request arrival to
// Finish), or the running elapsed time if not yet sealed.
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return t.elapsed
	}
	return time.Since(t.start)
}

// Status returns the HTTP-ish status Finish sealed the trace with (0 until
// sealed).
func (t *Trace) Status() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// Category classifies the trace. Priority: error > rejected >
// deadline-miss > ok. (Slow is assigned by the Recorder, which
// knows the distribution.)
func (t *Trace) Category() Category {
	if t == nil {
		return CategoryOK
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.categoryLocked()
}

func (t *Trace) categoryLocked() Category {
	switch {
	case t.errored:
		return CategoryError
	case t.rejected:
		return CategoryRejected
	case t.deadline:
		return CategoryDeadlineMiss
	default:
		return CategoryOK
	}
}

// Events returns a copy of the recorded events in arrival order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}
