package reqtrace

import (
	"context"
	"encoding/json"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilTraceSwallowsEverything: the disabled tracer is a nil pointer, and
// every method must be a safe no-op on it — the same discipline as
// core.Hooks. This is what lets instrumentation sites skip branching on
// configuration.
func TestNilTraceSwallowsEverything(t *testing.T) {
	var tr *Trace
	tr.QueueEnter(3)
	tr.QueueGrant(time.Millisecond)
	tr.QueueReject(32, 0)
	tr.PoolGet("p", true)
	tr.PoolPut("p", true)
	tr.RunStart(time.Second)
	tr.RunFinish("precise", true, time.Second)
	tr.Reset()
	tr.Publish("buf", 1, 64, false)
	tr.DeadlineFired(time.Second)
	tr.Deliver(1, true, false, 0, time.Second)
	tr.Error("boom")
	tr.Finish(200)
	if tr.ID() != "" || tr.Route() != "" || tr.Len() != 0 || tr.Done() {
		t.Errorf("nil trace leaked state: id=%q route=%q len=%d done=%v",
			tr.ID(), tr.Route(), tr.Len(), tr.Done())
	}
	if tr.Events() != nil || tr.Status() != 0 || tr.Elapsed() != 0 {
		t.Error("nil trace accessors returned non-zero values")
	}
	if tr.Category() != CategoryOK {
		t.Errorf("nil trace category = %v", tr.Category())
	}
}

// TestHelperReturnsWhatTheTraceHolds: a decision point reports with
// sink.Send(tr.X(...)), so the value a helper returns must be the event the
// trace recorded — and, on a nil trace, the event it would have recorded,
// so untraced requests still reach the sink. A nil Sink swallows the send.
func TestHelperReturnsWhatTheTraceHolds(t *testing.T) {
	_, tr := New(context.Background(), "blur")
	var seen []Event
	sink := Sink(func(e Event) { seen = append(seen, e) })
	sink.Send(tr.QueueGrant(3 * time.Millisecond))
	sink.Send(tr.RunFinish("stopped", false, time.Second))
	got := tr.Events()
	for i := range got {
		got[i].At = 0 // the offset is the trace's own; the sink's copy has none
	}
	if len(got) != 2 || got[0] != seen[0] || got[1] != seen[1] {
		t.Fatalf("sink saw %+v, trace holds %+v", seen, got)
	}
	var none *Trace
	if untraced := none.QueueGrant(3 * time.Millisecond); untraced != seen[0] {
		t.Fatalf("nil-trace helper built %+v, traced one %+v", untraced, seen[0])
	}
	tr.Finish(200)
	if e := tr.PoolPut("blur", true); e.Kind != KindPoolPut || tr.Len() != 2 {
		t.Fatalf("sealed trace: helper returned %+v, trace holds %d events", e, tr.Len())
	}
	Sink(nil).Send(seen[0]) // must not panic
}

func TestFromContextMissIsNil(t *testing.T) {
	if tr := FromContext(context.Background()); tr != nil {
		t.Fatalf("bare context yielded trace %v", tr)
	}
}

func TestNewBindsTraceIntoContext(t *testing.T) {
	ctx, tr := New(context.Background(), "blur")
	if tr == nil {
		t.Fatal("New returned nil trace")
	}
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext = %p, want %p", got, tr)
	}
	if tr.Route() != "blur" {
		t.Fatalf("route = %q", tr.Route())
	}
}

// TestIDsAreTraceparentStyleAndUnique: 32 lowercase hex chars, unique per
// trace within the process.
func TestIDsAreTraceparentStyleAndUnique(t *testing.T) {
	idRE := regexp.MustCompile(`^[0-9a-f]{32}$`)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		_, tr := New(context.Background(), "r")
		id := tr.ID()
		if !idRE.MatchString(id) {
			t.Fatalf("id %q is not 32 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestEventsCarryMonotonicOffsets(t *testing.T) {
	_, tr := New(context.Background(), "r")
	tr.QueueGrant(0)
	tr.Publish("buf", 1, 10, false)
	tr.Publish("buf", 2, 10, true)
	tr.Finish(200)
	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].At < ev[i-1].At {
			t.Fatalf("event %d offset %v precedes event %d offset %v", i, ev[i].At, i-1, ev[i-1].At)
		}
	}
	if tr.Elapsed() < ev[len(ev)-1].At {
		t.Fatalf("sealed elapsed %v precedes last event %v", tr.Elapsed(), ev[2].At)
	}
}

// TestFinishSealsTrace: Finish fixes status and elapsed, drops later events,
// and is idempotent — a recorded trace is immutable no matter what late
// instrumentation still fires.
func TestFinishSealsTrace(t *testing.T) {
	_, tr := New(context.Background(), "r")
	tr.Publish("buf", 1, 10, false)
	tr.Finish(200)
	if !tr.Done() || tr.Status() != 200 {
		t.Fatalf("done=%v status=%d", tr.Done(), tr.Status())
	}
	sealed := tr.Elapsed()
	tr.Publish("buf", 2, 10, true) // late publish from a pooled observer
	tr.Error("late")
	tr.Finish(500) // second Finish must not reopen or reclassify
	if tr.Len() != 1 || tr.Status() != 200 || tr.Elapsed() != sealed {
		t.Fatalf("seal broken: len=%d status=%d elapsed=%v (want 1, 200, %v)",
			tr.Len(), tr.Status(), tr.Elapsed(), sealed)
	}
	if tr.Category() != CategoryOK {
		t.Fatalf("late error reclassified trace to %v", tr.Category())
	}
}

// TestCategoryPriority: classification folds in as events arrive and
// resolves by severity — error > rejected > deadline-miss > ok.
func TestCategoryPriority(t *testing.T) {
	build := func(events func(*Trace), status int) Category {
		_, tr := New(context.Background(), "r")
		events(tr)
		tr.Finish(status)
		return tr.Category()
	}
	cases := []struct {
		name   string
		events func(*Trace)
		status int
		want   Category
	}{
		{"plain ok", func(tr *Trace) { tr.Deliver(3, true, false, 0, time.Millisecond) }, 200, CategoryOK},
		{"deadline miss", func(tr *Trace) { tr.DeadlineFired(time.Millisecond) }, 200, CategoryDeadlineMiss},
		{"rejected beats deadline", func(tr *Trace) {
			tr.DeadlineFired(time.Millisecond)
			tr.QueueReject(32, 0)
		}, 503, CategoryRejected},
		{"error beats all", func(tr *Trace) {
			tr.QueueReject(32, 0)
			tr.Error("boom")
		}, 503, CategoryError},
		{"5xx status alone is an error", func(tr *Trace) {}, 500, CategoryError},
	}
	for _, tc := range cases {
		if got := build(tc.events, tc.status); got != tc.want {
			t.Errorf("%s: category = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestEventsReturnsACopy(t *testing.T) {
	_, tr := New(context.Background(), "r")
	tr.Publish("buf", 1, 10, false)
	ev := tr.Events()
	ev[0].Name = "mutated"
	if tr.Events()[0].Name != "buf" {
		t.Fatal("Events exposed internal storage")
	}
}

// TestTraceConcurrentAppends: the request goroutine and stage goroutines
// (reporting through a Slot) append concurrently; the race detector plus an
// exact final count prove the serialization.
func TestTraceConcurrentAppends(t *testing.T) {
	_, tr := New(context.Background(), "r")
	const goroutines, per = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Publish("buf", uint64(g*per+i), 8, false)
			}
		}(g)
	}
	wg.Wait()
	tr.Finish(200)
	if tr.Len() != goroutines*per {
		t.Fatalf("recorded %d events, want %d", tr.Len(), goroutines*per)
	}
}

func TestKindAndCategoryNames(t *testing.T) {
	kinds := []Kind{KindQueueEnter, KindQueueGrant, KindQueueReject,
		KindPoolGet, KindPoolPut, KindRunStart, KindRunFinish, KindReset,
		KindPublish, KindDeadline, KindDeliver, KindError}
	for _, k := range kinds {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	cats := []Category{CategoryOK, CategorySlow,
		CategoryDeadlineMiss, CategoryRejected, CategoryError}
	for _, c := range cats {
		if strings.HasPrefix(c.String(), "category(") {
			t.Errorf("category %d has no name", c)
		}
	}
}

// TestTraceJSONRoundTrips: the View marshals with named kinds/categories and
// ns offsets — the machine contract of /debug/requests.json.
func TestTraceJSONRoundTrips(t *testing.T) {
	_, tr := New(context.Background(), "blur")
	tr.QueueGrant(0)
	tr.Publish("out", 1, 64, false)
	tr.Deliver(1, false, true, 21.5, time.Millisecond)
	tr.Finish(200)
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		ID       string `json:"id"`
		Route    string `json:"route"`
		Category string `json:"category"`
		Status   int    `json:"status"`
		Events   []struct {
			Kind string `json:"kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, raw)
	}
	if v.ID != tr.ID() || v.Route != "blur" || v.Category != "ok" || v.Status != 200 {
		t.Fatalf("view = %+v", v)
	}
	if len(v.Events) != 3 || v.Events[0].Kind != "queue.grant" || v.Events[1].Kind != "publish" || v.Events[2].Kind != "deliver" {
		t.Fatalf("events = %+v", v.Events)
	}
}
