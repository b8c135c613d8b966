package reqtrace

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// fullTrace builds a sealed trace exercising every span the serving path
// records.
func fullTrace(t *testing.T) *Trace {
	t.Helper()
	_, tr := New(context.Background(), "blur")
	tr.QueueEnter(3)
	tr.QueueGrant(2 * time.Millisecond)
	tr.PoolGet("blur", true)
	tr.RunStart(75 * time.Millisecond)
	tr.Publish("out", 1, 65536, false)
	tr.Publish("out", 2, 65536, false)
	tr.DeadlineFired(75 * time.Millisecond)
	tr.Deliver(2, false, true, 21.5, 76*time.Millisecond)
	tr.PoolPut("blur", true)
	tr.Finish(200)
	return tr
}

func TestWriteListRendersSummaryRows(t *testing.T) {
	tr := fullTrace(t)
	rejected := func() *Trace {
		_, r := New(context.Background(), "cluster")
		r.QueueReject(2, 30*time.Millisecond)
		r.Finish(503)
		return r
	}()
	var b strings.Builder
	if err := WriteList(&b, []*Trace{tr, rejected}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"ID", "CATEGORY", "DELIVERED", // header
		tr.ID(), "deadline-miss", "blur", "v2 21.5dB",
		rejected.ID(), "rejected", "cluster", "503",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteListEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteList(&b, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no traces") {
		t.Fatalf("empty list output %q", b.String())
	}
}

// TestWriteDetailRendersSpansAndTimeline: the per-trace view shows every
// span with its offset plus the publish timeline in WriteTimeline's ASCII
// layout ('·' per version, '#' for the final).
func TestWriteDetailRendersSpansAndTimeline(t *testing.T) {
	tr := fullTrace(t)
	var b strings.Builder
	if err := tr.WriteDetail(&b, 40); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"trace " + tr.ID(),
		"route=blur", "category=deadline-miss", "status=200",
		"queue.enter depth=3",
		"queue.grant wait=2ms",
		"pool.get pool=blur warm=true",
		"run.start deadline=75ms",
		"publish buffer=out v1 bytes=65536",
		"deadline fired after=75ms",
		"deliver v2 final=false", "snr=21.5dB", "interrupted",
		"pool.put pool=blur retained=true",
		"publish ", // the timeline block
		"·",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("detail output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDetailNilTrace(t *testing.T) {
	var tr *Trace
	var b strings.Builder
	if err := tr.WriteDetail(&b, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no trace") {
		t.Fatalf("nil detail output %q", b.String())
	}
}

// publishTrace returns a trace holding the given events as recorded, so a
// rendering test controls every offset.
func publishTrace(events ...Event) *Trace {
	_, tr := New(context.Background(), "timeline")
	tr.events = append(tr.events, events...)
	return tr
}

func pub(buffer string, at time.Duration, version uint64, final bool) Event {
	return Event{Kind: KindPublish, Name: buffer, At: at, Version: version, Flag: final}
}

func timeline(t *testing.T, tr *Trace, width int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteTimeline(&buf, width); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTimelineRendering: one row per buffer, ordered by first publish,
// one mark per publish, and only publishes drawn.
func TestTimelineRendering(t *testing.T) {
	tr := publishTrace(
		Event{Kind: KindRunStart, At: 0},
		pub("g", 25*time.Millisecond, 1, false),
		pub("f", 0, 1, false),
		pub("f", 50*time.Millisecond, 2, true),
		pub("g", 100*time.Millisecond, 2, true),
		Event{Kind: KindRunFinish, At: 200 * time.Millisecond, Note: "precise"},
	)
	out := timeline(t, tr, 40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline lines: %q", out)
	}
	if !strings.Contains(lines[0], "100ms") {
		t.Errorf("axis does not end at the last publish: %q", lines[0])
	}
	if !strings.HasPrefix(strings.TrimSpace(lines[1]), "f ") || !strings.HasPrefix(strings.TrimSpace(lines[2]), "g ") {
		t.Errorf("rows not ordered by first publish:\n%s", out)
	}
	rows := strings.Join(lines[1:], "\n") // skip the legend line
	if strings.Count(rows, "#") != 2 || strings.Count(rows, "·") != 2 {
		t.Errorf("want 2 final and 2 intermediate marks:\n%s", out)
	}
	// g's final mark is the latest publish: the right edge.
	if !strings.HasSuffix(strings.TrimRight(lines[2], "|"), "#") {
		t.Errorf("g's final not at the right edge: %q", lines[2])
	}
}

// TestTimelineFinalWinsCollision: two publishes landing in one cell draw
// '#' when either is final, whichever came last.
func TestTimelineFinalWinsCollision(t *testing.T) {
	tr := publishTrace(
		pub("x", 0, 1, false),
		pub("x", time.Second, 2, true),
		pub("y", time.Second, 1, true),
		pub("y", time.Second, 2, false),
	)
	out := timeline(t, tr, 10)
	rows := out[strings.Index(out, "\n"):] // skip the legend line
	if strings.Count(rows, "#") != 2 || strings.Count(rows, "·") != 1 {
		t.Errorf("final marks lost a collision:\n%s", out)
	}
}

func TestTimelineEmpty(t *testing.T) {
	for _, tr := range []*Trace{publishTrace(), publishTrace(Event{Kind: KindRunStart}), nil} {
		if out := timeline(t, tr, 40); !strings.Contains(out, "no events") {
			t.Errorf("empty timeline = %q", out)
		}
	}
}

func TestTimelineNarrowWidthClamped(t *testing.T) {
	out := timeline(t, publishTrace(pub("x", time.Millisecond, 1, true)), 1)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], "|         #|") {
		t.Errorf("width 1 not clamped to 10 cells:\n%s", out)
	}
}

// TestTimelineLabelWiderThanWidth: a buffer name longer than the requested
// width must not corrupt the layout — the name column sizes independently
// of the time axis.
func TestTimelineLabelWiderThanWidth(t *testing.T) {
	const name = "a-buffer-name-much-wider-than-the-axis"
	out := timeline(t, publishTrace(pub(name, time.Millisecond, 1, true)), len(name)/2)
	if !strings.Contains(out, "  "+name+" |") || !strings.Contains(out, "#|") {
		t.Errorf("timeline lost the label or the event: %q", out)
	}
}
