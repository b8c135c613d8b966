package reqtrace

import (
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
// span with its offset plus the publish timeline in internal/trace's ASCII
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
