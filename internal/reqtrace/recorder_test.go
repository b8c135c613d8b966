package reqtrace

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"
)

// finished builds a sealed trace of the given shape for recorder tests.
func finished(t *testing.T, route string, status int, events func(*Trace)) *Trace {
	t.Helper()
	_, tr := New(context.Background(), route)
	if events != nil {
		events(tr)
	}
	tr.Finish(status)
	return tr
}

// rankFull fills r's slow rank list with hour-long entries, so no trace a
// test records ranks as slow and the sampler alone decides on OK traces.
func rankFull(r *Recorder) {
	r.slow = slices.Repeat([]time.Duration{time.Hour}, slowTraces)
}

func TestRecorderValidation(t *testing.T) {
	if _, err := NewRecorder(RecorderConfig{Size: -1}); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := NewRecorder(RecorderConfig{SampleEvery: -1}); err == nil {
		t.Error("negative sample accepted")
	}
	r, err := NewRecorder(RecorderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 256 || r.SampleEvery() != 16 {
		t.Fatalf("defaults = size %d, sample %d", r.Size(), r.SampleEvery())
	}
}

// TestRecorderRefusesUnsealedTraces: retaining a mutable trace would let
// /debug/requests readers race the request's writers, so Record demands
// Finish first.
func TestRecorderRefusesUnsealedTraces(t *testing.T) {
	r, err := NewRecorder(RecorderConfig{Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, tr := New(context.Background(), "r")
	if _, kept := r.Record(tr); kept {
		t.Fatal("unsealed trace retained")
	}
	if _, kept := r.Record(nil); kept {
		t.Fatal("nil trace retained")
	}
	if st := r.Stats(); st.Held != 0 || st.Recorded != 0 {
		t.Fatalf("stats %+v after refused records", st)
	}
}

// TestRecorderAlwaysKeepsInterestingCategories: errors, rejections,
// and deadline misses bypass sampling entirely.
func TestRecorderAlwaysKeepsInterestingCategories(t *testing.T) {
	r, err := NewRecorder(RecorderConfig{Size: 64, SampleEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	rankFull(r)
	shapes := []struct {
		events func(*Trace)
		status int
		want   Category
	}{
		{func(tr *Trace) { tr.Error("boom") }, 500, CategoryError},
		{func(tr *Trace) { tr.QueueReject(32, 0) }, 503, CategoryRejected},
		{func(tr *Trace) { tr.DeadlineFired(time.Millisecond) }, 200, CategoryDeadlineMiss},
	}
	for _, sh := range shapes {
		cat, kept := r.Record(finished(t, "r", sh.status, sh.events))
		if !kept || cat != sh.want {
			t.Errorf("category %v: kept=%v cat=%v", sh.want, kept, cat)
		}
	}
	// With sampling effectively off, an OK trace is dropped...
	if _, kept := r.Record(finished(t, "r", 200, nil)); kept {
		t.Error("OK trace retained despite sampling")
	}
	// ...but counted.
	st := r.Stats()
	if st.Held != 3 || st.SampledOut != 1 {
		t.Fatalf("stats %+v, want 3 held / 1 sampled out", st)
	}
	for _, sh := range shapes {
		if st.ByCategory[sh.want.String()] != 1 {
			t.Errorf("stats file %d traces under %v, want 1", st.ByCategory[sh.want.String()], sh.want)
		}
	}
}

// TestRecorderSamplesOKTraces: exactly one in SampleEvery unremarkable
// successes is retained; the rest are counted as sampled out.
func TestRecorderSamplesOKTraces(t *testing.T) {
	r, err := NewRecorder(RecorderConfig{Size: 64, SampleEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	rankFull(r)
	kept := 0
	for i := 0; i < 16; i++ {
		if _, ok := r.Record(finished(t, "r", 200, nil)); ok {
			kept++
		}
	}
	st := r.Stats()
	if kept != 4 || st.SampledOut != 12 {
		t.Fatalf("kept %d / sampled out %d of 16 at 1-in-4", kept, st.SampledOut)
	}
	if st.ByCategory["sampled"] != 4 || len(st.ByCategory) != 1 {
		t.Errorf("retained OK traces filed as %v, want only sampled: 4", st.ByCategory)
	}
}

// TestRecorderKeepsSlowestN: the slowest OK traces bypass sampling under
// the "slow" label, and the rank list tightens as slower traces arrive.
func TestRecorderKeepsSlowestN(t *testing.T) {
	r, err := NewRecorder(RecorderConfig{Size: 64, SampleEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(elapsed time.Duration) *Trace {
		_, tr := New(context.Background(), "r")
		tr.Finish(200)
		tr.elapsed = elapsed // backdate: elapsed drives the slow rank
		return tr
	}
	// The first slowTraces fill the rank list regardless of speed: 1ms,
	// 2ms, and so on.
	for i := 1; i <= slowTraces; i++ {
		if cat, kept := r.Record(mk(time.Duration(i) * time.Millisecond)); !kept || cat != CategorySlow {
			t.Fatalf("rank-filling trace %d: kept=%v cat=%v", i, kept, cat)
		}
	}
	// Faster than every ranked entry: sampled out, not slow.
	if _, kept := r.Record(mk(time.Microsecond)); kept {
		t.Fatal("fast trace admitted as slow")
	}
	// Slower than the floor: admitted, evicting the rank floor.
	if cat, kept := r.Record(mk(time.Hour)); !kept || cat != CategorySlow {
		t.Fatalf("slowest trace: kept=%v cat=%v", kept, cat)
	}
	// The rank floor is now 2ms (the 1ms entry was evicted): 1.5ms no
	// longer ranks, 2.5ms does.
	if _, kept := r.Record(mk(1500 * time.Microsecond)); kept {
		t.Fatal("sub-floor trace admitted as slow")
	}
	if cat, kept := r.Record(mk(2500 * time.Microsecond)); !kept || cat != CategorySlow {
		t.Fatalf("newly ranking trace: kept=%v cat=%v", kept, cat)
	}
	if st := r.Stats(); st.ByCategory["slow"] != slowTraces+2 || st.SampledOut != 2 {
		t.Errorf("stats %+v, want %d slow and 2 sampled out", st, slowTraces+2)
	}
}

// TestRecorderRingWrapsOldestFirst: the ring is bounded, evicts
// oldest-first, and Snapshot returns newest-first across the wrap.
func TestRecorderRingWrapsOldestFirst(t *testing.T) {
	r, err := NewRecorder(RecorderConfig{Size: 3, SampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		tr := finished(t, "r", 200, nil)
		ids = append(ids, tr.ID())
		if _, kept := r.Record(tr); !kept {
			t.Fatalf("trace %d dropped at 1-in-1 sampling", i)
		}
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("held %d traces, want 3", len(snap))
	}
	// Newest first: ids[4], ids[3], ids[2].
	for i, want := range []string{ids[4], ids[3], ids[2]} {
		if snap[i].ID() != want {
			t.Fatalf("snapshot[%d] = %s, want %s", i, snap[i].ID(), want)
		}
	}
	// The evicted traces are gone; the retained are findable.
	if r.Find(ids[0]) != nil || r.Find(ids[1]) != nil {
		t.Error("evicted trace still findable")
	}
	if r.Find(ids[4]) == nil {
		t.Error("retained trace not findable")
	}
	if st := r.Stats(); st.Held != 3 || st.Capacity != 3 || st.Recorded != 5 || st.Evicted != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestRecorderConcurrentRecordAndRead is the -race proof of the flight
// recorder's concurrency contract: parallel writers record completed traces
// while readers snapshot, find, and fully render — and every trace a reader
// sees is sealed (immutable), never a request still in flight.
func TestRecorderConcurrentRecordAndRead(t *testing.T) {
	r, err := NewRecorder(RecorderConfig{Size: 32, SampleEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, tr := range r.Snapshot() {
					if !tr.Done() {
						t.Error("recorder handed out an unsealed trace")
						return
					}
					// Render fully: a torn trace would trip the race
					// detector here.
					v := tr.View()
					if v.ID == "" {
						t.Error("retained trace has no ID")
						return
					}
					_ = r.Find(v.ID)
				}
				_ = r.Stats()
			}
		}()
	}
	var writers sync.WaitGroup
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				_, tr := New(context.Background(), "load")
				tr.QueueGrant(0)
				tr.Publish("buf", uint64(i+1), 64, i%5 == 4)
				switch i % 7 {
				case 0:
					tr.Error("synthetic failure")
					tr.Finish(500)
				case 1:
					tr.DeadlineFired(time.Millisecond)
					tr.Finish(200)
				default:
					tr.Deliver(uint64(i+1), i%5 == 4, false, 0, time.Microsecond)
					tr.Finish(200)
				}
				r.Record(tr)
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	st := r.Stats()
	if st.Held != 32 {
		t.Fatalf("held %d traces, want the full ring of 32", st.Held)
	}
	// Everything offered was accounted for: retained + sampled out = 1600.
	if st.Recorded+st.SampledOut != 8*200 {
		t.Fatalf("recorded %d + sampled out %d != %d offered", st.Recorded, st.SampledOut, 8*200)
	}
}
