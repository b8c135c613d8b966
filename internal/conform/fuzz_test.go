package conform

import (
	"context"
	"errors"
	"sync"
	"testing"

	"anytime/internal/core"
)

// FuzzBufferPublish drives a Buffer through a fuzzer-chosen publish run
// while concurrent readers chase it through Latest and WaitNewer. The
// value published at version k is a pure function of (seed, k), so any
// torn or stale read is detectable: a reader that ever sees a version
// whose value does not match the closed form has caught a buffer bug.
// Run under -race this doubles as a memory-model check of the wait-free
// publish path and the CAS-armed wakeup in WaitNewer.
func FuzzBufferPublish(f *testing.F) {
	f.Add(uint64(1), uint8(5))
	f.Add(uint64(42), uint8(1))
	f.Add(uint64(0xdeadbeef), uint8(31))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8) {
		total := core.Version(n%32) + 1
		buf := core.NewBuffer[uint64]("fuzz", nil)
		valueAt := func(v core.Version) uint64 { return fnv1aStep(seed, uint64(v)) }

		var wg sync.WaitGroup
		stop := make(chan struct{})

		// Polling readers: versions must be monotone and values untorn.
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var last core.Version
				for {
					if snap, ok := buf.Latest(); ok {
						if snap.Version < last {
							t.Errorf("Latest went backwards: %d after %d", snap.Version, last)
							return
						}
						last = snap.Version
						if snap.Value != valueAt(snap.Version) {
							t.Errorf("version %d holds %016x, want %016x", snap.Version, snap.Value, valueAt(snap.Version))
							return
						}
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}

		// Blocking reader: chases every wakeup through WaitNewer until the
		// final snapshot lands. This is the consumer the CAS-armed wakeup
		// race would starve if Publish and WaitNewer ever missed each other.
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last core.Version
			for {
				snap, err := buf.WaitNewer(context.Background(), last)
				if err != nil {
					t.Errorf("WaitNewer(%d): %v", last, err)
					return
				}
				if snap.Version <= last {
					t.Errorf("WaitNewer(%d) returned version %d", last, snap.Version)
					return
				}
				last = snap.Version
				if snap.Value != valueAt(snap.Version) {
					t.Errorf("version %d holds %016x, want %016x", snap.Version, snap.Value, valueAt(snap.Version))
					return
				}
				if snap.Final {
					return
				}
			}
		}()

		for v := core.Version(1); v <= total; v++ {
			snap, err := buf.Publish(valueAt(v), v == total)
			if err != nil {
				t.Fatalf("Publish version %d: %v", v, err)
			}
			if snap.Version != v {
				t.Fatalf("Publish returned version %d, want %d", snap.Version, v)
			}
		}
		if _, err := buf.Publish(0, true); !errors.Is(err, core.ErrFinalized) {
			t.Fatalf("publish past final = %v, want ErrFinalized", err)
		}

		close(stop)
		wg.Wait()

		snap, ok := buf.Peek()
		if !ok || snap.Version != total || !snap.Final {
			t.Fatalf("terminal snapshot = (%d, final=%v, ok=%v), want (%d, true, true)", snap.Version, snap.Final, ok, total)
		}
	})
}

// FuzzInterruptAnywhere treats the fuzzer's input as a schedule seed: each
// input expands through deriveSchedule into a full configuration — worker
// count, publish policy, granularity, interrupt point, injected faults —
// and one conformance run must uphold every invariant under it. The corpus
// therefore accumulates schedules, not data.
func FuzzInterruptAnywhere(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		// Alternate between the synthetic synchronous pipeline (Stream
		// edges, exact per-version decodability) and histeq (the deepest
		// DAG: four stages over async edges).
		var app App
		if seed%2 == 0 {
			app = &histeqApp{}
		} else {
			app = &syncPipeApp{}
		}
		s := deriveSchedule(app, seed)
		res := RunOne(app, s)
		if res.Failed() {
			t.Fatalf("seed %d (%s) violated invariants:\n%s\nschedule: %s", seed, app.Name(), res.failureSummary(), s)
		}
	})
}
