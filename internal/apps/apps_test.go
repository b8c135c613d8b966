package apps

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"anytime/internal/apps/conv2d"
	"anytime/internal/apps/debayer"
	"anytime/internal/conform"
	"anytime/internal/core"
	"anytime/internal/perm"
	"anytime/internal/pix"
	"anytime/internal/serve"
	"anytime/internal/testgate"
)

// TestEveryAppReachesItsPrecise: for every row, the automaton New builds,
// run to completion under the serving contract, ends on a final snapshot
// bit-identical to Precise — and a wrong-channel input is refused by both.
// The four diffusive rows, which the daemon pools and warm-starts, reach it
// again after an interrupted run and Reset, and again when seeded with their
// own mid-run snapshot, publishing first at the seed's version + 1.
func TestEveryAppReachesItsPrecise(t *testing.T) {
	for _, app := range table {
		t.Run(app.Name, func(t *testing.T) {
			testgate.Goroutines(t)
			o := Options{Workers: 2}
			in, err := app.Input.Synthetic(32, 7)
			if err != nil {
				t.Fatal(err)
			}
			if in.C != app.Input.Channels() {
				t.Fatalf("synthetic input has %d channels, the row says %d", in.C, app.Input.Channels())
			}
			want, err := app.Precise(in, o)
			if err != nil {
				t.Fatal(err)
			}
			a, out, err := app.New(in, o)
			if err != nil {
				t.Fatal(err)
			}
			// published lists the current run's versions; a run is cancelled
			// from inside the publish of version stopAt, so exactly stopAt
			// versions exist when it returns.
			var published []core.Version
			var stopAt core.Version
			var cancel context.CancelFunc
			out.OnPublish(func(s core.Snapshot[*pix.Image]) {
				published = append(published, s.Version)
				if s.Version == stopAt {
					cancel()
				}
			})
			entry := serve.Entry[*pix.Image]{Automaton: a, Out: out}
			toPrecise := func(when string) {
				t.Helper()
				published = nil
				res, err := serve.Run(context.Background(), entry, 0, nil)
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if !res.Snapshot.Final || res.Interrupted {
					t.Errorf("%s: run to completion ended on %+v", when, res)
				}
				if !res.Snapshot.Value.Equal(want) {
					t.Errorf("%s: final output differs from Precise", when)
				}
			}
			toPrecise("cold")

			if app.Name != "dwt53" { // iterative: not pooled, no seed hook
				if err := a.Reset(); err != nil {
					t.Fatal(err)
				}
				var ctx context.Context
				ctx, cancel = context.WithCancel(context.Background())
				defer cancel()
				stopAt = 2
				// The cancel stops the stage right after version 2; serve.Run
				// reports it, or — when it sees the stopped automaton first —
				// returns what was published.
				if _, err := serve.Run(ctx, entry, 0, nil); err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("interrupted run returned %v", err)
				}
				stopAt = 0
				mid, _ := out.Latest()
				if mid.Version != 2 || mid.Final {
					t.Fatalf("interrupted run ended on version %d, final %v", mid.Version, mid.Final)
				}
				if err := a.Reset(); err != nil {
					t.Fatal(err)
				}
				toPrecise("after interrupt and Reset")
				if published[0] != 1 {
					t.Errorf("after Reset the first publish is version %d", published[0])
				}

				if err := a.Reset(); err != nil {
					t.Fatal(err)
				}
				if err := a.SeedFrom(mid.Value, mid.Version); err != nil {
					t.Fatal(err)
				}
				toPrecise("seeded")
				if published[0] != mid.Version+1 {
					t.Errorf("seeded at version %d, the first publish is version %d", mid.Version, published[0])
				}
			}

			wrong := RGB
			if app.Input == RGB {
				wrong = Gray
			}
			bad, err := wrong.Synthetic(32, 7)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := app.Precise(bad, o); err == nil {
				t.Errorf("Precise accepted a %d-channel input", bad.C)
			}
			if _, _, err := app.New(bad, o); err == nil {
				t.Errorf("New accepted a %d-channel input", bad.C)
			}
		})
	}
}

// TestTableMatchesConformSuite: every row has a conformance adapter and
// vice versa (syncpipe is conform's synthetic pipeline, not an app), so an
// app added to one without the other fails here.
func TestTableMatchesConformSuite(t *testing.T) {
	var rows, suite []string
	for _, a := range table {
		rows = append(rows, a.Name)
		if got, ok := Named(a.Name); !ok || got.Label != a.Label {
			t.Errorf("Named(%q) = %+v, %v", a.Name, got, ok)
		}
	}
	for _, a := range conform.Apps() {
		if a.Name() != "syncpipe" {
			suite = append(suite, a.Name())
		}
	}
	slices.Sort(rows)
	slices.Sort(suite)
	if !slices.Equal(rows, suite) {
		t.Errorf("apps table %v, conform suite %v", rows, suite)
	}
	if _, ok := Named("nope"); ok {
		t.Error("Named found an app that is not in the table")
	}
}

// TestMapAppsPublishHoldFilledPrefixes pins the two single-stage map apps
// version by version: under either publish policy (mode0 every round, mode1
// on demand, which the test's observer keeps demanded), version v is
// Precise at the first v×round positions of the 2D tree order of the
// image's 64×64 superset — round being the granularity rounded down to a
// power of two — and, everywhere else, the value of the nearest such
// position above it in the tree.
func TestMapAppsPublishHoldFilledPrefixes(t *testing.T) {
	testgate.Goroutines(t)
	const size, workers, granularity = 40, 2, 150 // 4 tiles
	const super, round = 64, 128                  // 32 versions
	type build func(in *pix.Image, policy core.PublishPolicy) (*core.Automaton, *core.Buffer[*pix.Image], error)
	builds := map[string]build{
		"conv2d": func(in *pix.Image, policy core.PublishPolicy) (*core.Automaton, *core.Buffer[*pix.Image], error) {
			r, err := conv2d.New(in, conv2d.Config{Workers: workers, Granularity: granularity, Publish: policy})
			if err != nil {
				return nil, nil, err
			}
			return r.Automaton, r.Out, nil
		},
		"debayer": func(in *pix.Image, policy core.PublishPolicy) (*core.Automaton, *core.Buffer[*pix.Image], error) {
			r, err := debayer.New(in, debayer.Config{Workers: workers, Granularity: granularity, Publish: policy})
			if err != nil {
				return nil, nil, err
			}
			return r.Automaton, r.Out, nil
		},
	}
	ord, err := perm.Tree2D(super, super)
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range builds {
		app, _ := Named(name)
		in, err := app.Input.Synthetic(size, 11)
		if err != nil {
			t.Fatal(err)
		}
		precise, err := app.Precise(in, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []core.PublishPolicy{core.PublishEveryRound, core.PublishOnDemand} {
			t.Run(fmt.Sprintf("%s/mode%d", name, policy), func(t *testing.T) {
				a, out, err := build(in, policy)
				if err != nil {
					t.Fatal(err)
				}
				mask := make([]bool, size*size)
				processed, versions := 0, 0
				out.OnPublish(func(s core.Snapshot[*pix.Image]) {
					versions++
					for pos := (versions - 1) * round; pos < versions*round; pos++ {
						if x, y := ord.At(pos)%super, ord.At(pos)/super; x < size && y < size {
							mask[y*size+x] = true
							processed++
						}
					}
					want, err := pix.HoldFill(precise, mask)
					if err != nil {
						t.Error(err)
					} else if !s.Value.Equal(want) {
						t.Errorf("version %d is not Precise hold-filled from the first %d positions", s.Version, processed)
					}
					if s.Final != (processed == size*size) {
						t.Errorf("version %d: final = %v at %d positions", s.Version, s.Final, processed)
					}
				})
				if err := a.Start(context.Background()); err != nil {
					t.Fatal(err)
				}
				if err := a.Wait(); err != nil {
					t.Fatal(err)
				}
				if want := super * super / round; versions != want {
					t.Errorf("%d versions published, want %d", versions, want)
				}
			})
		}
	}
}

// TestDisplayAppsPublishEightBitSamples: every version the four display
// apps publish, not only the final one, holds 8-bit samples — on the golden
// inputs (96×96, seed 7) at one and two workers.
func TestDisplayAppsPublishEightBitSamples(t *testing.T) {
	for _, name := range []string{"conv2d", "debayer", "histeq", "kmeans"} {
		app, _ := Named(name)
		in, err := app.Input.Synthetic(96, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/w%d", name, w), func(t *testing.T) {
				a, out, err := app.New(in, Options{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				versions := 0
				out.OnPublish(func(s core.Snapshot[*pix.Image]) {
					versions++
					for i, v := range s.Value.Pix {
						if v < 0 || v > 255 {
							t.Errorf("version %d: sample %d is %d, outside [0, 255]", s.Version, i, v)
							return
						}
					}
				})
				if err := a.Start(context.Background()); err != nil {
					t.Fatal(err)
				}
				if err := a.Wait(); err != nil {
					t.Fatal(err)
				}
				if snap, ok := out.Latest(); !ok || !snap.Final || versions < 2 {
					t.Errorf("%d versions, final %v: want an approximation before the precise output", versions, snap.Final)
				}
			})
		}
	}
}
