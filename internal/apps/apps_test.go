package apps

import (
	"context"
	"slices"
	"testing"

	"anytime/internal/conform"
	"anytime/internal/pix"
	"anytime/internal/serve"
)

// TestEveryAppReachesItsPrecise: for every row, the automaton New builds,
// run to completion under the serving contract, ends on a final snapshot
// bit-identical to Precise — and a wrong-channel input is refused by both.
func TestEveryAppReachesItsPrecise(t *testing.T) {
	for _, app := range table {
		t.Run(app.Name, func(t *testing.T) {
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
			res, err := serve.Run(context.Background(), serve.Entry[*pix.Image]{Automaton: a, Out: out}, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Snapshot.Final || res.Interrupted {
				t.Errorf("run to completion ended on %+v", res)
			}
			if !res.Snapshot.Value.Equal(want) {
				t.Error("final output differs from Precise")
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
