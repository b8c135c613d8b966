package main

import (
	"io"
	"strings"
	"testing"

	"anytime/internal/harness"
)

var smokeOpt = harness.Options{Size: 48, Workers: 2, Seed: 3, BaselineReps: 1}

// figureNames is every -fig name; TestRunEveryFigure runs each and checks
// that -fig all prints them all.
var figureNames = []string{"fig4", "fig5", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
	"fig16", "fig17", "fig18", "fig19", "fig20", "locality", "sched", "storage", "reorder"}

func TestRunSingleFigure(t *testing.T) {
	if err := run(io.Discard, "fig13", smokeOpt, "", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithPlot(t *testing.T) {
	if err := run(io.Discard, "fig11", smokeOpt, "", true); err != nil {
		t.Fatal(err)
	}
}

func TestRunSnapshotWithOutdir(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, "fig17", harness.Options{Size: 64, Workers: 2, Seed: 3, BaselineReps: 1}, dir, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig10(t *testing.T) {
	if err := run(io.Discard, "fig10", harness.Options{Size: 48, Seed: 1}, "", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run(io.Discard, "fig99", smokeOpt, "", false); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunEveryFigure(t *testing.T) {
	var all strings.Builder
	if err := run(&all, "all", smokeOpt, "", false); err != nil {
		t.Fatal(err)
	}
	for _, name := range figureNames {
		var b strings.Builder
		if err := run(&b, name, smokeOpt, "", false); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		header := "== " + name + " ==\n"
		if !strings.HasPrefix(b.String(), header) || strings.Count(b.String(), "== ") != 1 {
			t.Errorf("-fig %s printed %q…, want its own figure only", name, b.String()[:min(b.Len(), 40)])
		}
		if !strings.Contains(all.String(), header) {
			t.Errorf("-fig all skipped %s", name)
		}
	}
}

// TestTreeFrames pins Figures 4 and 5: the paper's 1-D visit order, and
// the 2-D order's first four points at the corners of the 4×4 sub-grid.
func TestTreeFrames(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "fig4", smokeOpt, "", false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"visit order: [0 8 4 12 2 10 6 14 1 9 5 13 3 11 7 15]",
		"after 2:\n  #.......#.......\n",
		"after 16:\n  ################\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("fig4 lacks %q:\n%s", want, b.String())
		}
	}
	b.Reset()
	if err := run(&b, "fig5", smokeOpt, "", false); err != nil {
		t.Fatal(err)
	}
	if want := "after 4:\n  #...#...\n  ........\n  ........\n  ........\n  #...#...\n"; !strings.Contains(b.String(), want) {
		t.Errorf("fig5 lacks %q:\n%s", want, b.String())
	}
}
