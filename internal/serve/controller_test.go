package serve

import (
	"context"
	"math"
	"testing"
	"time"

	"anytime/internal/reqtrace"
)

func TestControllerValidation(t *testing.T) {
	bad := []Controller{
		{ShedStart: -1, ShedFull: 4, MinFactor: 0.5},
		{ShedStart: 4, ShedFull: 4, MinFactor: 0.5},
		{ShedStart: 2, ShedFull: 8, MinFactor: 0},
		{ShedStart: 2, ShedFull: 8, MinFactor: 1.5},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("controller %+v accepted", c)
		}
	}
	ok := Controller{ShedStart: 2, ShedFull: 8, MinFactor: 0.25}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestControllerRamp(t *testing.T) {
	c := Controller{ShedStart: 2, ShedFull: 6, MinFactor: 0.2}
	cases := []struct {
		depth int
		want  float64
	}{
		{0, 1}, {1, 1}, {2, 1}, // at or below ShedStart: no shedding
		{3, 0.8}, {4, 0.6}, {5, 0.4}, // linear ramp
		{6, 0.2}, {100, 0.2}, // saturated
	}
	for _, tc := range cases {
		if got := c.Factor(tc.depth); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Factor(%d) = %v, want %v", tc.depth, got, tc.want)
		}
	}
}

func TestControllerScale(t *testing.T) {
	var shed []float64
	c := Controller{ShedStart: 0, ShedFull: 2, MinFactor: 0.5,
		Sink: onKind(reqtrace.KindShed, func(e reqtrace.Event) { shed = append(shed, e.Val) })}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.Scale(context.Background(), 100*time.Millisecond, 0); got != 100*time.Millisecond {
		t.Fatalf("unloaded scale = %v", got)
	}
	if got := c.Scale(context.Background(), 100*time.Millisecond, 1); got != 75*time.Millisecond {
		t.Fatalf("half-loaded scale = %v, want 75ms", got)
	}
	if got := c.Scale(context.Background(), 100*time.Millisecond, 50); got != 50*time.Millisecond {
		t.Fatalf("saturated scale = %v, want 50ms", got)
	}
	// Precise requests (no deadline) are never shed.
	if got := c.Scale(context.Background(), 0, 50); got != 0 {
		t.Fatalf("precise request scaled to %v", got)
	}
	if len(shed) != 2 {
		t.Fatalf("shed reported %d times, want 2 (not for factor 1 or deadline 0)", len(shed))
	}
}
