package harness

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"anytime/internal/core"
	"anytime/internal/pix"
)

// noisyToPrecise builds a one-stage automaton that publishes progressively
// less-wrong copies of ref, ending with the exact reference.
func noisyToPrecise(t *testing.T, ref *pix.Image, out *core.Buffer[*pix.Image]) *core.Automaton {
	t.Helper()
	a := core.New()
	if err := a.AddStage("refine", func(c *core.Context) error {
		for step := 3; step >= 0; step-- {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			img := ref.Clone()
			for i := 0; i < len(img.Pix); i += 7 {
				img.Pix[i] += int32(step * 40)
			}
			if _, err := out.Publish(img, step == 0); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAccuracyRecorderCurve(t *testing.T) {
	ref, err := pix.SyntheticGray(16, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := core.NewBuffer[*pix.Image]("out", nil)
	rec := NewCollector(ref, 0)
	out.OnPublish(rec.Observe)
	a := noisyToPrecise(t, ref, out)
	rec.Begin()
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	curve, err := rec.Curve()
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 4 {
		t.Fatalf("curve has %d samples, want 4", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].SNR < curve[i-1].SNR {
			t.Errorf("SNR not nondecreasing: %v", curve)
		}
		if curve[i].Elapsed < curve[i-1].Elapsed {
			t.Errorf("elapsed not monotone: %v", curve)
		}
		if curve[i].Version != curve[i-1].Version+1 {
			t.Errorf("versions not sequential: %v", curve)
		}
	}
	last := curve[len(curve)-1]
	if !last.Final {
		t.Error("last sample not final")
	}
	if !isInf(last.SNR) {
		t.Errorf("final SNR = %v, want +Inf (bit-exact)", last.SNR)
	}
	// A second export reuses the scored points and returns the same curve.
	again, err := rec.Curve()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(curve) || again[0] != curve[0] {
		t.Error("second curve differs")
	}
}

func isInf(v float64) bool { return v > 1e308 }

func TestAccuracyRecorderJSONAndProfile(t *testing.T) {
	ref, err := pix.SyntheticGray(16, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := core.NewBuffer[*pix.Image]("out", nil)
	rec := NewCollector(ref, 0)
	out.OnPublish(rec.Observe)
	a := noisyToPrecise(t, ref, out)
	rec.Begin()
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := rec.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded []struct {
		ElapsedNS int64  `json:"elapsed_ns"`
		Version   uint64 `json:"version"`
		SNRdB     string `json:"snr_db"`
		Final     bool   `json:"final"`
	}
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("JSON export not decodable: %v\n%s", err, b.String())
	}
	if len(decoded) != 4 || decoded[3].SNRdB != "inf" || !decoded[3].Final {
		t.Errorf("JSON export wrong: %+v", decoded)
	}

	// The same points export as the figures' Profile.
	p, err := rec.Finish("refine", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Points) != 4 || p.App != "refine" {
		t.Fatalf("profile = %+v", p)
	}
	if at := p.PreciseAt(); at <= 0 {
		t.Error("profile never reached precise")
	}
	var plot strings.Builder
	if err := p.Plot(&plot, 40, 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plot.String(), "refine") {
		t.Errorf("plot output:\n%s", plot.String())
	}
	if _, err := rec.Finish("x", 0); err == nil {
		t.Error("nonpositive baseline accepted")
	}

	// Begin resets the curve.
	rec.Begin()
	curve, err := rec.Curve()
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 0 {
		t.Errorf("curve after Begin has %d samples", len(curve))
	}
}
