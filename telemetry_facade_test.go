package anytime_test

// The telemetry facade exercised exactly as a downstream user would:
// instrument a two-stage pipeline (hooks + buffer + stream observers + a
// shared tracer), run it to the precise output, and read the results back
// through the exposition formats.

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"anytime"
)

func TestFacadeTelemetryInstrumentsPipeline(t *testing.T) {
	reg := anytime.NewMetricsRegistry()
	tr := anytime.NewTracer()

	st, err := anytime.NewStream[int](4)
	if err != nil {
		t.Fatal(err)
	}
	anytime.ObserveStream(reg, st, "edge")
	out := anytime.NewBuffer[int64]("total", nil)
	anytime.ObserveBuffer(reg, out)
	anytime.TraceBuffer(tr, out) // telemetry and tracer share the buffer

	a := anytime.New()
	const n = 64
	if err := a.AddStage("produce", func(c *anytime.Context) error {
		for i := 1; i <= n; i++ {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			if err := st.Send(c, anytime.Update[int]{Seq: i, Data: i, Last: i == n}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddStage("sum", func(c *anytime.Context) error {
		var acc int64
		return anytime.SyncConsume(c, st, func(u anytime.Update[int]) error {
			acc += int64(u.Data)
			if u.Seq%16 == 0 || u.Last {
				if _, err := out.Publish(acc, u.Last); err != nil {
					return err
				}
			}
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	a.SetHooks(anytime.PipelineHooks(reg))
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}

	snap, ok := out.Latest()
	if !ok || !snap.Final || snap.Value != n*(n+1)/2 {
		t.Fatalf("final snapshot = %+v, %v", snap, ok)
	}
	if got := len(tr.Events()); got != 4 {
		t.Errorf("tracer saw %d publishes, want 4", got)
	}

	// The same run must be visible through every exposition surface.
	var prom strings.Builder
	if err := anytime.WriteMetrics(reg, &prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		anytime.MetricCheckpointTotal + `{stage="produce"}`,
		anytime.MetricBufferPublish + `{buffer="total"} 4`,
		anytime.MetricBufferVersion + `{buffer="total"} 4`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	var summary strings.Builder
	if err := anytime.WriteMetricsSummary(reg, &summary); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary.String(), anytime.MetricStreamDepthMax) {
		t.Errorf("summary missing stream depth:\n%s", summary.String())
	}

	rec := httptest.NewRecorder()
	anytime.MetricsHandler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Header().Get("Content-Type"), "text/plain") {
		t.Errorf("handler content type %q", rec.Header().Get("Content-Type"))
	}
	if rec.Body.String() != prom.String() {
		t.Error("handler output differs from WriteMetrics")
	}
}

func TestFacadeAccuracyRecorder(t *testing.T) {
	ref, err := anytime.SyntheticGray(16, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := anytime.NewBuffer[*anytime.Image]("img", nil)
	rec := anytime.NewAccuracyRecorder(ref)
	anytime.ObserveAccuracy(rec, buf)

	a := anytime.New()
	if err := a.AddStage("s", func(c *anytime.Context) error {
		blank, err := anytime.NewGrayImage(16, 16)
		if err != nil {
			return err
		}
		if _, err := buf.Publish(blank, false); err != nil {
			return err
		}
		_, err = buf.Publish(ref, true) // bit-exact: +Inf dB
		return err
	}); err != nil {
		t.Fatal(err)
	}
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
	if len(curve) != 2 {
		t.Fatalf("curve has %d samples, want 2", len(curve))
	}
	if curve[1].SNR <= curve[0].SNR {
		t.Errorf("accuracy did not improve: %v then %v dB", curve[0].SNR, curve[1].SNR)
	}
	if !curve[1].Final {
		t.Error("last sample not marked final")
	}
	var json strings.Builder
	if err := rec.WriteJSON(&json); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(json.String(), `"snr_db":"inf"`) {
		t.Errorf("JSON export missing the bit-exact sample: %s", json.String())
	}
}
