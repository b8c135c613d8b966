package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"anytime/internal/pix"
)

// testOpts returns the tool's defaults with small-run overrides applied —
// the flag-parsing path the binary itself takes.
func testOpts(t *testing.T, mutate func(*opts)) opts {
	t.Helper()
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	mutate(&o)
	return o
}

func TestDefaultWorkersTracksGOMAXPROCS(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); o.workers != want {
		t.Errorf("default -workers = %d, want GOMAXPROCS %d", o.workers, want)
	}
	if o.workers < 1 {
		t.Errorf("default -workers = %d, want at least 1", o.workers)
	}
	o, err = parseFlags([]string{"-workers", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if o.workers != 3 {
		t.Errorf("-workers 3 parsed as %d", o.workers)
	}
}

func TestPublishPolicyFlag(t *testing.T) {
	for _, name := range []string{"", "every", "demand"} {
		if _, err := publishPolicy(name); err != nil {
			t.Errorf("policy %q rejected: %v", name, err)
		}
	}
	for _, name := range []string{"adaptive", "sometimes"} {
		if _, err := publishPolicy(name); err == nil || !strings.Contains(err.Error(), "every, demand") {
			t.Errorf("policy %q: err %v, want a rejection naming every, demand", name, err)
		}
	}
}

func TestRunEveryAppPrecise(t *testing.T) {
	for _, app := range []string{"conv2d", "histeq", "dwt53", "debayer", "kmeans"} {
		o := testOpts(t, func(o *opts) { o.app = app; o.size = 32; o.workers = 2 })
		if err := run(o); err != nil {
			t.Errorf("%s: %v", app, err)
		}
	}
}

func TestRunPublishPolicies(t *testing.T) {
	for _, app := range []string{"conv2d", "histeq", "debayer", "kmeans"} {
		o := testOpts(t, func(o *opts) {
			o.app = app
			o.size = 32
			o.workers = 2
			o.publish = "demand"
		})
		if err := run(o); err != nil {
			t.Errorf("%s -publish demand: %v", app, err)
		}
	}
	o := testOpts(t, func(o *opts) { o.publish = "sometimes"; o.size = 16 })
	if err := run(o); err == nil {
		t.Error("bogus -publish accepted")
	}
}

func TestRunHalted(t *testing.T) {
	o := testOpts(t, func(o *opts) { o.size = 96; o.workers = 2; o.halt = 0.3 })
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithAcceptAndOutputs(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.pgm")
	diff := filepath.Join(dir, "diff.pgm")
	curve := filepath.Join(dir, "curve.json")
	o := testOpts(t, func(o *opts) {
		o.size = 64
		o.workers = 2
		o.accept = 10
		o.out = out
		o.diff = diff
		o.curve = curve
		o.trace = true
		o.telemetry = true
	})
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if _, err := pix.ReadPNMFile(out); err != nil {
		t.Errorf("output image unreadable: %v", err)
	}
	if _, err := pix.ReadPNMFile(diff); err != nil {
		t.Errorf("diff image unreadable: %v", err)
	}
	raw, err := os.ReadFile(curve)
	if err != nil {
		t.Fatalf("curve file unreadable: %v", err)
	}
	var samples []map[string]any
	if err := json.Unmarshal(raw, &samples); err != nil {
		t.Fatalf("curve file not a JSON array: %v", err)
	}
	if len(samples) == 0 {
		t.Error("curve file recorded no samples")
	}
}

func TestRunWithUserInput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.pgm")
	img, err := pix.SyntheticGray(24, 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := pix.WritePNMFile(in, img); err != nil {
		t.Fatal(err)
	}
	o := testOpts(t, func(o *opts) { o.size = 0; o.workers = 2; o.in = in })
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownApp(t *testing.T) {
	o := testOpts(t, func(o *opts) { o.app = "nope"; o.size = 16 })
	if err := run(o); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestBuildRejectsWrongChannelInputs(t *testing.T) {
	dir := t.TempDir()
	rgbPath := filepath.Join(dir, "in.ppm")
	rgb, err := pix.SyntheticRGB(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pix.WritePNMFile(rgbPath, rgb); err != nil {
		t.Fatal(err)
	}
	buildOpts := func(app, in string) opts {
		return testOpts(t, func(o *opts) { o.app = app; o.size = 0; o.workers = 1; o.in = in })
	}
	if _, err := build(buildOpts("conv2d", rgbPath)); err == nil {
		t.Error("conv2d accepted an RGB input")
	}
	if _, err := build(buildOpts("kmeans", rgbPath)); err != nil {
		t.Errorf("kmeans rejected an RGB input: %v", err)
	}
	grayPath := filepath.Join(dir, "in.pgm")
	gray, err := pix.SyntheticGray(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pix.WritePNMFile(grayPath, gray); err != nil {
		t.Fatal(err)
	}
	if _, err := build(buildOpts("kmeans", grayPath)); err == nil {
		t.Error("kmeans accepted a grayscale input")
	}
}
