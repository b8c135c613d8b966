package main

import (
	"context"
	"fmt"
	"time"

	"anytime/internal/apps/conv2d"
	"anytime/internal/core"
	"anytime/internal/harness"
	"anytime/internal/metrics"
	"anytime/internal/pix"
	"anytime/internal/serve"
	"anytime/internal/snapcache"
)

// runCacheDemo demonstrates the snapshot cache's three serving modes on
// one process: a cold run from version 1, a warm start seeded from the
// cold run's cached output (same content key), and a delta start for a
// perturbed next frame (sibling key + pix.TileDiff). All three runs get
// the same wall-clock budget, so the SNR column shows what warm starting
// buys at a fixed deadline — the number BENCH_snapcache.json pins.
//
// The demo is conv2d-only: it needs an app whose input it can perturb
// frame-to-frame to exercise the delta path.
func runCacheDemo(o opts) error {
	if o.app != "conv2d" {
		return fmt.Errorf("-cache demo supports -app conv2d only (got %q)", o.app)
	}
	if o.halt >= 1 {
		o.halt = 0.3 // a deadline short of precise, so warm starts have headroom to show
	}
	frameA, err := pix.SyntheticGray(o.size, o.size, o.seed)
	if err != nil {
		return err
	}
	cfg := conv2d.Config{Workers: o.workers}
	refA, err := conv2d.Precise(frameA, cfg)
	if err != nil {
		return err
	}
	baseline, err := harness.TimeBaseline(func() error { _, err := conv2d.Precise(frameA, cfg); return err }, 3)
	if err != nil {
		return err
	}
	budget := time.Duration(o.halt * float64(baseline))
	fmt.Printf("cache demo: conv2d %dx%d, budget %v (%.2fx baseline %v)\n", o.size, o.size, budget, o.halt, baseline)
	// Every run below gets the same deadline contract anytimed serves.
	halt := func(run *conv2d.Run) (core.Snapshot[*pix.Image], error) {
		res, err := serve.Run(context.Background(), serve.Entry[*pix.Image]{Automaton: run.Automaton, Out: run.Out}, budget, nil)
		return res.Snapshot, err
	}

	cache, err := snapcache.New(snapcache.Config[*pix.Image]{
		SizeOf: func(im *pix.Image) int { return len(im.Pix) * 4 },
	})
	if err != nil {
		return err
	}
	keyA := snapcache.Key{App: "conv2d", Digest: snapcache.DigestImage(frameA), Epoch: 1}

	// Cold: first request for this content. Miss, run from scratch, admit
	// the delivered snapshot on the way out — exactly serve/daemon's path.
	run, err := conv2d.New(frameA, cfg)
	if err != nil {
		return err
	}
	if _, ok := cache.Get(keyA); ok {
		return fmt.Errorf("fresh cache reported a hit")
	}
	cold, err := halt(run)
	if err != nil {
		return err
	}
	coldDB, err := metrics.SNR(refA.Pix, cold.Value.Pix)
	if err != nil {
		return err
	}
	cache.Put(keyA, snapcache.Entry[*pix.Image]{Value: cold.Value, Version: cold.Version, SNRdB: coldDB})
	fmt.Printf("  cold  (miss):  version %2d, SNR %s dB\n", cold.Version, metrics.FormatDB(coldDB))

	// Warm: repeat request, same key. Seed the reset automaton from the
	// cached approximation and spend the whole budget refining past it.
	entry, ok := cache.Get(keyA)
	if !ok {
		return fmt.Errorf("admitted entry missing on repeat request")
	}
	if err := run.Automaton.Reset(); err != nil {
		return err
	}
	if err := run.Automaton.SeedFrom(entry.Value, entry.Version); err != nil {
		return err
	}
	warm, err := halt(run)
	if err != nil {
		return err
	}
	warmDB, err := metrics.SNR(refA.Pix, warm.Value.Pix)
	if err != nil {
		return err
	}
	fmt.Printf("  warm  (hit):   version %2d, SNR %s dB (seeded at version %d, %s dB)\n",
		warm.Version, metrics.FormatDB(warmDB), entry.Version, metrics.FormatDB(entry.SNRdB))

	// Delta: the "next frame" of a stream — same scene, one region changed.
	// Its exact key misses, but the prior frame's entry seeds all unchanged
	// tiles; only the diffed (and dilated) region restarts from hold-fill.
	frameB := frameA.Clone()
	blk := o.size / 4
	for y := blk; y < 2*blk; y++ {
		for x := blk; x < 2*blk; x++ {
			frameB.SetGray(x, y, 255-frameB.Gray(x, y))
		}
	}
	refB, err := conv2d.Precise(frameB, cfg)
	if err != nil {
		return err
	}
	stale, err := pix.TileDiff(frameA, frameB)
	if err != nil {
		return err
	}
	stale.Dilate()
	runB, err := conv2d.New(frameB, cfg)
	if err != nil {
		return err
	}
	if err := runB.Automaton.SeedFrom(&pix.SeedFrame{Image: entry.Value, Stale: stale}, entry.Version); err != nil {
		return err
	}
	delta, err := halt(runB)
	if err != nil {
		return err
	}
	deltaDB, err := metrics.SNR(refB.Pix, delta.Value.Pix)
	if err != nil {
		return err
	}
	fmt.Printf("  delta (prior): version %2d, SNR %s dB (next frame, %d stale tiles reseeded)\n",
		delta.Version, metrics.FormatDB(deltaDB), stale.Count())
	return nil
}
