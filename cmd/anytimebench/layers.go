package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"anytime/internal/apps/conv2d"
	"anytime/internal/cluster"
	"anytime/internal/core"
	"anytime/internal/metrics"
	"anytime/internal/perm"
	"anytime/internal/pix"
	"anytime/internal/serve"
	"anytime/internal/snapcache"
)

// perOp times f in batches of the given size until the budget is spent (at
// least five batches) and returns the median nanoseconds per call.
func perOp(batch int, budget time.Duration, f func()) float64 {
	var per []float64
	end := time.Now().Add(budget)
	for len(per) < 5 || time.Now().Before(end) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	return median(per)
}

// layerProbe measures every layer by direct calls into its public
// functions, at the library workloads' sizes, and fills the per-layer
// metrics that do not depend on which workload is running. A traced run of
// any workload starts with it, so every traced run reports every layer.
func layerProbe(ctx context.Context, res *result, o options) error {
	if err := probeApps(ctx, res, o); err != nil {
		return err
	}
	return probeCalls(ctx, res, o)
}

// probeApps runs a few paired repetitions of all four apps, at one worker
// and at nproc workers, for the apps.* and core.<app>.* metrics.
func probeApps(ctx context.Context, res *result, o options) error {
	apps, err := libApps(o.seed, o.short)
	if err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	rounds := 6
	if o.short {
		rounds = 2
	}
	for _, name := range appNames {
		one, err := newLibRunner(apps[name], 1)
		if err != nil {
			return err
		}
		par, err := newLibRunner(apps[name], nproc)
		if err != nil {
			return err
		}
		var reps []libRep
		var basePar, speedup []float64
		for i := 0; i < rounds+1; i++ {
			r1, err := one.rep(ctx, nil, 0)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := apps[name].precise(nproc); err != nil {
				return err
			}
			bp := ms(time.Since(t0))
			rp, err := par.rep(ctx, nil, 0)
			if err != nil {
				return err
			}
			if r1.fail != "" || rp.fail != "" {
				return fmt.Errorf("%s probe: %s%s", name, r1.fail, rp.fail)
			}
			if i == 0 {
				continue // warm-up round
			}
			reps = append(reps, r1)
			basePar = append(basePar, bp)
			speedup = append(speedup, r1.finalMs/rp.finalMs)
		}
		res.setAppLayers(name, reps)
		res.layer["apps."+name+".baseline_par_ms"] = median(basePar)
		res.layer["core."+name+".par_speedup_x"] = median(speedup)
		if name == "conv2d" {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := one.a.Start(ctx); err != nil {
				return err
			}
			if err := one.a.Wait(); err != nil {
				return err
			}
			runtime.ReadMemStats(&after)
			one.pubs = one.pubs[:0]
			res.layer["core.alloc_mb_per_run"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		}
	}
	return nil
}

// probeCalls times single public calls of core, pix, metrics, serve,
// snapcache and cluster.
func probeCalls(ctx context.Context, res *result, o options) error {
	size := 512
	budget := 60 * time.Millisecond
	if o.short {
		size, budget = 128, 5*time.Millisecond
	}
	gray, err := pix.SyntheticGray(size, size, o.seed)
	if err != nil {
		return err
	}
	ref, err := conv2d.Precise(gray, conv2d.Config{Workers: 1})
	if err != nil {
		return err
	}

	// core: publish and read on a bare buffer.
	buf := core.NewBuffer[*pix.Image]("probe", nil)
	var perr error
	res.layer["core.publish_ns"] = perOp(1000, budget, func() {
		if _, err := buf.Publish(gray, false); err != nil {
			perr = err
		}
	})
	if perr != nil {
		return perr
	}
	res.layer["core.latest_ns"] = perOp(1000, budget, func() { buf.Latest() })

	// core: how long after Stop() a mid-run automaton is Done().
	run, err := conv2d.New(gray, conv2d.Config{Workers: 1})
	if err != nil {
		return err
	}
	var stops []float64
	for i := 0; i < 9; i++ {
		if err := run.Automaton.Start(ctx); err != nil {
			return err
		}
		time.Sleep(o.shorten(8 * time.Millisecond))
		t0 := time.Now()
		run.Automaton.Stop()
		<-run.Automaton.Done()
		stops = append(stops, ms(time.Since(t0)))
		if err := run.Automaton.Reset(); err != nil {
			return err
		}
	}
	res.layer["core.stop_latency_ms"] = median(stops)

	// pix: one snapshot with 1/32 of the pixels newly marked, clone and tile
	// mode, and the PNM encode of a full frame.
	ord, err := perm.Tree2D(size, size)
	if err != nil {
		return err
	}
	for _, m := range []struct {
		mode pix.SnapshotMode
		key  string
	}{{pix.SnapshotClone, "pix.snapshot_clone_us"}, {pix.SnapshotTiles, "pix.snapshot_tiles_us"}} {
		working, err := pix.NewGray(size, size)
		if err != nil {
			return err
		}
		snap, err := pix.NewSnapshotter(working, 1, m.mode)
		if err != nil {
			return err
		}
		pos, step := 0, ord.Len()/32
		var us []float64
		for round := 0; round < 24; round++ {
			if pos+step > ord.Len() {
				snap.Reset()
				pos = 0
			}
			for i := pos; i < pos+step; i++ {
				snap.Mark(0, ord.At(i))
			}
			pos += step
			t0 := time.Now()
			if _, err := snap.Snapshot(); err != nil {
				return err
			}
			us = append(us, float64(time.Since(t0))/1e3)
		}
		res.layer[m.key] = median(us)
	}
	var enc bytes.Buffer
	res.layer["pix.encode_pnm_ms"] = perOp(1, budget, func() {
		enc.Reset()
		if err := pix.EncodePNM(&enc, ref); err != nil {
			perr = err
		}
	}) / 1e6
	res.layer["pix.encode_pnm_bytes"] = float64(enc.Len())

	// metrics: one SNR scoring of a full frame.
	res.layer["metrics.snr_us"] = perOp(1, budget, func() {
		if _, err := metrics.SNR(ref.Pix, gray.Pix); err != nil {
			perr = err
		}
	}) / 1e3
	if perr != nil {
		return perr
	}

	// serve: the admission queue, the warm pool, a deadline run's overrun, and
	// the cache seed/admit pair, on a pool entry like the daemon's.
	queue, err := serve.NewQueue(1, 8, nil)
	if err != nil {
		return err
	}
	res.layer["serve.queue_cycle_ns"] = perOp(1000, budget, func() {
		if err := queue.Acquire(ctx); err != nil {
			perr = err
		}
		queue.Release()
	})
	pool, err := newBlurPool(gray, 1)
	if err != nil {
		return err
	}
	res.layer["serve.pool_cycle_us"] = perOp(1, budget, func() {
		e, err := pool.Get(ctx)
		if err == nil {
			err = pool.Put(e)
		}
		if err != nil {
			perr = err
		}
	}) / 1e3
	if perr != nil {
		return perr
	}
	entry, err := pool.Get(ctx)
	if err != nil {
		return err
	}
	deadline := o.shorten(20 * time.Millisecond)
	var overruns []float64
	var last serve.Result[*pix.Image]
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		last, err = serve.Run(ctx, entry, deadline, nil)
		overruns = append(overruns, ms(time.Since(t0)-deadline))
		if err != nil {
			return err
		}
		if err := entry.Automaton.Reset(); err != nil {
			return err
		}
	}
	res.layer["serve.run_overrun_ms"] = median(overruns)
	var seeds []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		if !serve.Seed(ctx, entry, last.Snapshot.Value, last.Snapshot.Version) {
			return fmt.Errorf("serve.Seed refused a snapshot of the same automaton")
		}
		seeds = append(seeds, float64(time.Since(t0))/1e3)
		if err := entry.Automaton.Reset(); err != nil {
			return err
		}
	}
	res.layer["serve.seed_us"] = median(seeds)

	// snapcache: hit, miss, and a put into a full cache (every put evicts).
	cache, err := newImageCache()
	if err != nil {
		return err
	}
	keyOf := func(i int) snapcache.Key {
		return snapcache.Key{App: "blur", Digest: fmt.Sprint("probe-", i), Epoch: 1}
	}
	n := 0
	admit := func() {
		n++
		if !serve.Admit(cache, keyOf(n), last, 20) {
			perr = fmt.Errorf("serve.Admit refused a fresh key")
		}
	}
	for cache.Bytes()+int64(len(last.Snapshot.Value.Pix)*4) <= cacheBytes {
		admit()
	}
	res.layer["serve.admit_us"] = perOp(1, budget, admit) / 1e3
	entryOf := snapcache.Entry[*pix.Image]{Value: last.Snapshot.Value, Version: last.Snapshot.Version, SNRdB: 20}
	res.layer["snapcache.put_us"] = perOp(1, budget, func() {
		n++
		cache.Put(keyOf(n), entryOf)
	}) / 1e3
	hit, miss := keyOf(n), keyOf(-1)
	res.layer["snapcache.get_hit_ns"] = perOp(1000, budget, func() {
		if _, ok := cache.Get(hit); !ok {
			perr = fmt.Errorf("snapcache: the newest key missed")
		}
	})
	res.layer["snapcache.get_miss_ns"] = perOp(1000, budget, func() { cache.Get(miss) })
	if perr != nil {
		return perr
	}

	// cluster: one ring lookup on a two-member ring.
	ring := cluster.NewRing([]string{"127.0.0.1:1", "127.0.0.1:2"}, cluster.DefaultReplicas)
	key := cluster.RingKey("/blur", "probe")
	res.layer["cluster.ring_lookup_ns"] = perOp(1000, budget, func() { ring.Lookup(key, 2) })
	return nil
}

// cacheBytes is the daemon's default snapshot-cache bound.
const cacheBytes = 64 << 20

// newImageCache builds a snapshot cache configured as the daemon's.
func newImageCache() (*snapcache.Cache[*pix.Image], error) {
	return snapcache.New(snapcache.Config[*pix.Image]{
		MaxBytes: cacheBytes,
		SizeOf:   func(im *pix.Image) int { return len(im.Pix) * 4 },
	})
}

// newBlurPool builds a warm pool of conv2d automata over input, as the
// daemon's /blur route does, without its telemetry observers.
func newBlurPool(input *pix.Image, workers int) (*serve.Pool[*pix.Image], error) {
	pool, err := serve.NewPool("blur", 1, func() (serve.Entry[*pix.Image], error) {
		run, err := conv2d.New(input, conv2d.Config{Workers: workers})
		if err != nil {
			return serve.Entry[*pix.Image]{}, err
		}
		return serve.Entry[*pix.Image]{Automaton: run.Automaton, Out: run.Out}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return pool, pool.Warm(1)
}
