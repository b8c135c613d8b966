package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"anytime/internal/apps/conv2d"
	"anytime/internal/apps/debayer"
	"anytime/internal/apps/histeq"
	"anytime/internal/apps/kmeans"
	"anytime/internal/core"
	"anytime/internal/metrics"
	"anytime/internal/pix"
)

// snrCapDB caps a delivered SNR before it enters a median or a mean: a
// final (bit-exact) answer scores +Inf dB, which no average survives.
const snrCapDB = 60

func capSNR(db float64) float64 {
	if math.IsNaN(db) || db < 0 {
		return 0
	}
	return math.Min(db, snrCapDB)
}

// libApp is one application at the library level: its kernel-only precise
// baseline and a constructor for its anytime automaton, both at a fixed
// input and parameterized only by the worker count.
type libApp struct {
	name string
	// baselineCalls is how many times a repetition times Precise, the median
	// being its baseline: once for a kernel of twenty milliseconds, more for a
	// cheaper one, whose single call is mostly the allocation of its output.
	baselineCalls int
	precise       func(workers int) (*pix.Image, error)
	build         func(workers int) (*core.Automaton, *core.Buffer[*pix.Image], error)
}

// libApps builds the four applications on seeded synthetic inputs. Sizes are
// the ones ROADMAP item 2 states its acceptance at: 512² everywhere except
// kmeans, whose eight Lloyd iterations make 256² the size that fits a run.
func libApps(seed uint64, short bool) (map[string]libApp, error) {
	big, small := 512, 256
	if short {
		big, small = 128, 64
	}
	gray, err := pix.SyntheticGray(big, big, seed)
	if err != nil {
		return nil, err
	}
	rgb, err := pix.SyntheticRGB(big, big, seed)
	if err != nil {
		return nil, err
	}
	mosaic, err := pix.BayerGRBG(rgb)
	if err != nil {
		return nil, err
	}
	rgbSmall, err := pix.SyntheticRGB(small, small, seed)
	if err != nil {
		return nil, err
	}
	return map[string]libApp{
		"conv2d": {
			name: "conv2d", baselineCalls: 1,
			precise: func(w int) (*pix.Image, error) { return conv2d.Precise(gray, conv2d.Config{Workers: w}) },
			build: func(w int) (*core.Automaton, *core.Buffer[*pix.Image], error) {
				r, err := conv2d.New(gray, conv2d.Config{Workers: w})
				if err != nil {
					return nil, nil, err
				}
				return r.Automaton, r.Out, nil
			},
		},
		"debayer": {
			name: "debayer", baselineCalls: 5,
			precise: func(w int) (*pix.Image, error) { return debayer.Precise(mosaic, debayer.Config{Workers: w}) },
			build: func(w int) (*core.Automaton, *core.Buffer[*pix.Image], error) {
				r, err := debayer.New(mosaic, debayer.Config{Workers: w})
				if err != nil {
					return nil, nil, err
				}
				return r.Automaton, r.Out, nil
			},
		},
		"histeq": {
			name: "histeq", baselineCalls: 5,
			precise: func(w int) (*pix.Image, error) { return histeq.Precise(gray, histeq.Config{Workers: w}) },
			build: func(w int) (*core.Automaton, *core.Buffer[*pix.Image], error) {
				r, err := histeq.New(gray, histeq.Config{Workers: w})
				if err != nil {
					return nil, nil, err
				}
				return r.Automaton, r.Out, nil
			},
		},
		"kmeans": {
			name: "kmeans", baselineCalls: 3,
			precise: func(w int) (*pix.Image, error) { return kmeans.Precise(rgbSmall, kmeans.Config{Workers: w}) },
			build: func(w int) (*core.Automaton, *core.Buffer[*pix.Image], error) {
				r, err := kmeans.New(rgbSmall, kmeans.Config{Workers: w})
				if err != nil {
					return nil, nil, err
				}
				return r.Automaton, r.Out, nil
			},
		},
	}, nil
}

// appNames is the fixed order per-app metrics are reported in.
var appNames = []string{"conv2d", "debayer", "histeq", "kmeans"}

// publication is what the permanent OnPublish observer records: when a
// version became visible, which one, and the (immutable, clone-mode) image.
type publication struct {
	at      time.Duration
	version core.Version
	img     *pix.Image
	final   bool
}

// libRunner owns one pooled automaton of one app and runs paired
// repetitions on it: the kernel-only Precise first, then Start → Final →
// Reset on the same automaton, the way a warm serving pool reuses it.
type libRunner struct {
	app libApp
	a   *core.Automaton
	out *core.Buffer[*pix.Image]
	ref *pix.Image

	start time.Time
	pubs  []publication
}

func newLibRunner(app libApp, workers int) (*libRunner, error) {
	ref, err := app.precise(1)
	if err != nil {
		return nil, err
	}
	a, out, err := app.build(workers)
	if err != nil {
		return nil, err
	}
	r := &libRunner{app: app, a: a, out: out, ref: ref}
	// One observer for the automaton's lifetime (observers survive Reset). It
	// runs on the publishing stage's goroutine; the runner reads pubs only
	// after Wait, which orders the two.
	out.OnPublish(func(s core.Snapshot[*pix.Image]) {
		p := publication{time.Since(r.start), s.Version, s.Value, s.Final}
		r.pubs = append(r.pubs, p)
	})
	return r, nil
}

// libRep is one paired repetition's measurements (milliseconds, dB).
type libRep struct {
	baselineMs float64 // Precise timed just before the automaton run (median of the app's baselineCalls)
	firstMs    float64 // Start → first published version
	finalMs    float64 // Start → the Final publish
	resetUs    float64
	versions   int
	snrFirst   float64 // capped SNR of the first published version
	snrAt1x    float64 // capped SNR of what a consumer holds at 1× baseline
	fail       string  // non-empty when a correctness check failed
}

// op reduces a repetition to the per-operation model: the answer is the
// precise output, held against the paired Precise; the quality is what the
// first output was worth.
func (p libRep) op() opSample {
	return opSample{answerMs: p.finalMs, firstMs: p.firstMs, promiseMs: p.baselineMs, snrDB: p.snrFirst}
}

// rep runs one paired repetition. rec may be nil (untraced).
//
// Each repetition starts from a collected heap. The host's two CPUs behave
// like two threads of one core: a collector running beside a kernel slows it
// by a third, so without this one repetition's garbage (32 snapshots of 1 MiB
// for conv2d) would be charged, at random, to the next repetition's baseline.
// Collections the automaton's own allocations trigger during its run are
// part of what it costs and stay inside the timing.
func (r *libRunner) rep(ctx context.Context, rec *spanRecorder, req int) (libRep, error) {
	var out libRep
	clear(r.pubs[:cap(r.pubs)]) // the previous repetition's images are garbage now
	runtime.GC()
	var got *pix.Image
	var calls []float64
	sp := rec.begin("apps.precise", 0, req)
	for i := 0; i < r.app.baselineCalls; i++ {
		t0 := time.Now()
		var err error
		if got, err = r.app.precise(1); err != nil {
			return out, err
		}
		calls = append(calls, ms(time.Since(t0)))
	}
	rec.end(sp)
	rec.count(sp, "calls", r.app.baselineCalls)
	out.baselineMs = median(calls)
	base := time.Duration(out.baselineMs * float64(time.Millisecond))

	r.pubs = r.pubs[:0]
	sp = rec.begin("core.run", 0, req)
	r.start = time.Now()
	if err := r.a.Start(ctx); err != nil {
		return out, err
	}
	werr := r.a.Wait()
	rec.end(sp)
	if werr != nil {
		return out, fmt.Errorf("%s: automaton: %w", r.app.name, werr)
	}
	pubs := r.pubs
	out.versions = len(pubs)
	rec.count(sp, "versions", len(pubs))

	// Correctness: versions strictly increase, the last one is Final, and the
	// Final image is bit-identical to Precise (precise-eventually, §III).
	switch {
	case !slices.Equal(got.Pix, r.ref.Pix):
		out.fail = "Precise is not deterministic"
	case len(pubs) == 0:
		out.fail = "no version published"
	case !pubs[len(pubs)-1].final:
		out.fail = "last version is not final"
	case !slices.Equal(pubs[len(pubs)-1].img.Pix, r.ref.Pix):
		out.fail = "final output differs from Precise"
	}
	for i := 1; i < len(pubs); i++ {
		if pubs[i].version <= pubs[i-1].version {
			out.fail = "versions not strictly increasing"
		}
	}
	if out.fail != "" {
		return out, r.a.Reset()
	}
	out.firstMs = ms(pubs[0].at)
	out.finalMs = ms(pubs[len(pubs)-1].at)

	// What a consumer holds at 1× the paired baseline: the newest version
	// published by then, or — for pipelines whose first output lands later
	// than 1× — the first version, the earliest moment it holds anything.
	held := pubs[0]
	for _, p := range pubs {
		if p.at <= base {
			held = p
		}
	}
	for _, p := range pubs {
		rec.instant("core.publish", sp, req, r.start.Add(p.at), "version", int(p.version))
	}
	score := func(img *pix.Image) (float64, error) {
		db, err := metrics.SNR(r.ref.Pix, img.Pix)
		return capSNR(db), err
	}
	var err error
	if out.snrFirst, err = score(pubs[0].img); err != nil {
		return out, err
	}
	if out.snrAt1x, err = score(held.img); err != nil {
		return out, err
	}

	t0 := time.Now()
	if err := r.a.Reset(); err != nil {
		return out, err
	}
	out.resetUs = float64(time.Since(t0)) / 1e3
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// opSample is the per-operation model every workload reduces to, because
// the acceptance driver has every workload report every end-to-end metric: an
// answer time, the time the first output was visible, the promised time the
// answer is held against, and the quality delivered. README.md says what
// each is on each workload.
type opSample struct {
	answerMs, firstMs, promiseMs, snrDB float64
}

// groupStats summarizes one group of operations (one app, or one served
// workload).
type groupStats struct {
	n                        int
	firstX, answerX          float64 // medians of first ÷ promise and answer ÷ promise
	snrMean                  float64
	lat50, lat90             float64
	over50, over90           float64 // answer − promise
	tailP, tailLat, tailOver float64 // the highest percentile with ten samples beyond it
}

func summarize(ops []opSample) groupStats {
	var first, answer, promise, over, snr []float64
	for _, o := range ops {
		first = append(first, o.firstMs)
		answer = append(answer, o.answerMs)
		promise = append(promise, o.promiseMs)
		over = append(over, o.answerMs-o.promiseMs)
		snr = append(snr, o.snrDB)
	}
	g := groupStats{
		n:       len(ops),
		firstX:  pairedRatioMedian(first, promise),
		answerX: pairedRatioMedian(answer, promise),
		snrMean: mean(snr),
		lat50:   median(answer),
		lat90:   percentile(answer, 90),
		over50:  median(over),
		over90:  percentile(over, 90),
	}
	if p := highestSupported(len(ops)); p > 0 {
		g.tailP, g.tailLat, g.tailOver = p, percentile(answer, p), percentile(over, p)
	}
	return g
}

// runLib measures a library-level workload: paired repetitions of each app,
// interleaved app by app so host-speed drift lands on all of them alike.
// The run is setupRepeats segments, each a fresh set-up (inputs, references,
// pooled automata, discarded warm-up) followed by a third of the rounds, so
// that setup_s is a median and no single automaton's luck with memory
// placement decides the run. perSec is how many rounds — one paired
// repetition of each app — make one nominal second (options.scale).
func runLib(ctx context.Context, o options, apps []string, perSec float64) (*result, error) {
	res := newResult(o)
	if o.trace {
		if err := layerProbe(ctx, res, o); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	warmReps := 5
	if o.short {
		warmReps = 1
	}
	var rec *spanRecorder
	if o.trace {
		rec = newSpanRecorder()
		res.spans = rec
	}
	rounds := o.count(perSec, setupRepeats)
	reps := make([][]libRep, len(apps))         // per app, pooled over segments
	segments := make([][]groupStats, len(apps)) // per app, per segment
	var setups, constructs []float64
	var meter procMeter
	req := 0
	for seg := 0; seg < setupRepeats; seg++ {
		t0 := time.Now()
		// Each segment draws its own inputs from the seed, so a run averages
		// over three images what depends on the image (the first version's
		// SNR, the path k-means takes).
		all, err := libApps(stream(o.seed, fmt.Sprintf("inputs-%d", seg)).next(), o.short)
		if err != nil {
			return nil, err
		}
		var runners []*libRunner
		for _, name := range apps {
			r, err := newLibRunner(all[name], 1)
			if err != nil {
				return nil, err
			}
			runners = append(runners, r)
		}
		constructs = append(constructs, time.Since(t0).Seconds())
		for w := 0; w < warmReps; w++ {
			for _, r := range runners {
				if _, err := r.rep(ctx, nil, 0); err != nil {
					return nil, err
				}
			}
		}
		setups = append(setups, time.Since(t0).Seconds())

		meter.start()
		ops := make([][]opSample, len(apps))
		for n := 0; n < share(rounds, setupRepeats, seg); n++ {
			for i, r := range runners {
				req++
				rep, err := r.rep(ctx, rec, req)
				if err != nil {
					return nil, err
				}
				res.attempted++
				if rep.fail != "" {
					res.failed++
					res.note("%s segment %d rep %d: %s", r.app.name, seg, n, rep.fail)
					continue
				}
				res.ok++
				reps[i] = append(reps[i], rep)
				ops[i] = append(ops[i], rep.op())
			}
		}
		meter.stop()
		for i, name := range apps {
			if len(ops[i]) == 0 {
				return nil, fmt.Errorf("%s: every repetition of segment %d failed its checks", name, seg)
			}
			segments[i] = append(segments[i], summarize(ops[i]))
		}
	}
	res.setupS = median(setups)
	res.constructS = median(constructs)
	res.proc(&meter, res.attempted)
	res.counts["rounds"] = rounds

	pooled := make([]groupStats, len(apps))
	for i, name := range apps {
		ops := make([]opSample, len(reps[i]))
		for j, p := range reps[i] {
			ops[j] = p.op()
		}
		pooled[i] = summarize(ops)
		res.setAppLayers(name, reps[i])
	}
	res.endToEnd(segments)
	res.clientTimes(pooled)
	return res, nil
}

// share splits total into parts that differ by at most one and returns the
// i-th part.
func share(total, parts, i int) int {
	n := total / parts
	if i < total%parts {
		n++
	}
	return n
}

// setAppLayers fills the per-app layer metrics a set of paired repetitions
// supports.
func (res *result) setAppLayers(app string, reps []libRep) {
	var base, first, final, reset, versions, at1x []float64
	for _, p := range reps {
		at1x = append(at1x, p.snrAt1x)
		base = append(base, p.baselineMs)
		first = append(first, p.firstMs)
		final = append(final, p.finalMs)
		reset = append(reset, p.resetUs)
		versions = append(versions, float64(p.versions))
	}
	res.layer["apps."+app+".baseline_ms"] = median(base)
	res.layer["apps."+app+".precise_at_x"] = pairedRatioMedian(final, base)
	res.layer["apps."+app+".first_output_x"] = pairedRatioMedian(first, base)
	res.layer["core."+app+".to_precise_ms"] = median(final)
	res.layer["core."+app+".first_output_ms"] = median(first)
	res.layer["core."+app+".overhead_ms"] = median(final) - median(base)
	res.layer["core."+app+".versions"] = median(versions)
	res.layer["core."+app+".snr_at_1x_db"] = mean(at1x)
	if app == "conv2d" {
		res.layer["core.reset_us"] = median(reset)
	}
}
