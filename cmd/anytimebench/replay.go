package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"time"

	"anytime/internal/core"
	"anytime/internal/metrics"
	"anytime/internal/pix"
	"anytime/internal/serve"
	"anytime/internal/snapcache"
)

// replaySpans are the children of a replayed request, in the order the
// daemon's handler makes the calls.
var replaySpans = []string{
	"serve.queue_acquire", "serve.pool_get", "snapcache.seed", "serve.run",
	"metrics.snr", "pix.encode_pnm", "daemon.write", "snapcache.admit", "serve.pool_put",
}

// replayer performs the daemon handler's sequence of public calls on the
// runner's own queue, pool and cache, one span per call, so the handler's
// time can be apportioned between layers without touching the handler.
type replayer struct {
	spec  servedSpec
	ref   *pix.Image
	queue *serve.Queue
	pool  *serve.Pool[*pix.Image]
	cache *snapcache.Cache[*pix.Image]
	body  bytes.Buffer
}

func newReplayer(st *stack) (*replayer, error) {
	cfg := st.spec.cfg
	if cfg.Slots == 0 {
		cfg.Slots = 8 // the daemon's defaults
	}
	if cfg.QueueLen == 0 {
		cfg.QueueLen = 32
	}
	queue, err := serve.NewQueue(cfg.Slots, cfg.QueueLen, nil)
	if err != nil {
		return nil, err
	}
	pool, err := newBlurPool(st.input, st.spec.workers)
	if err != nil {
		return nil, err
	}
	cache, err := newImageCache()
	if err != nil {
		return nil, err
	}
	return &replayer{spec: st.spec, ref: st.ref, queue: queue, pool: pool, cache: cache}, nil
}

// request replays one request under a root span named "request".
func (p *replayer) request(ctx context.Context, rec *spanRecorder, req int, key string) error {
	root := rec.begin("request", 0, req)
	defer rec.end(root)
	child := func(name string, f func() error) error {
		sp := rec.begin(name, root, req)
		defer rec.end(sp)
		return f()
	}
	if err := child("serve.queue_acquire", func() error { return p.queue.Acquire(ctx) }); err != nil {
		return err
	}
	defer p.queue.Release()
	var entry serve.Entry[*pix.Image]
	if err := child("serve.pool_get", func() (err error) { entry, err = p.pool.Get(ctx); return }); err != nil {
		return err
	}
	ck := snapcache.Key{App: "blur", Digest: key, Epoch: 1}
	snrCalls := 0
	var res serve.Result[*pix.Image]
	var err error
	if p.spec.accept > 0 {
		// The accept knob never consults the cache; its run scores every
		// version it is handed, on this goroutine.
		run := rec.begin("serve.run", root, req)
		res, err = serve.RunUntil(ctx, entry, func(sn core.Snapshot[*pix.Image]) bool {
			sp := rec.begin("metrics.snr", run, req)
			db, err := metrics.SNR(p.ref.Pix, sn.Value.Pix)
			rec.end(sp)
			snrCalls++
			return err == nil && db >= p.spec.accept
		}, nil)
		rec.end(run)
	} else {
		_ = child("snapcache.seed", func() error { serve.SeedFromCache(ctx, entry, p.cache, ck); return nil })
		err = child("serve.run", func() (err error) { res, err = serve.Run(ctx, entry, p.spec.deadline, nil); return })
	}
	if err != nil {
		return err
	}
	var db float64
	if err := child("metrics.snr", func() (err error) { db, err = metrics.SNR(p.ref.Pix, res.Snapshot.Value.Pix); return }); err != nil {
		return err
	}
	snrCalls++
	rec.count(root, "snr_calls", snrCalls)
	rec.count(root, "version", int(res.Snapshot.Version))
	if err := child("pix.encode_pnm", func() error {
		p.body.Reset()
		return pix.EncodePNM(&p.body, res.Snapshot.Value)
	}); err != nil {
		return err
	}
	if err := child("daemon.write", func() error {
		w := httptest.NewRecorder()
		w.Header().Set("X-Anytime-Version", fmt.Sprint(res.Snapshot.Version))
		w.Header().Set("X-Anytime-SNR-dB", metrics.FormatDB(db))
		_, err := w.Write(p.body.Bytes())
		return err
	}); err != nil {
		return err
	}
	if p.spec.deadline > 0 {
		if math.IsInf(db, 0) {
			db = 0
		}
		_ = child("snapcache.admit", func() error { serve.Admit(p.cache, ck, res, db); return nil })
	}
	return child("serve.pool_put", func() error { return p.pool.Put(entry) })
}

// tracedServed is the traced pass of a served workload. It runs the
// workload's own traffic untraced and then traced (the difference is the
// tracing overhead), reads the layers' own counters over the traced stretch,
// and then issues requests in rotation — over the wire, straight into the
// handler, as a replay of the handler's public calls, and (on a fleet)
// through the router — to split a request's time between layers.
func tracedServed(ctx context.Context, res *result, st *stack, gen *generator) error {
	o := res.opts
	rec := newSpanRecorder()
	res.spans = rec
	spec := st.spec

	plain := st.load(gen, o.scale(), nil)
	before, err := st.scrape()
	if err != nil {
		return err
	}
	var meter procMeter
	meter.start()
	traced := st.load(gen, o.scale(), rec)
	meter.stop()
	after, err := st.scrape()
	if err != nil {
		return err
	}
	res.tally(spec, traced)
	res.proc(&meter, len(traced.responses))
	if err := res.clientLayers(spec, traced); err != nil {
		return err
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	n := float64(len(traced.responses))
	if c := delta("anytime_serve_queue_wait_seconds_count"); c > 0 {
		res.layer["serve.queue_wait_ms"] = delta("anytime_serve_queue_wait_seconds_sum") / c * 1e3
	}
	res.layer["serve.rejected_share"] = delta("anytime_serve_rejected_total") / n
	res.layer["snapcache.evictions_per_req"] = delta("anytime_snapcache_evictions_total") / n
	latency := func(r *response) float64 { return r.latencyMs }
	res.layer["trace.overhead_share"] = medianOf(traced.responses, latency)/medianOf(plain.responses, latency) - 1
	return res.rotate(ctx, st, gen.keys, rec)
}

// medianOf is the median of f over the answered requests.
func medianOf(rs []response, f func(*response) float64) float64 {
	var xs []float64
	for i := range rs {
		if rs[i].ok() {
			xs = append(xs, f(&rs[i]))
		}
	}
	return median(xs)
}

// rotationsPerSecond is how many rounds of the rotation — one request each
// way — make one nominal second.
const rotationsPerSecond = 11

// rotate issues closed-loop requests in turn, one at a time: over the wire
// to backend 0, into backend 0's handler, as a replay, and — when there is a
// router — through it. One request at a time means no queueing, so the router
// hop is what the routed way waits beyond the backend's own run, minus the
// same for the wire way. (Subtracting open-loop latencies instead would
// charge the hop with the budget the router trims and the queueing that
// follows from it.)
func (res *result) rotate(ctx context.Context, st *stack, keys *keyStream, rec *spanRecorder) error {
	spec := st.spec
	rp, err := newReplayer(st)
	if err != nil {
		return err
	}
	orc := &oracle{ref: st.ref, accept: spec.accept}
	ways := 3
	if st.front != nil {
		ways = 4
	}
	var aroundWire, aroundRouted []float64
	var buf bytes.Buffer
	rounds := res.opts.count(rotationsPerSecond, 3)
	res.counts["rotation_rounds"] = rounds
	const reqBase = 1 << 20 // keeps rotation request ids apart from the load pass's
	for i := 0; i < rounds*ways; i++ {
		key, req := keys.next(), reqBase+i
		switch i % ways {
		case 0, 3:
			name, base, around := "client.wire", st.backends[0].URL, &aroundWire
			if i%ways == 3 {
				name, base, around = "client.routed", st.front.URL, &aroundRouted
			}
			sp := rec.begin(name, 0, req)
			r := fetch(st.client, spec.requestURL(base, key), time.Now(), &buf)
			rec.end(sp)
			orc.check(&r, buf.Bytes(), i)
			if !r.ok() {
				return fmt.Errorf("rotation %s request: status %d err %v %s", name, r.status, r.err, r.fail)
			}
			*around = append(*around, r.latencyMs-r.elapsedMs)
		case 1:
			w := httptest.NewRecorder()
			hr := httptest.NewRequest("GET", spec.requestURL("", key), nil)
			sp := rec.begin("daemon.handler", 0, req)
			st.servers[0].ServeHTTP(w, hr)
			rec.end(sp)
			r := response{status: w.Code}
			parseHeaders(&r, w.Header())
			orc.check(&r, w.Body.Bytes(), i)
			if !r.ok() {
				return fmt.Errorf("rotation handler request: status %d %s", r.status, r.fail)
			}
		case 2:
			if err := rp.request(ctx, rec, req, key); err != nil {
				return fmt.Errorf("rotation replay: %w", err)
			}
		}
	}
	if st.front != nil {
		res.layer["cluster.hop_ms"] = median(aroundRouted) - median(aroundWire)
	}

	spans := rec.closed()
	self := selfTimes(spans)
	wire, handler, replay := median(durationsMs(spans, "client.wire")), median(durationsMs(spans, "daemon.handler")), median(durationsMs(spans, "request"))
	part := func(names ...string) float64 {
		sum := 0.0
		for _, n := range names {
			sum += median(durationsMs(spans, n))
		}
		return sum
	}
	res.layer["daemon.handler_ms"] = handler
	res.layer["daemon.http_ms"] = wire - handler
	res.layer["serve.run_ms"] = part("serve.run")
	res.layer["pix.encode_req_ms"] = part("pix.encode_pnm")
	res.layer["daemon.write_ms"] = part("daemon.write")
	res.layer["serve.checkin_ms"] = part("serve.pool_put")
	res.layer["snapcache.req_ms"] = part("snapcache.seed", "snapcache.admit")

	// Per replayed request: SNR time (every call, including those inside an
	// accept run), SNR calls, and the share of the request no child covers.
	var snrMs, snrCalls, unattributed []float64
	perReq := map[int]float64{}
	for _, s := range spans {
		if s.Name == "metrics.snr" {
			perReq[s.Req] += float64(s.End-s.Start) / 1e6
		}
	}
	for _, s := range spans {
		if s.Name != "request" {
			continue
		}
		snrMs = append(snrMs, perReq[s.Req])
		snrCalls = append(snrCalls, float64(s.Counts["snr_calls"]))
		unattributed = append(unattributed, float64(self[s.ID])/float64(s.End-s.Start))
	}
	res.layer["metrics.snr_req_ms"] = median(snrMs)
	res.layer["metrics.snr_calls_per_req"] = median(snrCalls)
	res.layer["trace.unattributed_share"] = median(unattributed)
	res.layer["trace.replay_drift_share"] = math.Abs(replay-handler) / handler
	res.layer["daemon.glue_ms"] = handler - part(replaySpans...)

	// The budget must close on the closed-loop workloads, where one request
	// runs at a time and the replay sees what the handler sees.
	if spec.rate == 0 && !res.opts.short {
		if u := res.layer["trace.unattributed_share"]; u > 0.10 {
			res.asserts = append(res.asserts, fmt.Sprintf("replayed children cover only %.0f%% of the request", 100*(1-u)))
		}
		if d := res.layer["trace.replay_drift_share"]; d > 0.15 {
			res.asserts = append(res.asserts, fmt.Sprintf("replay median %.2f ms is %.0f%% off the handler's %.2f ms", replay, 100*d, handler))
		}
	}
	return nil
}

// clientLayers fills the client.* layer — the generator's own view — and the
// layers read off the contract headers.
func (res *result) clientLayers(spec servedSpec, p pass) error {
	ops := spec.ops(p.responses)
	if len(ops) == 0 {
		return fmt.Errorf("traced pass: none of %d requests was answered", len(p.responses))
	}
	res.clientTimes([]groupStats{summarize(ops)})

	var lag, snr, version, elapsed, shed []float64
	var dropped, within, final, hits, hedged int
	for i := range p.responses {
		r := &p.responses[i]
		lag = append(lag, r.lagMs)
		if r.dropped {
			dropped++
		}
		if !r.ok() {
			continue
		}
		snr = append(snr, capSNR(r.snrDB))
		version = append(version, float64(r.version))
		elapsed = append(elapsed, r.elapsedMs)
		if spec.deadline > 0 {
			if r.latencyMs <= ms(spec.deadline)+10 {
				within++
			}
			if r.deadlineMs > 0 {
				shed = append(shed, r.effectiveMs/r.deadlineMs)
			}
		}
		if r.final {
			final++
		}
		if r.cache == "hit" {
			hits++
		}
		if r.hedged {
			hedged++
		}
	}
	sent, answered := float64(len(p.responses)), float64(len(ops))
	res.layer["client.sched_lag_p90_ms"] = percentile(lag, 90)
	res.layer["client.dropped_share"] = float64(dropped) / sent
	res.layer["client.within_deadline_share"] = float64(within) / sent
	res.layer["client.snr_p10_db"] = percentile(snr, 10)
	res.layer["client.snr_p50_db"] = median(snr)
	res.layer["client.snr_mean_db"] = mean(snr)
	res.layer["client.final_share"] = float64(final) / answered
	res.layer["serve.shed_factor_mean"] = 1 // no deadline scaled: the controller was idle
	if len(shed) > 0 {
		res.layer["serve.shed_factor_mean"] = mean(shed)
	}
	res.layer["serve.version_p50"] = median(version)
	res.layer["daemon.server_elapsed_ms"] = median(elapsed)
	res.layer["snapcache.hit_share"] = float64(hits) / answered
	res.layer["cluster.hedged_share"] = float64(hedged) / answered
	return nil
}
