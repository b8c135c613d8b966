package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"anytime/internal/metrics"
	"anytime/internal/pix"
)

// maxInFlight bounds the open-loop generator: an arrival that finds this
// many requests outstanding is dropped, and a dropped request is a failed
// one. At the fixed rates the benchmark uses, reaching the bound takes a
// stall of more than a second and a half — the system stopped answering.
// (ISSUE 11 set it at 64, which a 0.4 s stall of this shared host reaches at
// 150 req/s; a hiccup of the host must not fail a run.)
const maxInFlight = 256

// response is everything the generator observed about one request.
type response struct {
	lagMs     float64 // open loop: how late after its due time the request was sent
	latencyMs float64 // from the due time (open loop) or the send (closed loop) to the last body byte
	firstMs   float64 // same origin, to the response headers
	pairedMs  float64 // accept requests: the kernel-only Precise timed just before, else 0
	status    int
	err       error
	dropped   bool

	// The serving contract's headers.
	version     int
	final       bool
	snrDB       float64 // +Inf for "inf"; NaN when absent
	elapsedMs   float64 // X-Anytime-Elapsed
	deadlineMs  float64 // X-Anytime-Deadline
	effectiveMs float64 // X-Anytime-Effective-Deadline
	cache       string  // X-Anytime-Cache
	hedged      bool    // X-Anytime-Hedged

	fail string // non-empty when a correctness check failed
}

// ok reports whether the request was answered 200 and passed its checks.
func (r *response) ok() bool {
	return r.err == nil && !r.dropped && r.status == http.StatusOK && r.fail == ""
}

// oracle checks answers against the runner's own reference, independent of
// anything the server says about itself.
type oracle struct {
	ref    *pix.Image // the runner's own Precise output for the served input
	accept float64    // accept knob in dB, 0 when the workload uses deadlines
}

// rescoreEvery is how often an answer's X-Anytime-SNR-dB is recomputed from
// its body; every answer is decoded and dimension-checked.
const rescoreEvery = 16

// check applies the serving contract's checks to the idx-th answer.
func (o *oracle) check(r *response, body []byte, idx int) {
	if r.err != nil || r.status != http.StatusOK {
		return
	}
	img, err := pix.DecodePNM(bytes.NewReader(body))
	switch {
	case err != nil:
		r.fail = "body does not decode: " + err.Error()
	case img.W != o.ref.W || img.H != o.ref.H || img.C != o.ref.C:
		r.fail = fmt.Sprintf("body is %dx%dx%d, want %dx%dx%d", img.W, img.H, img.C, o.ref.W, o.ref.H, o.ref.C)
	case r.version < 1:
		r.fail = "answer carries no version: the contract never returns empty-handed"
	case math.IsNaN(r.snrDB):
		r.fail = "answer carries no X-Anytime-SNR-dB"
	case r.final && !slices.Equal(img.Pix, o.ref.Pix):
		r.fail = "final answer is not bit-identical to Precise"
	case o.accept > 0 && !r.final && r.snrDB < o.accept:
		r.fail = fmt.Sprintf("accept=%g answered %.2f dB", o.accept, r.snrDB)
	}
	if r.fail != "" || idx%rescoreEvery != 0 {
		return
	}
	db, err := metrics.SNR(o.ref.Pix, img.Pix)
	if err != nil {
		r.fail = "rescore: " + err.Error()
		return
	}
	// The header is printed to two decimals, so ±0.01 dB plus the rounding.
	if math.IsInf(db, 1) != math.IsInf(r.snrDB, 1) || (!math.IsInf(db, 1) && math.Abs(db-r.snrDB) > 0.0151) {
		r.fail = fmt.Sprintf("X-Anytime-SNR-dB says %.2f, body scores %.2f", r.snrDB, db)
	}
}

// parseHeaders reads the contract headers into r.
func parseHeaders(r *response, h http.Header) {
	r.version, _ = strconv.Atoi(h.Get("X-Anytime-Version"))
	r.final = h.Get("X-Anytime-Final") == "true"
	r.snrDB = math.NaN()
	switch v := h.Get("X-Anytime-SNR-dB"); v {
	case "":
	case "inf":
		r.snrDB = math.Inf(1)
	default:
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			r.snrDB = f
		}
	}
	r.elapsedMs = durationHeader(h, "X-Anytime-Elapsed")
	r.deadlineMs = durationHeader(h, "X-Anytime-Deadline")
	r.effectiveMs = durationHeader(h, "X-Anytime-Effective-Deadline")
	r.cache = h.Get("X-Anytime-Cache")
	r.hedged = h.Get("X-Anytime-Hedged") == "true"
}

func durationHeader(h http.Header, name string) float64 {
	d, err := time.ParseDuration(h.Get(name))
	if err != nil {
		return 0
	}
	return ms(d)
}

// fetch performs one GET, timing from origin, reading the whole body into
// buf. Checks run after the clock has stopped.
func fetch(client *http.Client, url string, origin time.Time, buf *bytes.Buffer) response {
	var r response
	resp, err := client.Get(url)
	r.firstMs = ms(time.Since(origin))
	if err != nil {
		r.err = err
		return r
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	r.latencyMs = ms(time.Since(origin))
	resp.Body.Close()
	if err != nil {
		r.err = err
		return r
	}
	r.status = resp.StatusCode
	parseHeaders(&r, resp.Header)
	return r
}

// closedLoop sends n requests one after another from a single client, the
// next one only after the previous answer was read and checked. next yields
// the i-th request's URL.
func closedLoop(client *http.Client, n int, next func(i int) string, check func(*response, []byte, int), rec *spanRecorder) []response {
	out := make([]response, n)
	var buf bytes.Buffer
	for i := range out {
		url := next(i)
		sp := rec.begin("client.request", 0, i+1)
		out[i] = fetch(client, url, time.Now(), &buf)
		rec.end(sp)
		check(&out[i], buf.Bytes(), i)
	}
	return out
}

// openLoop sends one request per scheduled arrival regardless of how the
// earlier ones are faring, and times each from the moment it was due: a
// stall in the system under test (or in this generator) shows up in the
// latency of every request scheduled during it, not just the one that hit
// it. urls[i] is the i-th arrival's request.
func openLoop(client *http.Client, sched []time.Duration, urls []string, check func(*response, []byte, int), rec *spanRecorder) []response {
	out := make([]response, len(sched))
	inFlight := make(chan struct{}, maxInFlight) // semaphore: one token per outstanding request
	bufs := sync.Pool{New: func() any { return new(bytes.Buffer) }}
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range sched {
		due := start.Add(off)
		time.Sleep(time.Until(due))
		lag := ms(time.Since(due))
		select {
		case inFlight <- struct{}{}:
		default:
			out[i] = response{dropped: true, lagMs: lag}
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := bufs.Get().(*bytes.Buffer)
			sp := rec.begin("client.request", 0, i+1)
			r := fetch(client, urls[i], due, buf)
			rec.end(sp)
			<-inFlight
			r.lagMs = lag
			check(&r, buf.Bytes(), i)
			bufs.Put(buf)
			out[i] = r
		}(i)
	}
	wg.Wait()
	return out
}
