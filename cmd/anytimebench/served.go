package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"time"

	"anytime/internal/apps/conv2d"
	"anytime/internal/cluster"
	"anytime/internal/daemon"
	"anytime/internal/pix"
)

// servedSpec fixes one served workload. README.md gives the reason for each
// constant.
type servedSpec struct {
	size     int           // side of the served image
	workers  int           // automaton workers per request
	cfg      daemon.Config // serving runtime knobs
	backends int           // 0: one server, no router; n: n backends behind a router
	deadline time.Duration // deadline knob, or 0 when the workload uses accept
	accept   float64       // accept knob in dB
	rate     float64       // open loop: Poisson arrivals per second; 0: closed loop, one client
	perSec   float64       // closed loop: requests that make one nominal second (options.scale)
	warm     int           // closed loop: discarded warm-up requests per set-up
}

// warmSeconds is the discarded head of an open-loop segment.
const warmSeconds = 1.0

var (
	serveDeadline = servedSpec{size: 512, workers: 2, deadline: 25 * time.Millisecond, perSec: 33, warm: 70}
	serveAccept   = servedSpec{size: 512, workers: 2, accept: 30, perSec: 32, warm: 20}
	serveOverload = servedSpec{size: 256, workers: 1, cfg: daemon.Config{Slots: 1, QueueLen: 8},
		deadline: 15 * time.Millisecond, rate: 150}
	fleetNominal = servedSpec{size: 256, workers: 1, cfg: daemon.Config{Slots: 1, QueueLen: 8}, backends: 2,
		deadline: 15 * time.Millisecond, rate: 50}
)

// daemonInputSeed is the seed internal/daemon builds its synthetic input
// with; the runner builds the same input to score answers against its own
// Precise output. Set-up proves the two agree with a precise request.
const daemonInputSeed = 1

// stack is the system under test for one served workload: the backends, the
// optional router in front, and the one client all load goes through.
type stack struct {
	spec     servedSpec
	servers  []*daemon.Server
	backends []*httptest.Server
	router   *cluster.Router
	front    *httptest.Server
	client   *http.Client
	input    *pix.Image
	ref      *pix.Image
	ring     *cluster.Ring // the ring the router routes by, rebuilt from the same member names
	names    []string      // ring member name of each backend
}

// base is the URL load is sent to.
func (s *stack) base() string {
	if s.front != nil {
		return s.front.URL
	}
	return s.backends[0].URL
}

func (s *stack) close() {
	if s.front != nil {
		s.front.Close()
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, b := range s.backends {
		b.Close()
	}
	s.client.CloseIdleConnections()
}

// newStack constructs the system under test: inputs, the runner's own
// reference, servers on loopback listeners, the router and its first health
// sweep, and one precise request that proves the reference is the server's.
func newStack(ctx context.Context, spec servedSpec) (_ *stack, err error) {
	s := &stack{spec: spec}
	// One client for all load. A closed loop keeps one connection busy; an
	// open loop may hold as many as it has requests in flight, so that reuse,
	// not dialing, is what a request pays for.
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: maxInFlight,
		MaxIdleConns:        2 * maxInFlight,
	}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.input, err = pix.SyntheticGray(spec.size, spec.size, daemonInputSeed); err != nil {
		return nil, err
	}
	if s.ref, err = conv2d.Precise(s.input, conv2d.Config{Workers: 1}); err != nil {
		return nil, err
	}
	for i := 0; i < max(1, spec.backends); i++ {
		srv, err := daemon.New(spec.size, spec.workers, spec.cfg)
		if err != nil {
			return nil, err
		}
		ts := httptest.NewServer(srv)
		s.servers = append(s.servers, srv)
		s.backends = append(s.backends, ts)
		u, err := url.Parse(ts.URL)
		if err != nil {
			return nil, err
		}
		s.names = append(s.names, u.Host)
	}
	if spec.backends > 0 {
		urls := make([]string, len(s.backends))
		for i, b := range s.backends {
			urls[i] = b.URL
		}
		s.router, err = cluster.NewRouter(cluster.RouterConfig{
			Backends:      urls,
			CheckInterval: 200 * time.Millisecond,
			Client:        &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxInFlight}},
		})
		if err != nil {
			return nil, err
		}
		s.router.Checker().Sweep(ctx)
		s.router.Start(ctx)
		s.front = httptest.NewServer(s.router)
		s.ring = cluster.NewRing(s.names, cluster.DefaultReplicas)
	}
	// The no-knob request runs to the precise output: final, and bit-identical
	// to the runner's reference, or the reference is not the server's.
	o := oracle{ref: s.ref}
	var body bytes.Buffer
	r := fetch(s.client, s.base()+"/blur?input=reference-check", time.Now(), &body)
	if r.err != nil {
		return nil, r.err
	}
	o.check(&r, body.Bytes(), 0)
	if r.status != http.StatusOK || !r.final || r.fail != "" {
		return nil, fmt.Errorf("precise request: status %d final %v: %s", r.status, r.final, r.fail)
	}
	return s, nil
}

// query is the knob part of a request URL.
func (spec servedSpec) query() string {
	if spec.accept > 0 {
		return "accept=" + strconv.FormatFloat(spec.accept, 'g', -1, 64)
	}
	return "deadline=" + spec.deadline.String()
}

// requestURL builds the URL of one request for the given key against base.
func (spec servedSpec) requestURL(base, key string) string {
	return base + "/blur?" + spec.query() + "&input=" + key
}

// routedKeys returns n keys whose ring primaries follow a backend sequence
// drawn from the seed. Backends listen on ephemeral ports and the ring
// hashes member names, so the raw key stream would split differently between
// backends on every run; drawing the split from the seed and rejecting keys
// that land elsewhere makes the placement a function of the seed alone,
// with the binomial imbalance a hash split has.
func (s *stack) routedKeys(keys *keyStream, pick *rng, n int) []string {
	if s.ring == nil {
		return keys.take(n)
	}
	out := make([]string, n)
	for i := range out {
		want := s.names[pick.next()%uint64(len(s.names))]
		for {
			k := keys.next()
			if s.ring.Lookup(cluster.RingKey("/blur", k), 1)[0] == want {
				out[i] = k
				break
			}
		}
	}
	return out
}

// scrape sums the named series of every backend's /metrics.
func (s *stack) scrape() (map[string]float64, error) {
	sum := map[string]float64{}
	for _, b := range s.backends {
		resp, err := s.client.Get(b.URL + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			name, _, _ := strings.Cut(line[:i], "{")
			sum[name] += v
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return sum, nil
}

// pass is one stretch of load against a stack.
type pass struct {
	responses []response
	sched     []time.Duration
}

// load drives the workload's own traffic pattern for the given number of
// nominal seconds: that many times perSec requests one after another, or a
// Poisson schedule over that window. The schedule and its keys are drawn
// before the clock starts, from the seed and the pass's number alone.
func (s *stack) load(gen *generator, seconds float64, rec *spanRecorder) pass {
	if s.spec.rate == 0 {
		return pass{responses: s.closed(gen.keys, rec, max(3, int(math.Round(s.spec.perSec*seconds))))}
	}
	orc := &oracle{ref: s.ref, accept: s.spec.accept}
	sched, placement := gen.arrivals(s.spec.rate, time.Duration(seconds*float64(time.Second)))
	ks := s.routedKeys(gen.keys, placement, len(sched))
	urls := make([]string, len(sched))
	for i, k := range ks {
		urls[i] = s.spec.requestURL(s.base(), k)
	}
	return pass{responses: openLoop(s.client, sched, urls, orc.check, rec), sched: sched}
}

// warmUp is the discarded head of a segment: enough requests to fill the
// pools, the connections and — on deadline workloads — the snapshot cache,
// so the measurement sees the steady miss → admit → evict state.
func (s *stack) warmUp(gen *generator, short bool) {
	switch {
	case s.spec.rate > 0 && short:
		s.load(gen, warmSeconds/10, nil)
	case s.spec.rate > 0:
		s.load(gen, warmSeconds, nil)
	case short:
		s.closed(gen.keys, nil, 3)
	default:
		s.closed(gen.keys, nil, s.spec.warm)
	}
}

// closed sends n of the workload's requests one at a time.
//
// An accept request promises no time, so the time it is held against is the
// paper's 1×: the kernel-only Precise of the served app at the served size,
// timed in this process before every pairEvery-th request, while the one
// client is between requests and the server idle. Pairing in time is what
// makes the ratio hold still on a host whose speed drifts by a fifth from
// one minute to the next.
func (s *stack) closed(keys *keyStream, rec *spanRecorder, n int) []response {
	orc := &oracle{ref: s.ref, accept: s.spec.accept}
	paired := make([]float64, n)
	var pairErr error
	next := func(i int) string {
		switch {
		case s.spec.accept == 0:
		case i%pairEvery == 0:
			t0 := time.Now()
			if _, err := conv2d.Precise(s.input, conv2d.Config{Workers: pairWorkers}); err != nil {
				pairErr = err
			}
			paired[i] = ms(time.Since(t0))
		default:
			paired[i] = paired[i-1]
		}
		return s.spec.requestURL(s.base(), keys.next())
	}
	out := closedLoop(s.client, n, next, orc.check, rec)
	for i := range out {
		out[i].pairedMs = paired[i]
		if pairErr != nil && out[i].fail == "" {
			out[i].fail = "paired Precise: " + pairErr.Error()
		}
	}
	return out
}

// pairEvery is how many accept requests share one timing of the kernel, and
// pairWorkers the workers it runs with: one, as the library workloads' 1×.
const (
	pairEvery   = 4
	pairWorkers = 1
)

// runServed measures a served workload. Like runLib, the run is setupRepeats
// segments: a fresh stack and its discarded warm-up (timed: setup_s is their
// median), then a third of the load; endToEnd averages the segments. The
// traced pass runs on the last stack only.
func runServed(ctx context.Context, o options, spec servedSpec) (*result, error) {
	res := newResult(o)
	if o.short {
		spec.size /= 4
	}
	if o.trace {
		if err := layerProbe(ctx, res, o); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	gen := newGenerator(o.seed)
	var setups, constructs []float64
	var segments []groupStats
	var meter procMeter
	for seg := 0; seg < setupRepeats; seg++ {
		t0 := time.Now()
		st, err := newStack(ctx, spec)
		if err != nil {
			return nil, err
		}
		constructs = append(constructs, time.Since(t0).Seconds())
		st.warmUp(gen, o.short)
		setups = append(setups, time.Since(t0).Seconds())
		res.setupS, res.constructS = median(setups), median(constructs)
		switch {
		case !o.trace:
			meter.start()
			p := st.load(gen, o.scale()/setupRepeats, nil)
			meter.stop()
			res.tally(spec, p)
			ops := spec.ops(p.responses)
			if len(ops) == 0 {
				err = fmt.Errorf("segment %d: none of %d requests was answered", seg, len(p.responses))
				break
			}
			segments = append(segments, summarize(ops))
		case seg == setupRepeats-1:
			err = tracedServed(ctx, res, st, gen)
		}
		st.close()
		if err != nil {
			return nil, err
		}
	}
	if o.trace {
		return res, nil
	}
	res.proc(&meter, res.attempted)
	res.endToEnd([][]groupStats{segments})
	return res, nil
}

// tally counts a pass's outcomes. A refusal — a backend's 503 from a full
// admission queue, or the router's 502 when every backend it tried refused —
// is the system's designed answer to more work than it can hold, not a
// broken operation: it lowers ok_share and is reported as
// serve.rejected_share. It is the steady state of serve_overload, and on
// fleet_nominal it is what a quarter-second stall of the host looks like
// (a dozen arrivals land at once on two nine-place backends). failed stays
// for what must never happen: a transport error, any other status, a
// refusal on a one-client workload, a dropped arrival, an answer that fails
// its checks.
func (res *result) tally(spec servedSpec, p pass) {
	for i := range p.responses {
		r := &p.responses[i]
		res.attempted++
		switch {
		case r.ok():
			res.ok++
		case spec.refused(r):
			res.refused++
		default:
			res.failed++
			switch {
			case r.dropped:
				res.note("request %d dropped: %d already in flight", i, maxInFlight)
			case r.err != nil:
				res.note("request %d: %v", i, r.err)
			case r.fail != "":
				res.note("request %d: %s", i, r.fail)
			default:
				res.note("request %d: status %d", i, r.status)
			}
		}
	}
	res.counts["requests"] += len(p.responses)
	if p.sched != nil {
		res.counts["schedule_len"] += len(p.sched)
	}
}

// refused reports whether r is a refusal the workload allows.
func (spec servedSpec) refused(r *response) bool {
	if r.err != nil || r.dropped || spec.rate == 0 {
		return false
	}
	return r.status == http.StatusServiceUnavailable || (spec.backends > 0 && r.status == http.StatusBadGateway)
}

// ops reduces the answered requests to the per-operation model. The promise
// an answer is held against is the requested deadline when the request goes
// straight to a backend, and the paired kernel-only Precise for an accept
// request, which promises no time (see closed). A routed request is handed a
// budget shorter than its deadline (the router subtracts what it spent and
// the backend's round trip), so its time says more about that arithmetic
// than about the fleet tier: it is held against the time the backend reports
// having spent (X-Anytime-Elapsed), and what exceeds that is what the client
// waited on top — transport, admission, the router hop.
func (spec servedSpec) ops(rs []response) []opSample {
	var out []opSample
	for i := range rs {
		r := &rs[i]
		if !r.ok() {
			continue
		}
		promise := r.elapsedMs
		switch {
		case spec.deadline > 0 && spec.backends == 0:
			promise = ms(spec.deadline)
		case r.pairedMs > 0:
			promise = r.pairedMs
		}
		out = append(out, opSample{answerMs: r.latencyMs, firstMs: r.firstMs, promiseMs: promise, snrDB: capSNR(r.snrDB)})
	}
	return out
}
