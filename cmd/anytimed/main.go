// Command anytimed serves anytime computations over HTTP — the paper's
// introduction scenario ("imagine typing a search engine query and instead
// of pressing the enter key, you hold it based on the desired amount of
// precision") as a service: the longer a client is willing to hold the
// request, the more precise the response.
//
// Usage:
//
//	anytimed [-addr :8080] [-size 256] [-workers 2] [-slots 8] [-queue 32]
//	         [-warm 1] [-pprof]
//	         [-flight-recorder-size 256] [-trace-sample 16]
//
// Endpoints (all return binary PGM/PPM with X-Anytime-* headers):
//
//	GET /blur?deadline=50ms    blur, best published output within 50ms of
//	                           arrival (never empty-handed; queue wait
//	                           comes off the run; 503 at once if the wait
//	                           ahead would spend the deadline)
//	GET /blur?accept=25        …or until the output reaches 25 dB
//	GET /equalize?deadline=10ms  histogram equalization, same knobs
//	GET /cluster?deadline=100ms  k-means clustering, same knobs
//
// Omitting every knob returns the bit-exact precise output.
//
// Every request runs cold. ?input=KEY is read only by cmd/anytimerouter,
// whose ring places requests by it; a backend serves it as a plain request.
//
// Running behind cmd/anytimerouter, a deadline request may arrive with an
// X-Anytime-Budget header: the remaining deadline budget after the router's
// queue wait and the network hop. The budget caps the effective deadline,
// and the backend's own queue wait comes off it like off any deadline, so a
// backend never runs longer than the budget it was handed.
//
// Operational endpoints:
//
//	GET /metrics               Prometheus text exposition: per-stage
//	                           checkpoint latency, per-buffer publish
//	                           counts and version watermarks, pool/queue/
//	                           delivery series, HTTP request counts/latency
//	GET /debug/vars            the same registry as expvar JSON
//	GET /debug/requests        flight recorder: recent request traces with
//	                           full span timelines (?id=<X-Anytime-Trace>
//	                           for one trace; .json for machines)
//	GET /healthz               liveness probe (503 while draining)
//	POST /drain                start draining: healthz goes 503 so routers
//	                           stop sending new work; in-flight completes
//	DELETE /drain              stop draining, rejoin the fleet
//	GET /debug/pprof/          runtime profiler (only with -pprof)
//
// Every app response carries an X-Anytime-Trace header naming its request
// trace. Errors, rejections, deadline misses and the slowest requests are
// always retained by the flight recorder; unremarkable successes are
// sampled one in -trace-sample.
//
// docs/OPERATIONS.md is the operator's handbook: every flag and knob, pool
// and queue sizing, reading an overload, fleet topology, and
// the full metrics reference. The server itself lives in internal/daemon so
// the cluster harness can run real backends in-process.
package main

import (
	"flag"
	"log"
	"net/http"

	"anytime/internal/daemon"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	size := flag.Int("size", 256, "synthetic image side length")
	workers := flag.Int("workers", 2, "workers per stage")
	slots := flag.Int("slots", 8, "automata running concurrently (pool capacity per route)")
	queueLen := flag.Int("queue", 32, "requests waiting for a slot before rejection (-1 = none)")
	warm := flag.Int("warm", 1, "automata prebuilt per route pool at startup")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	flightSize := flag.Int("flight-recorder-size", 256, "completed request traces retained for /debug/requests")
	traceSample := flag.Int("trace-sample", 16, "retain 1 in N unremarkable OK request traces (errors, rejections, deadline misses and the slowest are always retained)")
	flag.Parse()

	srv, err := daemon.New(*size, *workers, daemon.Config{
		Pprof:       *pprofOn,
		Slots:       *slots,
		QueueLen:    *queueLen,
		Warm:        *warm,
		FlightSize:  *flightSize,
		TraceSample: *traceSample,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("anytimed listening on %s (image %dx%d, %d slots, %d waiting)",
		*addr, *size, *size, *slots, *queueLen)
	log.Fatal(http.ListenAndServe(*addr, srv))
}
