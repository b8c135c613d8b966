// Command anytimerouter fronts a fleet of anytimed backends: the anytime
// serving contract, scaled horizontally. Each request's (app, input) key is
// consistent-hashed onto the ring of healthy backends, forwarded with the
// remaining deadline *budget* (the client's deadline minus time already
// spent at the router and the expected network round trip) in the
// X-Anytime-Budget header, and hedged — if the primary backend hasn't
// answered within the observed p99 latency, the next ring member is raced
// and whichever snapshot has the higher SNR when the budget fires is
// delivered, the loser cancelled. At the deadline the client gets the best
// snapshot available anywhere in the fleet, never an empty answer.
//
// Usage:
//
//	anytimerouter -backends http://h1:8080,http://h2:8080[,...]
//	              [-addr :8090] [-replicas 64]
//	              [-hedge-quantile 0.99] [-hedge-min 2ms] [-hedge-max 250ms]
//	              [-check-interval 1s] [-check-timeout 1s] [-max-fails 3]
//	              [-flight-recorder-size 256] [-trace-sample 16]
//
// App endpoints are the backends' own (GET /blur, /equalize, /cluster with
// the usual deadline/accept knobs) — the router is transparent except
// for three added response headers: X-Anytime-Backend (who served it),
// X-Anytime-Hedged (whether the race was hedged), and X-Anytime-Trace (the
// router's end-to-end trace ID; the backend's own is relayed as
// X-Anytime-Backend-Trace). Add ?input=<digest> to pin distinct inputs to
// distinct ring positions.
//
// Operational endpoints:
//
//	GET /members               fleet state as JSON (name, url, state, rtt)
//	POST /members?url=U        join a backend (only its key share moves)
//	DELETE /members?name=N     drain then drop a backend
//	GET /healthz               503 when zero backends are healthy
//	GET /metrics               Prometheus exposition (anytime_router_*)
//	GET /debug/requests        router flight recorder: route/budget/
//	                           forward/hedge/deliver spans — the events
//	                           /metrics is counted from
//	                           (?id=<X-Anytime-Trace>)
//
// Backends leave gracefully from their side too: POST /drain on a backend
// flips its /healthz to 503 "draining", the router's health checker takes
// it off the ring, and in-flight requests complete. docs/OPERATIONS.md
// ("Running a fleet") covers topology, hedge sizing, and drain procedure.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"strings"
	"time"

	"anytime/internal/cluster"
	"anytime/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	backends := flag.String("backends", "", "comma-separated anytimed base URLs (required)")
	replicas := flag.Int("replicas", cluster.DefaultReplicas, "virtual nodes per backend on the hash ring")
	hedgeQ := flag.Float64("hedge-quantile", cluster.DefaultHedgeQuantile, "latency quantile that sets the hedge delay")
	hedgeMin := flag.Duration("hedge-min", cluster.DefaultHedgeMin, "hedge delay floor")
	hedgeMax := flag.Duration("hedge-max", cluster.DefaultHedgeMax, "hedge delay cap (also the delay before any samples; negative disables hedging)")
	checkEvery := flag.Duration("check-interval", time.Second, "health probe interval")
	checkTimeout := flag.Duration("check-timeout", time.Second, "per-probe timeout")
	maxFails := flag.Int("max-fails", 3, "consecutive probe failures before a backend is marked down")
	flightSize := flag.Int("flight-recorder-size", 256, "completed request traces retained for /debug/requests")
	traceSample := flag.Int("trace-sample", 16, "retain 1 in N unremarkable OK request traces")
	flag.Parse()

	urls := splitBackends(*backends)
	if len(urls) == 0 {
		log.Fatal("anytimerouter: -backends is required (comma-separated base URLs)")
	}
	reg := telemetry.NewRegistry()
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Backends:      urls,
		Replicas:      *replicas,
		HedgeQuantile: *hedgeQ,
		HedgeMin:      *hedgeMin,
		HedgeMax:      *hedgeMax,
		CheckInterval: *checkEvery,
		CheckTimeout:  *checkTimeout,
		MaxFails:      *maxFails,
		Sink:          telemetry.RouterHooks(reg),
		FlightSize:    *flightSize,
		TraceSample:   *traceSample,
	})
	if err != nil {
		log.Fatal(err)
	}
	rt.Start(context.Background())
	defer rt.Close()

	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("/", rt)
	log.Printf("anytimerouter listening on %s (%d backends, hedge p%.0f in [%v, %v])",
		*addr, len(urls), *hedgeQ*100, *hedgeMin, *hedgeMax)
	log.Fatal(http.ListenAndServe(*addr, mux))
}

// splitBackends parses the -backends flag, tolerating blanks and spaces.
func splitBackends(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}
