package cluster

// Only the frozen benchmark (cmd/anytimebench, which sweeps a fleet's
// health before it sends load) calls this file. It can be deleted whole
// once the benchmark stops calling it.

// Checker exposes the router's health checker, so a caller can force a
// Sweep instead of waiting out the probe interval.
func (rt *Router) Checker() *Checker { return rt.checker }
