// Package cluster is the horizontal-scale tier over anytimed backends: a
// consistent-hash router that forwards requests with an explicit deadline
// *budget* (the client's deadline minus the time the fleet has already
// spent on the request) and hedges slow shards — after a p99-derived delay
// it races a second backend and delivers whichever snapshot is better when
// the budget fires. The per-node contract "at the deadline, deliver the
// best published approximation, never empty-handed" becomes the fleet
// contract "accept the best snapshot available anywhere when the deadline
// fires": placement joins workers/granularity/publish-policy as one more
// axis the anytime model can trade against time.
//
// The pieces compose like internal/serve's do:
//
//   - Ring: an immutable consistent-hash ring with virtual nodes, mapping
//     (app, input digest) keys to an ordered list of distinct members.
//     Membership changes move only the changed member's keys, so the other
//     backends' warm pools (serve.Pool) stay warm across rebalances.
//   - Membership + Checker: health-checked member registry reusing the
//     backends' /healthz; a backend answering 503 ("draining") leaves the
//     ring gracefully — new work routes around it while in-flight requests
//     finish.
//   - Remaining: the deadline-budget arithmetic, propagated to backends
//     via serve.BudgetHeader and folded into the grant by serve.ApplyBudget
//     there.
//   - runRace (the hedger): issues the primary forward, arms a hedge timer
//     sized from the recent latency distribution, races the next ring
//     member when it fires, and resolves the race by delivered SNR when
//     the budget expires — cancelling the loser, delivering exactly once.
//   - Router: the http.Handler tying it together, with reqtrace spans so a
//     single request's cross-node timeline shows in /debug/requests.
//
// cmd/anytimerouter is the binary; cmd/anytimeload is the open-loop load
// generator that grades the tier (BENCH_cluster.json).
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// RingKey builds the ring key for a request: the app route plus the
// request's input key (the ?input= knob). Requests for the same (app,
// input) always land on the same healthy backend, so whatever a backend
// keeps for that input — its warm pool — keeps paying off.
func RingKey(app, inputDigest string) string {
	return app + "|" + inputDigest
}

// Ring is an immutable consistent-hash ring with virtual nodes. Immutable
// on purpose: membership changes build a fresh ring and swap it in
// atomically, so lookups never lock and a request observes one coherent
// view of the fleet.
type Ring struct {
	replicas int
	hashes   []uint64          // sorted vnode positions
	owner    map[uint64]string // vnode position -> member name
	members  []string          // distinct members, for Size/inspection
}

// NewRing builds a ring with the given virtual-node count per member.
// More replicas smooth the load split at the cost of lookup table size;
// 64 keeps the max/min member share within ~30% for small fleets.
func NewRing(members []string, replicas int) *Ring {
	if replicas < 1 {
		replicas = 1
	}
	r := &Ring{
		replicas: replicas,
		hashes:   make([]uint64, 0, len(members)*replicas),
		owner:    make(map[uint64]string, len(members)*replicas),
		members:  append([]string(nil), members...),
	}
	for _, m := range members {
		for v := 0; v < replicas; v++ {
			h := hash64(fmt.Sprintf("%s#%d", m, v))
			// A full 64-bit collision across members is astronomically
			// unlikely; first writer wins keeps the ring deterministic in
			// member order if it ever happens.
			if _, taken := r.owner[h]; !taken {
				r.owner[h] = m
				r.hashes = append(r.hashes, h)
			}
		}
	}
	sort.Slice(r.hashes, func(i, j int) bool { return r.hashes[i] < r.hashes[j] })
	return r
}

// Size reports the number of distinct members on the ring.
func (r *Ring) Size() int { return len(r.members) }

// Members returns the ring's distinct members (construction order).
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Lookup returns up to n distinct members in ring order starting clockwise
// from key's position: the primary owner first, then the successors a
// hedger should try. Returns nil on an empty ring.
func (r *Ring) Lookup(key string, n int) []string {
	if len(r.hashes) == 0 || n < 1 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hash64(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.hashes) && len(out) < n; i++ {
		m := r.owner[r.hashes[(start+i)%len(r.hashes)]]
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// hash64 is FNV-1a with a splitmix64-style finalizer: stable across
// processes (the ring must agree between router replicas), stdlib-only,
// and — critically — avalanched. Raw FNV-1a is affine in its input: two
// member names differing at one byte before a common suffix ("…:8081#v"
// vs "…:8082#v") produce vnode hashes offset by a constant multiple, so
// one member's 64 vnodes land as a translate of the other's and own a
// wildly unequal arc. The finalizer destroys that structure.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
