package cluster

import (
	"fmt"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anytime/internal/reqtrace"
)

// State is a member's health state. Only Healthy members are on the ring;
// Draining and Down members receive no new work, the difference being
// intent: draining is an operator (or the backend itself, via its /drain
// endpoint) removing the node gracefully, down is the checker giving up on
// it. In both cases the consistent-hash property confines the rebalance to
// the leaving member's keys — every other backend keeps its keys and its
// warm pools.
type State int32

const (
	StateHealthy State = iota
	StateDraining
	StateDown
)

var stateNames = [...]string{
	StateHealthy:  "healthy",
	StateDraining: "draining",
	StateDown:     "down",
}

// String returns the state's stable name (also the metrics label value).
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Member is one anytimed backend: its base URL, health state, and observed
// round-trip time (the budget arithmetic's network term).
type Member struct {
	// Name labels the member in rings, traces, and metrics: the URL's
	// host:port.
	Name string
	// URL is the backend's base URL ("http://10.0.0.7:8080").
	URL string

	state atomic.Int32
	fails atomic.Int32 // consecutive failed health probes
	rtt   ewma
}

// State returns the member's current health state.
func (m *Member) State() State { return State(m.state.Load()) }

// RTT returns the member's observed round-trip EWMA, zero before the
// first completed request or probe.
func (m *Member) RTT() time.Duration { return m.rtt.value() }

// ObserveRTT folds one observed round-trip sample into the member's EWMA.
func (m *Member) ObserveRTT(d time.Duration) { m.rtt.observe(d) }

// Membership is the fleet registry: members by name, each with health
// state, plus the current ring (rebuilt over healthy members on every
// transition and swapped atomically — lookups never lock).
type Membership struct {
	replicas int
	sink     reqtrace.Sink

	mu      sync.Mutex
	members map[string]*Member
	ring    atomic.Pointer[Ring]
}

// NewMembership builds a registry over the given backend base URLs, all
// initially healthy, with the given virtual-node count per member. sink,
// when non-nil, observes every health transition.
func NewMembership(urls []string, replicas int, sink reqtrace.Sink) (*Membership, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("cluster: membership needs at least one backend")
	}
	ms := &Membership{replicas: replicas, sink: sink, members: make(map[string]*Member, len(urls))}
	for _, u := range urls {
		if _, err := ms.add(u); err != nil {
			return nil, err
		}
	}
	ms.rebuild()
	return ms, nil
}

// add registers a member (caller holds no lock; add takes it). The name is
// the URL's host:port so logs, metrics and the ring agree on identity.
func (ms *Membership) add(raw string) (*Member, error) {
	u, err := url.Parse(raw)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("cluster: bad backend URL %q", raw)
	}
	m := &Member{Name: u.Host, URL: raw}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if _, dup := ms.members[m.Name]; dup {
		return nil, fmt.Errorf("cluster: duplicate backend %q", m.Name)
	}
	ms.members[m.Name] = m
	return m, nil
}

// Add registers a new healthy member and rebuilds the ring. Only the new
// member's share of keys moves.
func (ms *Membership) Add(raw string) error {
	if _, err := ms.add(raw); err != nil {
		return err
	}
	ms.rebuild()
	return nil
}

// Remove deletes a member outright. Prefer SetState(name, StateDraining)
// first: draining takes the member off the ring (same rebalance) while its
// in-flight requests finish; Remove is the final bookkeeping step.
func (ms *Membership) Remove(name string) bool {
	ms.mu.Lock()
	_, ok := ms.members[name]
	delete(ms.members, name)
	ms.mu.Unlock()
	if ok {
		ms.rebuild()
	}
	return ok
}

// Member returns the named member, nil if unknown.
func (ms *Membership) Member(name string) *Member {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.members[name]
}

// Members returns all members sorted by name (stable for display/JSON).
func (ms *Membership) Members() []*Member {
	ms.mu.Lock()
	out := make([]*Member, 0, len(ms.members))
	for _, m := range ms.members {
		out = append(out, m)
	}
	ms.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetState transitions a member, rebuilding the ring when its ring
// eligibility (healthy or not) changes. Reports whether a transition
// actually happened.
func (ms *Membership) SetState(name string, s State) bool {
	ms.mu.Lock()
	m, ok := ms.members[name]
	ms.mu.Unlock()
	if !ok {
		return false
	}
	old := State(m.state.Swap(int32(s)))
	if old == s {
		return false
	}
	if (old == StateHealthy) != (s == StateHealthy) {
		ms.rebuild()
	}
	// A health transition belongs to no request: the sink alone sees it.
	ms.sink.Send(reqtrace.Event{Kind: reqtrace.KindMemberState, Name: name, Note: s.String()})
	return true
}

// Ring returns the current ring over healthy members. May be empty (zero
// healthy backends) — callers must handle a nil lookup.
func (ms *Membership) Ring() *Ring { return ms.ring.Load() }

// rebuild swaps in a fresh ring over the currently-healthy members, in
// sorted name order so the ring is deterministic across router replicas.
func (ms *Membership) rebuild() {
	ms.mu.Lock()
	healthy := make([]string, 0, len(ms.members))
	for name, m := range ms.members {
		if m.State() == StateHealthy {
			healthy = append(healthy, name)
		}
	}
	ms.mu.Unlock()
	sort.Strings(healthy)
	ms.ring.Store(NewRing(healthy, ms.replicas))
}
