// Package conform is the repo's conformance and chaos harness: it runs any
// automaton DAG under seeded schedules — permuted worker counts, publish
// policies, granularities, interrupt points, and injected faults — and
// machine-checks the paper's §III guarantees at every step:
//
//   - version monotonicity: each buffer's published versions are 1, 2, 3, …
//     with no publish after the final (precise) snapshot;
//   - snapshot immutability: a published snapshot's checksum is unchanged
//     when the next version lands and when the run quiesces (Property 3);
//   - single writer: every publish to a buffer happens on the goroutine
//     that performed its first publish, with no overlapping publishes
//     (Property 2);
//   - interrupt validity: stopping or pausing anywhere always leaves every
//     buffer holding a decodable, well-formed output;
//   - final equivalence: a run that reaches its precise output matches the
//     sequential golden computation bit-for-bit.
//
// A violation is reported with the seed that produced it and a shrunk,
// minimal failing schedule (see shrink), so every red run is reproducible.
package conform

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"anytime/internal/core"
)

// Violation is one observed breach of a conformance invariant.
type Violation struct {
	Invariant string // e.g. "version-monotone", "snapshot-mutated"
	Buffer    string // buffer (or stage) the violation was observed on
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", v.Invariant, v.Buffer, v.Detail)
}

// Collector accumulates violations from every probe of a run. It is safe
// for concurrent use: probes report from their stages' goroutines.
type Collector struct {
	mu         sync.Mutex
	violations []Violation
}

// Add records a violation.
func (c *Collector) Add(invariant, buffer, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations = append(c.violations, Violation{
		Invariant: invariant,
		Buffer:    buffer,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// Violations returns the violations recorded so far.
func (c *Collector) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Violation(nil), c.violations...)
}

// Env is the per-run environment a conformance app builds against: the
// violation collector and the harness's publish notification (which drives
// StopAtPublish interrupt points). App adapters wire both through
// AttachProbe.
//
// Both fields are read at use time, not captured at Build, so the
// reset-reuse sweep (runReuse) can swap in a fresh Collector and interrupt
// trigger for each checkout cycle of one built instance. Swapping is only
// safe at quiescence: the automaton's Wait/Start pair provides the
// happens-before edge to the stage goroutines that read them.
type Env struct {
	Col       *Collector
	OnPublish func() // may be nil

	resetMu sync.Mutex
	resets  []func()
}

// OnReset registers fn to run when the harness rewinds a built instance
// between reuse cycles (see runReuse). AttachProbe registers its own
// observation-state rewind here; apps whose validators keep per-run state
// (e.g. publish counters) must register a rewind too, mirroring what their
// production constructors register with core.Automaton.OnReset. nil is
// ignored.
func (e *Env) OnReset(fn func()) {
	if fn == nil {
		return
	}
	e.resetMu.Lock()
	defer e.resetMu.Unlock()
	e.resets = append(e.resets, fn)
}

// reset runs the registered rewind hooks in registration order. Only call
// at quiescence, after every probe's VerifyQuiescent for the finished
// cycle.
func (e *Env) reset() {
	e.resetMu.Lock()
	hooks := append([]func(){}, e.resets...)
	e.resetMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// Probe watches one buffer of an automaton under test. Its observer runs
// synchronously on the publishing goroutine (checking each snapshot as it
// is published); VerifyQuiescent re-checks the terminal snapshot once the
// automaton has finished and must only be called after quiescence.
type Probe struct {
	Name string

	publishes atomic.Int64
	// seed is the version the buffer was seeded at for the current run (0 =
	// cold): the first observed publish must be seed+1. Set via seedVersion
	// before Start, after any SeedFrom; cleared by the env reset.
	seed atomic.Uint64

	// Set by AttachProbe.
	verifyQuiescent func()
	lastInfo        func() (version core.Version, sum uint64, final bool, ok bool)
}

// Publishes reports how many publishes the probe observed.
func (p *Probe) Publishes() int64 { return p.publishes.Load() }

// seedVersion tells the probe the buffer was warm-started at version v
// (core.Buffer.Seed): the run's first publish must then be v+1, keeping
// the version-monotone invariant anchored to the seed instead of to 1.
// Call during quiescence, before the automaton starts.
func (p *Probe) seedVersion(v core.Version) { p.seed.Store(uint64(v)) }

// VerifyQuiescent re-validates the terminal snapshot: its checksum must
// still match the value recorded at publish time, and the buffer's latest
// version must be the last one the observer saw. Call only after the
// automaton is done (Wait/Done establish the needed happens-before edge).
func (p *Probe) VerifyQuiescent() { p.verifyQuiescent() }

// Last reports the last observed snapshot's version, checksum and Final
// flag. ok is false if the buffer never published.
func (p *Probe) Last() (version core.Version, sum uint64, final bool, ok bool) {
	return p.lastInfo()
}

// AttachProbe registers a conformance observer on buf. sum must be a
// deterministic checksum of a value's full contents; validate must reject
// malformed (undecodable) values and may be nil. Probes must attach before
// the automaton starts, like any observer.
//
// The immutability check is windowed: snapshot v's checksum is re-verified
// when v+1 is published and again at quiescence, the window an
// interrupt-anywhere consumer relies on. Image stages publish a fresh copy
// per version, immutable forever; sampling's TestTreeImageResetAfterInterrupt
// pins that stronger contract across Reset.
func AttachProbe[T any](env *Env, buf *core.Buffer[T], sum func(T) uint64, validate func(T) error) *Probe {
	p := &Probe{Name: buf.Name()}
	var st struct {
		mu       sync.Mutex
		has      bool
		last     core.Snapshot[T]
		lastSum  uint64
		writerID uint64
	}
	var inObserver atomic.Int32
	// env.Col is read per report (not captured) so runReuse can give each
	// reuse cycle its own Collector.
	buf.OnPublish(func(s core.Snapshot[T]) {
		col := env.Col
		if n := inObserver.Add(1); n != 1 {
			col.Add("single-writer", p.Name, "%d publishes in flight concurrently", n)
		}
		defer inObserver.Add(-1)
		st.mu.Lock()
		gid := goroutineID()
		if st.has {
			if gid != st.writerID {
				col.Add("single-writer", p.Name, "version %d published from goroutine %d; version %d came from goroutine %d",
					s.Version, gid, st.last.Version, st.writerID)
			}
			if s.Version != st.last.Version+1 {
				col.Add("version-monotone", p.Name, "version %d follows %d (want %d)",
					s.Version, st.last.Version, st.last.Version+1)
			}
			if st.last.Final {
				col.Add("publish-after-final", p.Name, "version %d published after final version %d",
					s.Version, st.last.Version)
			}
			if got := sum(st.last.Value); got != st.lastSum {
				col.Add("snapshot-mutated", p.Name, "version %d checksum changed %016x -> %016x before version %d landed",
					st.last.Version, st.lastSum, got, s.Version)
			}
		} else {
			st.writerID = gid
			if want := core.Version(p.seed.Load()) + 1; s.Version != want {
				col.Add("version-monotone", p.Name, "first observed version is %d, want %d", s.Version, want)
			}
		}
		if validate != nil {
			if err := validate(s.Value); err != nil {
				col.Add("invalid-snapshot", p.Name, "version %d: %v", s.Version, err)
			}
		}
		st.has = true
		st.last = s
		st.lastSum = sum(s.Value)
		st.mu.Unlock()
		p.publishes.Add(1)
		if env.OnPublish != nil {
			env.OnPublish()
		}
	})
	p.verifyQuiescent = func() {
		col := env.Col
		st.mu.Lock()
		defer st.mu.Unlock()
		latest, ok := buf.Peek()
		if !st.has {
			if ok {
				col.Add("observer-miss", p.Name, "buffer holds version %d but the observer saw no publish", latest.Version)
			}
			return
		}
		if got := sum(st.last.Value); got != st.lastSum {
			col.Add("snapshot-mutated", p.Name, "terminal version %d checksum changed %016x -> %016x after quiescence",
				st.last.Version, st.lastSum, got)
		}
		if !ok || latest.Version != st.last.Version {
			col.Add("observer-miss", p.Name, "buffer latest version %d != last observed version %d", latest.Version, st.last.Version)
		}
	}
	p.lastInfo = func() (core.Version, uint64, bool, bool) {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.last.Version, st.lastSum, st.last.Final, st.has
	}
	// Reset-reuse: rewind the observation state so every cycle re-proves
	// the invariants from scratch — in particular "first observed version
	// is 1" (Buffer.Reset must rewind the version counter) and the
	// single-writer identity (the next run's stage goroutine is new).
	env.OnReset(func() {
		st.mu.Lock()
		st.has = false
		st.last = core.Snapshot[T]{}
		st.lastSum = 0
		st.writerID = 0
		st.mu.Unlock()
		p.publishes.Store(0)
		p.seed.Store(0)
	})
	return p
}

// goroutineID parses the current goroutine's id from its stack header
// ("goroutine 123 [running]"). It costs a runtime.Stack call per publish —
// fine for a conformance harness, never for production code.
func goroutineID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = "goroutine "
	if n <= len(prefix) {
		return 0
	}
	var id uint64
	for _, c := range buf[len(prefix):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// fnv1aInit/fnv1aStep: the 64-bit FNV-1a checksum the probes use. Written
// out manually so per-publish hashing allocates nothing.
const (
	fnv1aInit  = 0xcbf29ce484222325
	fnv1aPrime = 0x00000100000001b3
)

func fnv1aStep(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnv1aPrime
		v >>= 8
	}
	return h
}
