package core

import (
	"errors"
	"fmt"
)

// Warm starts. The published output of a previous run — a valid
// approximation at a known version, held in a snapshot cache
// (internal/snapcache) — can be installed as a reused automaton's starting
// published state: readers see it before the first round, and the run's
// publishes continue from its version. A diffusive stage still applies
// every update from the first (§III-B2), so a seeded run's output is the
// seed until the run recomputes past it; at the seed's own deadline a warm
// start is a cold start, which is why anytimed runs every request cold.
//
// The seed path deliberately mirrors the Reset/OnReset machinery: apps
// register an OnSeed hook next to their OnReset hook, and a caller calls
// SeedFrom between Reset and Start. Seeding never touches a running
// automaton and never fires buffer observers — a seed is starting state, not
// a stage publish, so the single-writer property (Property 2) and the
// conformance probes' publish accounting are unaffected.

// ErrNoSeedSupport is returned by SeedFrom when the automaton has no OnSeed
// hook: the app was built without warm-start support, and the caller should
// fall back to a cold run.
var ErrNoSeedSupport = errors.New("core: automaton has no seed hook")

// OnSeed registers fn to run during SeedFrom, in registration order. An app
// registers a hook that validates the seed payload (type and geometry),
// copies it into its working state, prepares its snapshotter for seeded
// rendering, and seeds its output buffer at the given version. A hook that
// cannot apply the seed returns an error; SeedFrom stops at the first
// failure so the caller can fall back to a cold run. nil is ignored.
func (a *Automaton) OnSeed(fn func(seed any, version Version) error) {
	if fn == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.onSeed = append(a.onSeed, fn)
}

// SeedFrom installs a cached approximation as the automaton's starting
// published state by running every OnSeed hook with the seed payload and the
// version it was published at. It may only be called while the automaton is
// idle — after construction or Reset, before Start — exactly the window the
// warm pool's checkout path provides. The next run's first publish then
// continues at version+1 (see Buffer.Seed), keeping the per-run version
// sequence strictly monotone from the seed.
//
// SeedFrom returns ErrNoSeedSupport when no hook is registered, and the
// first hook failure otherwise. On failure the automaton may hold a
// partially applied seed; callers must Reset (or discard) the entry rather
// than start it. version must be positive.
func (a *Automaton) SeedFrom(seed any, version Version) error {
	if version == 0 {
		return fmt.Errorf("core: seed version must be positive")
	}
	a.mu.Lock()
	if a.state != stateIdle {
		a.mu.Unlock()
		return errors.New("core: cannot seed a started automaton (Reset first)")
	}
	hooks := append([]func(any, Version) error{}, a.onSeed...)
	a.mu.Unlock()
	if len(hooks) == 0 {
		return ErrNoSeedSupport
	}
	for _, fn := range hooks {
		if err := fn(seed, version); err != nil {
			return err
		}
	}
	return nil
}

// Seed installs v as the buffer's current snapshot at the given version
// without treating it as a stage publish: registered observers do not fire,
// and the snapshot is never final (a cached approximation is a starting
// point, not a terminal output — even a cached precise value is refined
// again by the seeded run). The owning stage's next Publish continues at
// version+1.
//
// Seed is part of the warm-start discipline: like Reset it must only be
// called during quiescence — on an unpublished (fresh or Reset) buffer,
// before the automaton starts. Seeding a buffer that has already published
// is an error; so is a zero version. A reader blocked in WaitNewer across
// the quiescent window is woken and sees the seed as it would any snapshot.
func (b *Buffer[T]) Seed(v T, version Version) error {
	if version == 0 {
		return fmt.Errorf("core: seed version must be positive (buffer %q)", b.name)
	}
	if b.cur.Load() != nil {
		return fmt.Errorf("core: cannot seed buffer %q after it has published", b.name)
	}
	if b.clone != nil {
		v = b.clone(v)
	}
	cell := b.nextCell()
	*cell = Snapshot[T]{Value: v, Version: version}
	b.cur.Store(cell)
	if ch := b.waiter.Swap(nil); ch != nil {
		close(*ch)
	}
	return nil
}
