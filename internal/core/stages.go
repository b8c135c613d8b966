package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file provides the three stage-loop shapes of the paper:
//
//   - Iterative (§III-B1): re-execute the computation at increasing
//     accuracy; each pass overwrites the previous output; the last pass is
//     the precise function.
//   - Diffusive (§III-B2): apply permuted updates to a working output;
//     every update contributes to the final result, so no work is redundant.
//   - AsyncConsume (§III-C1): a child stage that recomputes on whichever
//     parent snapshot is current, always eventually running on the final
//     one.
//
// The synchronous pipeline's update stream (§III-C2) lives in stream.go.

// Iterative runs the intermediate computations f_1 … f_n in order,
// publishing each result to out; the final pass is published as the precise
// output. Each pass must be a pure function of its captured inputs
// (Property 1).
func Iterative[T any](c *Context, out *Buffer[T], passes []func() (T, error)) error {
	if len(passes) == 0 {
		return fmt.Errorf("core: iterative stage %q has no passes", c.Name())
	}
	for i, pass := range passes {
		if err := c.Checkpoint(); err != nil {
			return err
		}
		v, err := pass()
		if err != nil {
			return err
		}
		if _, err := out.Publish(v, i == len(passes)-1); err != nil {
			return err
		}
	}
	return nil
}

// PublishPolicy selects when a diffusive stage constructs and publishes a
// round snapshot. Snapshot construction is pure overhead relative to the
// precise computation (paper §IV-C), so how often it runs decides the
// automaton's cost of being anytime.
type PublishPolicy int

const (
	// PublishEveryRound publishes after every round of Granularity updates
	// — the paper's default granularity model (§III-B2).
	PublishEveryRound PublishPolicy = iota
	// PublishOnDemand skips snapshot construction while nobody has consumed
	// the previous version (no Latest/WaitNewer reader and no observer):
	// the consumer "processes whichever output happens to be in the buffer"
	// (§III-C1), so refreshing an unread buffer buys nothing. A blocked
	// reader or a consumed snapshot re-enables publishing at the next round
	// boundary, and the final snapshot is always published.
	PublishOnDemand
)

// RoundConfig tunes a diffusive stage's execution.
type RoundConfig struct {
	// Granularity is the number of updates applied between successive
	// publish opportunities. It controls how early and how often
	// approximate outputs become visible. Zero selects total/32 (at least
	// 1). A tree-sampled image stage (sampling.TreeImage) rounds it down to
	// a lattice size, a power of two of its image's power-of-two superset.
	Granularity int
	// Workers is the number of goroutines applying updates within a round
	// (the multi-threaded sampling of §IV-C1). Zero selects 1. When
	// Workers > 1, apply must be safe for concurrent calls with distinct
	// positions.
	Workers int
	// Policy selects when round snapshots are constructed and published.
	// The zero value is PublishEveryRound.
	Policy PublishPolicy
}

// RoundSize returns the number of updates per round a diffusive stage of
// total updates runs under cfg: Granularity, or its default when zero. The
// caller that arranges updates by round — a visit order cut into lattice
// rounds — uses it to cut the rounds exactly where the round loop will.
func (cfg RoundConfig) RoundSize(total int) int {
	if cfg.Granularity != 0 {
		return cfg.Granularity
	}
	return max(total/32, 1)
}

func (cfg RoundConfig) withDefaults(total int) (RoundConfig, error) {
	if cfg.Granularity < 0 || cfg.Workers < 0 {
		return cfg, fmt.Errorf("core: negative round config %+v", cfg)
	}
	if cfg.Policy < PublishEveryRound || cfg.Policy > PublishOnDemand {
		return cfg, fmt.Errorf("core: unknown publish policy %d", cfg.Policy)
	}
	cfg.Granularity = cfg.RoundSize(total)
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	return cfg, nil
}

// Diffusive executes a diffusive anytime stage: total update steps applied
// in rounds, publishing an approximate snapshot after every round and the
// precise output after the last.
//
// apply(pos) performs update step pos (0 <= pos < total); positions are
// executed exactly once, in rounds of Granularity consecutive positions
// striped across Workers goroutines. snapshot(processed) is called with no
// apply running and returns the value to publish after the first
// `processed` updates — typically a clone, possibly weighted/normalized for
// non-idempotent reductions (§III-B2).
func Diffusive[T any](c *Context, out *Buffer[T], total int, apply func(pos int) error, snapshot func(processed int) (T, error), cfg RoundConfig) error {
	return DiffusiveWorkers(c, out, total,
		func(worker, pos int) error { return apply(pos) },
		snapshot, cfg)
}

// DiffusiveWorkers is Diffusive with the executing worker's index exposed to
// apply. Worker indices are in [0, Workers); a given worker runs its updates
// sequentially on a goroutine that persists for the whole pass, so apply may
// accumulate into worker-private state — the thread-privatized partials the
// paper's multi-threaded reductions use (§IV-A2, kmeans) — which snapshot
// then merges during round quiescence.
func DiffusiveWorkers[T any](c *Context, out *Buffer[T], total int, apply func(worker, pos int) error, snapshot func(processed int) (T, error), cfg RoundConfig) error {
	return DiffusivePass(c, out, total, apply, snapshot, cfg, true)
}

// DiffusivePass is DiffusiveWorkers with control over whether the pass's
// last snapshot is published as the buffer's final output. An anytime child
// stage in an asynchronous pipeline runs one full diffusive pass per parent
// snapshot it consumes (§III-C1, g(F_i) with g itself anytime); only the
// pass over the parent's final snapshot may mark the child's buffer final,
// so intermediate passes run with markFinal = false.
func DiffusivePass[T any](c *Context, out *Buffer[T], total int, apply func(worker, pos int) error, snapshot func(processed int) (T, error), cfg RoundConfig, markFinal bool) error {
	return DiffusiveBatch(c, out, total,
		func(worker, lo, hi int) error { return applySpan(worker, lo, hi, apply) },
		snapshot, cfg, markFinal)
}

// DiffusiveBatch is DiffusivePass for stages whose per-update work is tiny
// (a table lookup, a histogram increment): apply receives a contiguous
// range [lo, hi) of update positions and iterates it directly, avoiding a
// function call per update. Each round is split into one contiguous chunk
// per worker; as with DiffusiveWorkers, a given worker's chunks execute
// sequentially, so worker-private accumulators are safe.
func DiffusiveBatch[T any](c *Context, out *Buffer[T], total int, apply func(worker, lo, hi int) error, snapshot func(processed int) (T, error), cfg RoundConfig, markFinal bool) error {
	return DiffusiveRounds(c, out, total, func(fork Fork, lo, hi int, publish bool) (v T, err error) {
		if err = fork.p.run(lo, hi, spanAlign, apply); err != nil || !publish {
			return v, err
		}
		return snapshot(hi)
	}, cfg, markFinal)
}

// A Fork is a diffusive pass's round pool as its rounds see it: W
// goroutines kept for the whole pass, the stage goroutine being worker 0.
type Fork struct{ p *roundPool }

// Run runs part over [lo, hi) cut into one contiguous span per worker,
// worker 0's on the calling stage goroutine, and returns once every span
// has run, with the first error in worker order. A range of fewer units
// than workers runs inline, as worker 0's one span; an empty one runs
// nothing.
func (f Fork) Run(lo, hi int, part func(worker, lo, hi int) error) error {
	return f.p.run(lo, hi, 1, part)
}

// Splits reports whether Run cuts a range of n units into more than one
// span; when it does not, the calling goroutine runs the whole range.
func (f Fork) Splits(n int) bool { return !f.p.inline(n) }

// checkpointStride is the minimum number of updates the diffusive round
// loop aims to apply between successive Checkpoint calls. When Granularity
// is smaller than this, consecutive rounds are executed as one batch under
// a single checkpoint, amortizing the gate's lock and the hook dispatch
// over the batch while leaving every round boundary's publish decision
// untouched: the published version sequence is bit-identical to unbatched
// execution, only the Checkpoint hook rate coarsens.
//
// Pause/stop responsiveness does NOT coarsen with the batch: between the
// batch's rounds the loop polls a lock-free pause hint and the context's
// done channel (a few nanoseconds against a full Checkpoint's two lock
// round-trips) and breaks out to a real Checkpoint as soon as either
// fires, so an automaton still answers Stop/Pause within one round of
// updates plus one snapshot, exactly as it did when every round
// checkpointed.
const checkpointStride = 4096

// DiffusiveRounds is the round loop under the other diffusive shapes, with
// each round handed whole to the stage: round(fork, lo, hi, publish)
// applies updates [lo, hi), through fork in whatever bands suit the stage,
// and when publish is set returns the snapshot after them. Rounds are
// Granularity contiguous positions, and the round config's publish policy
// decides which publish. A skipped round's updates are simply covered by
// the next snapshot that does get built — diffusive updates are
// cumulative, so every published version reflects all updates applied so
// far regardless of how many publish opportunities were skipped.
//
// A stage whose snapshot costs work of its own — a hold-fill, a version
// copy — folds it into the round's fork, so every worker shares it instead
// of the stage goroutine alone; Publish itself stays on the stage
// goroutine. Whether a round publishes is decided at its start. An
// on-demand round that starts unpublished and ends demanded — a reader
// consumed the last version or blocked for the next meanwhile — is
// followed by an empty round, round(fork, hi, hi, true), so the reader is
// served at the same boundary a decision at the round's end would serve
// it.
//
// Rounds are grouped into checkpoint batches (see checkpointStride): the
// loop checkpoints once per batch, then runs the batch's rounds with a
// publish opportunity at every round boundary exactly as before.
func DiffusiveRounds[T any](c *Context, out *Buffer[T], total int, round func(fork Fork, lo, hi int, publish bool) (T, error), cfg RoundConfig, markFinal bool) error {
	if total < 0 {
		return fmt.Errorf("core: diffusive stage %q has negative total %d", c.Name(), total)
	}
	cfg, err := cfg.withDefaults(total)
	if err != nil {
		return err
	}
	if total == 0 {
		v, err := round(Fork{newRoundPool(1)}, 0, 0, true)
		if err != nil {
			return err
		}
		_, err = out.Publish(v, markFinal)
		return err
	}
	pool := newRoundPool(cfg.Workers)
	defer pool.stop()
	fork := Fork{pool}
	batchRounds := 1
	if cfg.Granularity < checkpointStride {
		batchRounds = (checkpointStride + cfg.Granularity - 1) / cfg.Granularity
	}
	// interrupted is the cheap intra-batch poll: a lock-free pause hint and
	// a non-blocking read of the done channel. It never blocks and never
	// errs — it only decides whether to cut the batch short and let the
	// next Checkpoint give the authoritative (blocking) answer.
	stop := c.ctx.Done()
	interrupted := func() bool {
		if c.a.gate.pauseHint() {
			return true
		}
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	onDemand := cfg.Policy == PublishOnDemand
	for done := 0; done < total; {
		if err := c.Checkpoint(); err != nil {
			return err
		}
		// One cooperative yield per checkpoint batch. Per-round checkpoints
		// used to create incidental scheduling points (lock handoffs, spawns)
		// every Granularity updates; batching removed them, which on a
		// saturated P let a stage monopolize the processor for a full async
		// preemption quantum and serialize an entire serving burst. The
		// explicit yield bounds that to one batch (~checkpointStride updates)
		// at a cost of one scheduler call per batch.
		runtime.Gosched()
		for r := 0; r < batchRounds && done < total; r++ {
			lo, hi := done, min(done+cfg.Granularity, total)
			final := hi == total
			publish := final || !onDemand || out.Demanded()
			v, err := round(fork, lo, hi, publish)
			if err == nil && !publish && out.Demanded() {
				v, err = round(fork, hi, hi, true)
				publish = true
			}
			if err != nil {
				return err
			}
			done = hi
			if publish {
				if _, err := out.Publish(v, markFinal && final); err != nil {
					return err
				}
			}
			if interrupted() {
				break
			}
		}
	}
	return nil
}

// applySpan invokes apply for every position of [lo, hi) in ascending
// order. The body is unrolled eight wide so the loop bookkeeping and error
// checks pipeline across calls — with a small apply this roughly triples
// per-update throughput, which is most of what separated DiffusiveWorkers
// from DiffusiveBatch.
func applySpan(worker, lo, hi int, apply func(worker, pos int) error) error {
	pos := lo
	for ; hi-pos >= 8; pos += 8 {
		if err := apply(worker, pos); err != nil {
			return err
		}
		if err := apply(worker, pos+1); err != nil {
			return err
		}
		if err := apply(worker, pos+2); err != nil {
			return err
		}
		if err := apply(worker, pos+3); err != nil {
			return err
		}
		if err := apply(worker, pos+4); err != nil {
			return err
		}
		if err := apply(worker, pos+5); err != nil {
			return err
		}
		if err := apply(worker, pos+6); err != nil {
			return err
		}
		if err := apply(worker, pos+7); err != nil {
			return err
		}
	}
	for ; pos < hi; pos++ {
		if err := apply(worker, pos); err != nil {
			return err
		}
	}
	return nil
}

// spanAlign is the alignment quantum, in update positions, of per-worker
// span boundaries: 16 positions of an int32-element working buffer is one
// 64-byte cache line, so workers that write output element `pos` (the
// sequential order) never split a line — the false-sharing pathology that
// made multi-worker rounds slower than single-worker ones.
const spanAlign = 16

// spanBound returns worker boundary w of n positions split across workers:
// the exact n*w/workers split rounded up to a multiple of align, capped at
// n. Bounds are non-decreasing in w, bound 0 is 0, and bound `workers` is
// n, so the spans [bound(w), bound(w+1)) cover [0, n) exactly once.
func spanBound(n, w, workers, align int) int {
	if w >= workers {
		return n
	}
	return min((n*w/workers+align-1)/align*align, n)
}

// spinIters bounds the busy-wait phases of the round pool's handshakes: a
// worker spins this long for its next span before parking on its wake
// channel, and the dispatcher spins this long for fork completion before
// parking in wg.Wait. At ~1ns per polling iteration it covers tens of
// microseconds — enough that back-to-back small rounds (the per-update
// serving path) never pay a goroutine park/unpark round trip, while a pool
// idling across an expensive publish still parks and frees the CPU. Under
// the race detector every atomic load is instrumented and ~50× more
// expensive, so the bound shrinks accordingly (see race_on.go).
const spinIters = (1 - raceEnabled) << 14 // 16384 normally, 0 (park immediately) under -race

// roundWorker is one persistent worker's slot, padded so that slots on
// adjacent cache lines never share the hot fields: the dispatcher writes
// lo/hi/seq each fork and the worker writes err/done each fork.
type roundWorker struct {
	lo, hi int
	quit   bool
	err    error
	seq    atomic.Uint32 // bumped by the dispatcher to hand over lo/hi
	parked atomic.Bool   // worker is (about to be) blocked on wake
	wake   chan struct{} // buffered(1) wake token, conflating
	_      [40]byte
}

// roundPool runs the forks of a diffusive pass. Workers 1..W-1 are
// goroutines spawned once for the whole pass; worker 0's span runs inline
// on the stage goroutine. Compared to spawning W goroutines per fork this
// keeps worker identity stable (worker-private scratch stays on a warm
// stack and cache) and removes the per-round spawn allocations. A fork runs
// whatever part its round hands it — a round's updates, or its updates
// fused with the snapshot's hold-fill and version copy — while the round
// loop keeps Publish on the stage goroutine, the single writer that
// conform's goroutine-pinning probe checks.
//
// Handover is a seq-number handshake with bounded spinning on both sides
// (see spinIters). Parking is race-free by the usual store/load-check
// protocol: the worker publishes parked=true and then re-checks seq; the
// dispatcher publishes seq and then checks parked. Both are sequentially
// consistent atomics, so at least one side observes the other and either
// the worker sees the new span or the dispatcher sends a wake token. The
// token channel is buffered and conflating — a stale token only causes one
// extra loop of the worker's seq check.
//
// Memory ordering: the dispatcher's seq.Add publishing part and lo/hi
// happens-before the worker's seq.Load observing it, and the worker's
// done.Add after its span happens-before the dispatcher's done.Load
// observing the count, so each fork's writes are visible to the stage
// goroutine and to every worker's next fork without further
// synchronization.
type roundPool struct {
	part    func(worker, lo, hi int) error // the fork in flight's body
	n       int                            // configured worker count
	workers []roundWorker                  // index 0 unused; stage goroutine is worker 0. nil = inline-only pool
	done    atomic.Int32                   // spans completed this fork
	wg      sync.WaitGroup
}

func newRoundPool(workers int) *roundPool {
	p := &roundPool{n: workers}
	// On a single-P runtime the goroutines could never overlap the stage
	// goroutine anyway, so don't spawn them at all: every fork runs
	// through runInline, and the pool costs nothing beyond its struct.
	if workers <= 1 || runtime.GOMAXPROCS(0) == 1 {
		return p
	}
	p.workers = make([]roundWorker, workers)
	for w := 1; w < workers; w++ {
		p.workers[w].wake = make(chan struct{}, 1)
		go p.worker(w)
	}
	return p
}

func (p *roundPool) worker(w int) {
	slot := &p.workers[w]
	seen := uint32(0)
	// Park immediately while waiting for the first dispatch — it may never
	// come (small forks dispatch fewer workers). Spinning only pays
	// between back-to-back forks, so the budget turns on after the first
	// completed span.
	budget := 0
	for {
		// Spin for the next dispatch, yielding periodically so a
		// saturated scheduler can still make progress under GOMAXPROCS
		// oversubscription.
		for i := 0; slot.seq.Load() == seen; i++ {
			if i >= budget {
				slot.parked.Store(true)
				if slot.seq.Load() == seen {
					<-slot.wake
				}
				slot.parked.Store(false)
				i = 0
				continue
			}
			if i&1023 == 1023 {
				runtime.Gosched()
			}
		}
		seen = slot.seq.Load()
		if slot.quit {
			return
		}
		slot.err = p.part(w, slot.lo, slot.hi)
		p.done.Add(1)
		p.wg.Done()
		budget = spinIters
	}
}

// dispatch hands span [lo, hi) to worker w and wakes it if it parked.
func (p *roundPool) dispatch(w, lo, hi int) {
	slot := &p.workers[w]
	slot.lo, slot.hi = lo, hi
	slot.seq.Add(1)
	if slot.parked.Load() {
		select {
		case slot.wake <- struct{}{}:
		default: // a token is already pending; it conflates
		}
	}
}

// inline reports whether a fork of n units runs as worker 0's one span:
// with one worker, or fewer units than workers.
func (p *roundPool) inline(n int) bool { return p.n <= 1 || n < p.n }

// run is one fork: part over [lo, hi), worker w taking the span between
// boundaries w and w+1 of spanBound(hi-lo, ·, W, align).
func (p *roundPool) run(lo, hi, align int, part func(worker, lo, hi int) error) error {
	n, workers := hi-lo, p.n
	if n <= 0 {
		return nil
	}
	if p.inline(n) {
		return part(0, lo, hi)
	}
	if p.workers == nil || runtime.GOMAXPROCS(0) == 1 {
		return runInline(lo, n, workers, align, part)
	}
	p.part = part
	p.done.Store(0)
	dispatched := int32(0)
	for w := 1; w < workers; w++ {
		b0 := spanBound(n, w, workers, align)
		b1 := spanBound(n, w+1, workers, align)
		if b0 >= b1 {
			continue
		}
		dispatched++
		p.wg.Add(1)
		p.dispatch(w, lo+b0, lo+b1)
	}
	var err0 error
	if hi0 := spanBound(n, 1, workers, align); hi0 > 0 {
		err0 = part(0, lo, lo+hi0)
	}
	// Spin for completion (the workers finish at about the same time as
	// the inline span), then fall back to a real wait. The WaitGroup is
	// kept balanced either way: workers always call Done, and Wait on a
	// drained group returns immediately.
	for i := 0; p.done.Load() != dispatched; i++ {
		if i >= spinIters {
			break
		}
		if i&1023 == 1023 {
			runtime.Gosched()
		}
	}
	p.wg.Wait()
	if err0 != nil {
		return err0
	}
	for w := 1; w < workers; w++ {
		if err := p.workers[w].err; err != nil {
			return err
		}
	}
	return nil
}

// runInline runs every worker's span sequentially on the stage goroutine,
// keeping the same worker-index-to-span mapping as the parallel path so
// worker-private partials end up in the same cells either way. With a
// single scheduler P there is no parallelism to win: handing spans to pool
// goroutines costs scheduler round-trips per fork and can overlap nothing,
// which is exactly the configuration where multi-worker rounds used to run
// slower than single-worker ones.
func runInline(lo, n, workers, align int, part func(worker, lo, hi int) error) error {
	for w := 0; w < workers; w++ {
		b0, b1 := spanBound(n, w, workers, align), spanBound(n, w+1, workers, align)
		if b0 >= b1 {
			continue
		}
		if err := part(w, lo+b0, lo+b1); err != nil {
			return err
		}
	}
	return nil
}

// stop releases the pool's goroutines. It must be called with no fork in
// flight; spans dispatched before stop have completed (run waits).
func (p *roundPool) stop() {
	for w := 1; w < len(p.workers); w++ {
		p.workers[w].quit = true
		p.dispatch(w, 0, 0)
	}
}

// AsyncConsume implements the child side of an asynchronous pipeline edge:
// it invokes fn on successive snapshots of in, skipping stale intermediates
// (the child "processes whichever output happens to be in the buffer"), and
// always runs fn at least once on the parent's final snapshot before
// returning. fn itself typically publishes — possibly several anytime
// versions — to the child's own buffer, marking its output final only when
// snap.Final is set.
func AsyncConsume[I any](c *Context, in *Buffer[I], fn func(snap Snapshot[I]) error) error {
	var last Version
	for {
		if err := c.Checkpoint(); err != nil {
			return err
		}
		if h := c.hooks; h != nil && h.EdgeWait != nil {
			h.EdgeWait(c.name, in.Name(), last)
		}
		snap, err := in.WaitNewer(c.Context(), last)
		if err != nil {
			return ErrStopped
		}
		last = snap.Version
		if err := fn(snap); err != nil {
			return err
		}
		if snap.Final {
			return nil
		}
	}
}
