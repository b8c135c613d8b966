// Package snapcache is a content-addressed cache of published anytime
// snapshots: entries keyed by (app, input key, config epoch), each holding
// a snapshot with the version it was published at and the SNR it measured,
// so a later run over the same content could be seeded from it
// (core.Automaton.SeedFrom, serve.SeedFromCache).
//
// Only the frozen benchmark (cmd/anytimebench: the snapcache.* probes and
// serve.Admit) and serve's benchcompat.go call this package; it can be
// deleted whole once the benchmark stops calling it. Seeding does not buy
// accuracy at a deadline: a seeded image stage still computes every round
// from the first, so a warm start cut after as many rounds as its seed had
// delivers the cold run's image, and anytimed keeps no cache.
//
// Concurrency model: lookups take only a read lock plus one atomic store (a
// recency stamp). Admissions are serialized by a dedicated writer mutex — a
// single-writer admission path, mirroring the model's single-writer
// buffers — and do the eviction scan there. Entries never expire; a full
// cache evicts the least recently used.
package snapcache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"anytime/internal/core"
)

// Key addresses a cached snapshot by content and configuration.
type Key struct {
	// App is the application the snapshot came from ("conv2d", ...).
	App string
	// Digest is the content key of the input, a digest or a
	// caller-supplied key. Two requests share a cache entry only if their
	// digests match exactly.
	Digest string
	// Epoch fingerprints the app configuration the snapshot was computed
	// under (kernel size, workers, image geometry, ...). A config change
	// bumps the epoch, so stale-config entries can never seed a request —
	// they simply miss and age out.
	Epoch uint64
}

// Entry is a cached published snapshot with the metadata a warm start
// needs: the version the seeded run continues from and the SNR the cached
// approximation measured at delivery time.
type Entry[T any] struct {
	Value   T
	Version core.Version
	SNRdB   float64
}

// Config parameterizes New.
type Config[T any] struct {
	// MaxBytes bounds the total payload size (per SizeOf). Default 64 MiB.
	MaxBytes int64
	// SizeOf reports the payload size of a value in bytes. Required.
	SizeOf func(T) int
}

type item[T any] struct {
	e     Entry[T]
	bytes int64
	used  atomic.Int64 // logical recency stamp; stored without the write lock
}

// Cache is a content-addressed snapshot cache with size-bounded LRU
// eviction. All methods are safe for concurrent use. Values are held and
// handed out as admitted, never copied: published app versions are
// immutable.
type Cache[T any] struct {
	cfg Config[T]

	admit sync.Mutex // serializes admissions (single-writer)

	mu      sync.RWMutex
	entries map[Key]*item[T]
	bytes   int64

	clock atomic.Int64 // logical time for LRU stamps
}

// New returns an empty cache. SizeOf is required; a zero MaxBytes takes
// the default (64 MiB).
func New[T any](cfg Config[T]) (*Cache[T], error) {
	if cfg.SizeOf == nil {
		return nil, fmt.Errorf("snapcache: Config.SizeOf is required")
	}
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = 64 << 20
	}
	if cfg.MaxBytes < 0 {
		return nil, fmt.Errorf("snapcache: MaxBytes %d must be positive", cfg.MaxBytes)
	}
	return &Cache[T]{cfg: cfg, entries: make(map[Key]*item[T])}, nil
}

// Get looks up the entry for k. It takes only the read lock and one atomic
// store.
func (c *Cache[T]) Get(k Key) (Entry[T], bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	it, ok := c.entries[k]
	if !ok {
		return Entry[T]{}, false
	}
	it.used.Store(c.clock.Add(1))
	return it.e, true
}

// Put admits an entry under k, evicting least-recently-used entries as
// needed to respect MaxBytes. It reports whether the entry was admitted:
// an entry larger than the whole cache is refused, and an existing entry
// is only replaced by a strictly newer version (replacing a refined
// approximation with an earlier one would regress every future warm
// start). Admissions are serialized; a caller serving requests should
// admit after the response is delivered.
func (c *Cache[T]) Put(k Key, e Entry[T]) bool {
	if e.Version == 0 {
		return false
	}
	bytes := int64(c.cfg.SizeOf(e.Value))
	if bytes > c.cfg.MaxBytes {
		return false
	}
	c.admit.Lock()
	defer c.admit.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[k]; ok {
		if old.e.Version >= e.Version {
			return false
		}
		c.drop(k, old)
	}
	it := &item[T]{e: e, bytes: bytes}
	it.used.Store(c.clock.Add(1))
	c.entries[k] = it
	c.bytes += bytes
	for c.bytes > c.cfg.MaxBytes {
		vk, victim := c.lruLocked(it)
		if victim == nil {
			break
		}
		c.drop(vk, victim)
	}
	return true
}

// lruLocked returns the least-recently-used entry other than keep.
// Called with mu held. O(n) over entries: admissions are rare and off the
// request path, so a scan beats maintaining an ordered structure that
// every lock-cheap Get would have to update.
func (c *Cache[T]) lruLocked(keep *item[T]) (Key, *item[T]) {
	var vk Key
	var victim *item[T]
	var least int64
	for k, it := range c.entries {
		if it == keep {
			continue
		}
		if u := it.used.Load(); victim == nil || u < least {
			vk, victim, least = k, it, u
		}
	}
	return vk, victim
}

// drop removes it, known present under k. Called with mu held.
func (c *Cache[T]) drop(k Key, it *item[T]) {
	delete(c.entries, k)
	c.bytes -= it.bytes
}

// Bytes reports the total payload size of cached entries.
func (c *Cache[T]) Bytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bytes
}
