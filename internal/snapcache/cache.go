// Package snapcache is a content-addressed cache of published anytime
// snapshots, the warm-start store of the serving tier (ROADMAP item 3).
//
// Production anytime traffic is highly redundant: repeated and
// near-duplicate inputs recompute identical approximation trajectories from
// version 1 on every request, even though the previous request already
// published exactly the artifact worth reusing — a snapshot at a known
// version and measured SNR. The cache keys those artifacts by
// (app, input digest, config epoch) so a later request for the same content
// can seed its pooled automaton from the cached approximation
// (core.Automaton.SeedFrom) and spend its whole deadline budget on
// refinement. The keying, eviction, and warm-start invariants are
// documented in docs/CACHING.md.
//
// Concurrency model: lookups take only a read lock plus one atomic store (a
// recency stamp), so the hot serving path never serializes on the cache.
// Admissions are serialized by a dedicated writer mutex — a single-writer
// admission path, mirroring the model's single-writer buffers — and do the
// eviction scan there, off the request's critical path (the daemon admits
// after the response is written).
package snapcache

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"anytime/internal/core"
)

// Key addresses a cached snapshot by content and configuration.
type Key struct {
	// App is the application the snapshot came from ("conv2d", ...).
	App string
	// Digest is the content digest of the request input (DigestImage, or
	// a caller-supplied routing key). Two requests share a
	// cache entry only if their digests match exactly.
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
	// TTL bounds entry age; expired entries miss (and are dropped) at
	// lookup time. Default 5 minutes.
	TTL time.Duration
	// SizeOf reports the payload size of a value in bytes. Required.
	SizeOf func(T) int
	// Now is the clock; nil means time.Now. A test seam for TTL behavior.
	Now func() time.Time
}

type item[T any] struct {
	e     Entry[T]
	bytes int64
	added time.Time
	used  atomic.Int64 // logical recency stamp; stored without the write lock
}

// Cache is a content-addressed snapshot cache with TTL and size-bounded
// LRU eviction. All methods are safe for concurrent use. Values are held
// and handed out as admitted, never copied: the serving tier caches
// published app versions, which are immutable.
type Cache[T any] struct {
	cfg Config[T]

	admit sync.Mutex // serializes admissions (single-writer)

	mu        sync.RWMutex
	entries   map[Key]*item[T]
	bytes     int64
	evictions map[string]uint64 // by reason: lru | ttl | replaced

	clock atomic.Int64 // logical time for LRU stamps
}

// New returns an empty cache. SizeOf is required; zero MaxBytes and TTL
// take the defaults (64 MiB, 5 minutes).
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
	if cfg.TTL == 0 {
		cfg.TTL = 5 * time.Minute
	}
	if cfg.TTL < 0 {
		return nil, fmt.Errorf("snapcache: TTL %v must be positive", cfg.TTL)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Cache[T]{cfg: cfg, entries: make(map[Key]*item[T]), evictions: make(map[string]uint64)}, nil
}

// Get looks up the entry for k. The hot path takes only the read lock and
// one atomic store; an entry found expired is dropped (reason "ttl") and
// reported as a miss.
func (c *Cache[T]) Get(k Key) (Entry[T], bool) {
	c.mu.RLock()
	it, ok := c.entries[k]
	var expired bool
	if ok {
		expired = c.cfg.Now().Sub(it.added) > c.cfg.TTL
		if !expired {
			it.used.Store(c.clock.Add(1))
		}
	}
	c.mu.RUnlock()

	if ok && expired {
		c.mu.Lock()
		// Recheck: a concurrent Put may have replaced the item.
		if cur, still := c.entries[k]; still && cur == it {
			c.drop(k, cur, "ttl")
		}
		c.mu.Unlock()
		ok = false
	}
	if !ok {
		var zero Entry[T]
		return zero, false
	}
	return it.e, true
}

// Put admits an entry under k, evicting least-recently-used entries as
// needed to respect MaxBytes. It reports whether the entry was admitted:
// an entry larger than the whole cache is refused, and an existing entry
// is only replaced by a strictly newer version (replacing a refined
// approximation with an earlier one would regress every future warm
// start). Admissions are serialized; callers on the serving path should
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
	now := c.cfg.Now()

	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[k]; ok {
		fresh := now.Sub(old.added) <= c.cfg.TTL
		if fresh && old.e.Version >= e.Version {
			return false
		}
		c.drop(k, old, "replaced")
	}
	it := &item[T]{e: e, bytes: bytes, added: now}
	it.used.Store(c.clock.Add(1))
	c.entries[k] = it
	c.bytes += bytes
	for c.bytes > c.cfg.MaxBytes {
		vk, victim := c.lruLocked(it)
		if victim == nil {
			break
		}
		c.drop(vk, victim, "lru")
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

// drop removes it (known present under k) and counts the eviction under
// its reason: "lru" (capacity), "ttl" (expired at lookup), or "replaced"
// (overwritten by a newer version). Called with mu held.
func (c *Cache[T]) drop(k Key, it *item[T], reason string) {
	delete(c.entries, k)
	c.bytes -= it.bytes
	c.evictions[reason]++
}

// Stats is the cache's own bookkeeping, one consistent reading under its
// lock. Hits and misses are not here: the serving tier reports each lookup
// as a reqtrace event (cache.hit / cache.miss), which is what /metrics
// counts.
type Stats struct {
	Entries   int
	Bytes     int64
	Evictions map[string]uint64 // entries dropped, by reason
}

// Stats returns the cache's current size and eviction counts.
func (c *Cache[T]) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return Stats{Entries: len(c.entries), Bytes: c.bytes, Evictions: maps.Clone(c.evictions)}
}

// Len reports the number of cached entries.
func (c *Cache[T]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Bytes reports the total payload size of cached entries.
func (c *Cache[T]) Bytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bytes
}
