package snapcache

import (
	"fmt"
	"sync"
	"testing"

	"anytime/internal/core"
)

// testCache builds a byte-slice cache of maxBytes.
func testCache(t *testing.T, maxBytes int64) *Cache[[]byte] {
	t.Helper()
	c, err := New(Config[[]byte]{
		MaxBytes: maxBytes,
		SizeOf:   func(b []byte) int { return len(b) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheHitMiss(t *testing.T) {
	c := testCache(t, 1<<20)
	k := Key{App: "conv2d", Digest: "abc", Epoch: 1}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	if !c.Put(k, Entry[[]byte]{Value: []byte("snap"), Version: 3, SNRdB: 21.5}) {
		t.Fatal("Put refused")
	}
	e, ok := c.Get(k)
	if !ok || string(e.Value) != "snap" || e.Version != 3 || e.SNRdB != 21.5 {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	if c.Bytes() != 4 {
		t.Fatalf("Bytes = %d, want 4", c.Bytes())
	}
}

// Config-epoch and digest hygiene: near-identical keys must never alias.
// The epoch check is what guarantees a config change can never seed a
// request with an approximation computed under the old config.
func TestCacheKeyHygiene(t *testing.T) {
	c := testCache(t, 1<<20)
	base := Key{App: "conv2d", Digest: "abc", Epoch: 1}
	c.Put(base, Entry[[]byte]{Value: []byte("base"), Version: 1})
	for _, k := range []Key{
		{App: "conv2d", Digest: "abc", Epoch: 2}, // config changed
		{App: "debayer", Digest: "abc", Epoch: 1},
		{App: "conv2d", Digest: "abd", Epoch: 1},
		{App: "conv2d", Digest: "ab", Epoch: 1},
		{App: "conv2dabc", Digest: "", Epoch: 1}, // no field concatenation
	} {
		if _, ok := c.Get(k); ok {
			t.Errorf("key %+v aliased %+v", k, base)
		}
	}
	if _, ok := c.Get(base); !ok {
		t.Fatal("exact key missed")
	}
}

func TestCacheVersionMonotoneReplace(t *testing.T) {
	c := testCache(t, 1<<20)
	k := Key{App: "conv2d", Digest: "abc", Epoch: 1}
	c.Put(k, Entry[[]byte]{Value: []byte("v5"), Version: 5})
	// An older or equal version must not replace a refined entry.
	if c.Put(k, Entry[[]byte]{Value: []byte("v3"), Version: 3}) {
		t.Fatal("older version replaced a newer entry")
	}
	if c.Put(k, Entry[[]byte]{Value: []byte("v5b"), Version: 5}) {
		t.Fatal("equal version replaced the entry")
	}
	if !c.Put(k, Entry[[]byte]{Value: []byte("v6"), Version: 6}) {
		t.Fatal("newer version refused")
	}
	e, _ := c.Get(k)
	if string(e.Value) != "v6" {
		t.Fatalf("value = %q", e.Value)
	}
	if c.Bytes() != 2 {
		t.Fatalf("Bytes = %d after a replacement, want 2", c.Bytes())
	}
	// Version 0 is never admissible (it promises a seed that has no
	// published state).
	if c.Put(Key{App: "x"}, Entry[[]byte]{Value: []byte("z")}) {
		t.Fatal("version 0 admitted")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := testCache(t, 30)
	keys := make([]Key, 3)
	for i := range keys {
		keys[i] = Key{App: "a", Digest: fmt.Sprintf("d%d", i), Epoch: 1}
		c.Put(keys[i], Entry[[]byte]{Value: make([]byte, 10), Version: 1})
	}
	// Touch 0 and 2; admitting a fourth 10-byte entry must evict 1.
	c.Get(keys[0])
	c.Get(keys[2])
	c.Put(Key{App: "a", Digest: "d3", Epoch: 1}, Entry[[]byte]{Value: make([]byte, 10), Version: 1})
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("LRU entry survived")
	}
	for _, k := range []Key{keys[0], keys[2]} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("recently used %+v evicted", k)
		}
	}
	if c.Bytes() > 30 {
		t.Fatalf("cache over budget: %d", c.Bytes())
	}
	// An entry larger than the whole cache is refused outright.
	if c.Put(Key{App: "a", Digest: "huge", Epoch: 1}, Entry[[]byte]{Value: make([]byte, 31), Version: 1}) {
		t.Fatal("oversized entry admitted")
	}
}

// Eviction under concurrent admission: hammer a small cache from many
// writers and readers at once (run with -race). The invariants: never over
// budget, every size a reader sees is whole entries, and the recently used
// key stays admitted.
func TestCacheConcurrentAdmission(t *testing.T) {
	c := testCache(t, 200)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{App: "a", Digest: fmt.Sprintf("d%d", (w*7+i)%32), Epoch: 1}
				c.Put(k, Entry[[]byte]{Value: make([]byte, 20), Version: core.Version(i + 1)})
				c.Get(k)
				c.Get(Key{App: "a", Digest: "d0", Epoch: 1})
				if b := c.Bytes(); b%20 != 0 || b > 200 {
					t.Errorf("torn size: %d bytes", b)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Bytes() > 200 {
		t.Fatalf("cache over budget after concurrent admission: %d", c.Bytes())
	}
}
