package snapcache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"anytime/internal/core"
	"anytime/internal/pix"
)

// testCache builds a byte-slice cache with a controllable clock.
func testCache(t *testing.T, maxBytes int64, ttl time.Duration) (*Cache[[]byte], *time.Time) {
	t.Helper()
	now := time.Unix(1000, 0)
	c, err := New(Config[[]byte]{
		MaxBytes: maxBytes,
		TTL:      ttl,
		SizeOf:   func(b []byte) int { return len(b) },
		Now:      func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, &now
}

func TestCacheHitMiss(t *testing.T) {
	c, _ := testCache(t, 1<<20, time.Minute)
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
	if st := c.Stats(); c.Len() != 1 || c.Bytes() != 4 || st.Bytes != 4 || st.Entries != 1 || len(st.Evictions) != 0 {
		t.Fatalf("size: Len=%d Bytes=%d Stats=%+v", c.Len(), c.Bytes(), st)
	}
}

// Config-epoch and digest hygiene: near-identical keys must never alias.
// The epoch check is what guarantees a config change can never seed a
// request with an approximation computed under the old config.
func TestCacheKeyHygiene(t *testing.T) {
	c, _ := testCache(t, 1<<20, time.Minute)
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

func TestCacheTTLExpiryMidStream(t *testing.T) {
	c, now := testCache(t, 1<<20, time.Minute)
	k := Key{App: "conv2d", Digest: "abc", Epoch: 1}
	c.Put(k, Entry[[]byte]{Value: []byte("old"), Version: 9})
	*now = now.Add(30 * time.Second)
	if _, ok := c.Get(k); !ok {
		t.Fatal("entry missed before TTL")
	}
	// The entry expires between two requests of the same stream: the later
	// request must miss (never seed from an expired entry) and the entry
	// must be dropped with reason "ttl".
	*now = now.Add(31 * time.Second)
	if _, ok := c.Get(k); ok {
		t.Fatal("expired entry hit")
	}
	if got := c.Stats().Evictions; got["ttl"] != 1 || len(got) != 1 {
		t.Fatalf("evictions = %v, want only ttl: 1", got)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("expired entry retained: Len=%d Bytes=%d", c.Len(), c.Bytes())
	}
	// An expired (but not yet dropped) entry must not block re-admission
	// at a lower version: the fresh run's output is the only valid one.
	c.Put(k, Entry[[]byte]{Value: []byte("new"), Version: 2})
	e, ok := c.Get(k)
	if !ok || string(e.Value) != "new" {
		t.Fatalf("re-admission after expiry: %+v %v", e, ok)
	}
}

func TestCacheExpiredEntryReplaceable(t *testing.T) {
	c, now := testCache(t, 1<<20, time.Minute)
	k := Key{App: "conv2d", Digest: "abc", Epoch: 1}
	c.Put(k, Entry[[]byte]{Value: []byte("old"), Version: 9})
	*now = now.Add(2 * time.Minute)
	// No Get dropped it; Put must still treat it as gone.
	if !c.Put(k, Entry[[]byte]{Value: []byte("new"), Version: 1}) {
		t.Fatal("expired entry blocked a lower-version Put")
	}
	e, _ := c.Get(k)
	if string(e.Value) != "new" {
		t.Fatalf("value = %q", e.Value)
	}
}

func TestCacheVersionMonotoneReplace(t *testing.T) {
	c, _ := testCache(t, 1<<20, time.Minute)
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
	if got := c.Stats().Evictions; got["replaced"] != 1 || len(got) != 1 {
		t.Fatalf("evictions = %v, want only replaced: 1", got)
	}
	// Version 0 is never admissible (it promises a seed that has no
	// published state).
	if c.Put(Key{App: "x"}, Entry[[]byte]{Value: []byte("z")}) {
		t.Fatal("version 0 admitted")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, _ := testCache(t, 30, time.Minute)
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
	if got := c.Stats().Evictions; got["lru"] != 1 || len(got) != 1 {
		t.Fatalf("evictions = %v, want only lru: 1", got)
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
// budget at rest, and Stats reads a consistent size while they run.
func TestCacheConcurrentAdmission(t *testing.T) {
	c, _ := testCache(t, 200, time.Minute)
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
				if st := c.Stats(); st.Bytes != int64(st.Entries)*20 {
					t.Errorf("torn Stats: %+v", st)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Bytes() > 200 {
		t.Fatalf("cache over budget after concurrent admission: %d", c.Bytes())
	}
	if c.Len() > 10 {
		t.Fatalf("too many entries for budget: %d", c.Len())
	}
}

func TestDigestImage(t *testing.T) {
	a := pix.MustNew(8, 8, 1)
	b := pix.MustNew(8, 8, 1)
	if DigestImage(a) != DigestImage(b) {
		t.Fatal("equal images digest differently")
	}
	b.SetGray(3, 3, 1)
	if DigestImage(a) == DigestImage(b) {
		t.Fatal("single-sample change not reflected")
	}
	// Same samples, different shape.
	c := pix.MustNew(4, 16, 1)
	if DigestImage(a) == DigestImage(c) {
		t.Fatal("geometry not folded in")
	}
}
