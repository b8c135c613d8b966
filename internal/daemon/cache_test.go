package daemon

import (
	"bytes"
	"net/http"
	"strconv"
	"testing"

	"anytime/internal/pix"
)

// TestCacheWarmStartFlow drives the documented repeat-traffic sequence:
// a precise request populates the cache, then a deadline request for the
// same content warm-starts from it.
func TestCacheWarmStartFlow(t *testing.T) {
	s := testServer(t)

	// Request 1: no knob, precise. Delivered snapshot is admitted.
	rec := get(t, s, "/blur")
	if rec.Code != http.StatusOK {
		t.Fatalf("precise: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Anytime-Cache"); got != "" {
		t.Fatalf("no-knob request reported cache state %q", got)
	}
	if s.cache.Len() != 1 {
		t.Fatalf("cache entries after precise delivery = %d, want 1", s.cache.Len())
	}

	// Request 2: deadline. Must hit, seed, and deliver at a version past
	// the seed.
	rec = get(t, s, "/blur?deadline=2s")
	if rec.Code != http.StatusOK {
		t.Fatalf("warm: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Anytime-Cache"); got != "hit" {
		t.Fatalf("X-Anytime-Cache = %q, want hit", got)
	}
	seedV, err := strconv.Atoi(rec.Header().Get("X-Anytime-Seed-Version"))
	if err != nil || seedV < 1 {
		t.Fatalf("X-Anytime-Seed-Version = %q", rec.Header().Get("X-Anytime-Seed-Version"))
	}
	gotV, err := strconv.Atoi(rec.Header().Get("X-Anytime-Version"))
	if err != nil || gotV <= seedV {
		t.Fatalf("delivered version %q not past seed %d", rec.Header().Get("X-Anytime-Version"), seedV)
	}
	// The warm run completed to precise within the generous deadline: its
	// output must be bit-identical to the cold precise output.
	if rec.Header().Get("X-Anytime-Final") != "true" {
		t.Skip("deadline fired before precise on a slow machine; equivalence covered by conform")
	}
	img, err := pix.DecodePNM(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !img.Equal(refOf(t, s, "blur")) {
		t.Fatal("warm-started precise output differs from the cold baseline")
	}
}

func TestCacheMissOnFirstDeadlineRequest(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/blur?deadline=2s")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get("X-Anytime-Cache"); got != "miss" {
		t.Fatalf("X-Anytime-Cache = %q, want miss", got)
	}
	if rec.Header().Get("X-Anytime-Seed-Version") != "" {
		t.Fatal("miss carried a seed version")
	}
}

// Distinct ?input= keys must not share entries (the key override is what
// the router hashes on, so collapsing them would cross-contaminate
// streams).
func TestCacheInputKeyIsolation(t *testing.T) {
	s := testServer(t)
	if rec := get(t, s, "/blur?deadline=2s&input=a"); rec.Header().Get("X-Anytime-Cache") != "miss" {
		t.Fatalf("first key-a: %q", rec.Header().Get("X-Anytime-Cache"))
	}
	if rec := get(t, s, "/blur?deadline=2s&input=b"); rec.Header().Get("X-Anytime-Cache") != "miss" {
		t.Fatalf("first key-b: %q", rec.Header().Get("X-Anytime-Cache"))
	}
	if rec := get(t, s, "/blur?deadline=2s&input=a"); rec.Header().Get("X-Anytime-Cache") != "hit" {
		t.Fatalf("repeat key-a: %q", rec.Header().Get("X-Anytime-Cache"))
	}
}

// The delta path: a new key misses, but ?prior= names the cached sibling
// and seeds through a tile diff.
func TestCacheDeltaStart(t *testing.T) {
	s := testServer(t)
	if rec := get(t, s, "/blur?deadline=2s&input=frame1"); rec.Header().Get("X-Anytime-Cache") != "miss" {
		t.Fatal("frame1 should miss")
	}
	rec := get(t, s, "/blur?deadline=2s&input=frame2&prior=frame1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get("X-Anytime-Cache"); got != "delta" {
		t.Fatalf("X-Anytime-Cache = %q, want delta", got)
	}
	if rec.Header().Get("X-Anytime-Seed-Version") == "" {
		t.Fatal("delta start carried no seed version")
	}
	// A prior that was never cached falls back to a plain miss.
	rec = get(t, s, "/blur?deadline=2s&input=frame9&prior=frame8")
	if got := rec.Header().Get("X-Anytime-Cache"); got != "miss" {
		t.Fatalf("unknown prior: %q, want miss", got)
	}
}

// A config change (different epoch) must never seed from the old entries.
func TestCacheEpochMismatchNeverSeeds(t *testing.T) {
	s := testServer(t)
	if rec := get(t, s, "/blur?deadline=2s"); rec.Header().Get("X-Anytime-Cache") != "miss" {
		t.Fatal("first request should miss")
	}
	// Simulate a config change in place: bump the epoch the handler keys
	// with, as a restart with different workers would.
	s.cacheEpoch++
	if rec := get(t, s, "/blur?deadline=2s"); rec.Header().Get("X-Anytime-Cache") != "miss" {
		t.Fatalf("epoch-mismatched request = %q, want miss", rec.Header().Get("X-Anytime-Cache"))
	}
}

func TestCacheDisabled(t *testing.T) {
	s, err := New(64, 2, Config{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if s.cache != nil {
		t.Fatal("CacheBytes -1 still built a cache")
	}
	rec := get(t, s, "/blur?deadline=2s")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get("X-Anytime-Cache"); got != "" {
		t.Fatalf("disabled cache reported state %q", got)
	}
}

func TestCacheEpochDiffersByConfig(t *testing.T) {
	if cacheEpoch(64, 2) == cacheEpoch(64, 4) || cacheEpoch(64, 2) == cacheEpoch(128, 2) {
		t.Fatal("cacheEpoch does not separate configurations")
	}
	if cacheEpoch(64, 2) != cacheEpoch(64, 2) {
		t.Fatal("cacheEpoch not deterministic")
	}
}
