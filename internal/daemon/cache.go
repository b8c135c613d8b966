package daemon

import (
	"context"

	"anytime/internal/core"
	"anytime/internal/pix"
	"anytime/internal/reqtrace"
	"anytime/internal/serve"
	"anytime/internal/snapcache"
)

// cacheEpoch fingerprints the configuration a cached snapshot depends on:
// the input geometry and the worker count (worker count changes snapshot
// granularity interleaving, not pixel values, but a conservative epoch is
// cheap — a stale-config entry just misses and ages out). Any future knob
// that changes what a route computes must be folded in here.
func cacheEpoch(size, workers int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range []int{size, workers} {
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(v>>(8*i)))) * prime64
		}
	}
	return h
}

// seedDelta attempts a delta start: the request's exact content key
// missed, but the client named a sibling key (?prior=, typically the
// previous frame of a stream) whose entry may still be cached. On a
// sibling hit the automaton is seeded with a pix.SeedFrame: the cached
// frame plus the set of its tiles that cannot be trusted, which fall back
// to hold-fill until recomputed.
//
// The daemon's in-process routes serve one fixed input each, so the
// sibling's input is this route's own and no tile is stale: the set is
// empty, built from the input's tile grid with no compare. Clients running
// their own frames through cmd/anytime -cache (or embedding internal/serve
// directly) diff real frames with pix.TileDiff. Returns the
// X-Anytime-Cache header value ("delta", or "" when the sibling also
// missed or could not seed) and the seed version.
func (s *Server) seedDelta(ctx context.Context, entry serve.Entry[*pix.Image], app, prior string, input *pix.Image) (string, core.Version) {
	tr := reqtrace.FromContext(ctx)
	pe, ok := s.cache.Get(snapcache.Key{App: app, Digest: prior, Epoch: s.cacheEpoch})
	if !ok {
		s.serveSink.Send(tr.CacheMiss(app, prior, true))
		return "", 0
	}
	s.serveSink.Send(tr.CacheHit(app, prior, uint64(pe.Version), true))
	stale := pix.NewDirtyTiles(pix.NewTileGrid(input.W, input.H, input.C))
	if !serve.Seed(ctx, entry, &pix.SeedFrame{Image: pe.Value, Stale: stale}, pe.Version) {
		return "", 0
	}
	return "delta", pe.Version
}
