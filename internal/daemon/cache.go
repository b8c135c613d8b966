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
// sibling hit, the tiles where the two inputs differ are computed with
// pix.TileDiff, dilated once for the consumers' stencil halo, and the
// automaton is seeded with a pix.SeedFrame — the cached frame with the
// changed tiles marked stale, so only those fall back to hold-fill until
// recomputed.
//
// The daemon's in-process routes serve one fixed input each, so prior and
// current input pixels coincide and the diff is empty; clients running
// their own frames through cmd/anytime -cache (or embedding
// internal/serve directly) exercise real frame-to-frame diffs. Returns
// the X-Anytime-Cache header value ("delta", or "" when the sibling also
// missed or could not seed) and the seed version.
func (s *Server) seedDelta(ctx context.Context, entry serve.Entry[*pix.Image], app, prior string, input *pix.Image) (string, core.Version) {
	tr := reqtrace.FromContext(ctx)
	pe, ok := s.cache.Get(snapcache.Key{App: app, Digest: prior, Epoch: s.cacheEpoch})
	if !ok {
		s.serveSink.Send(tr.CacheMiss(app, prior, true))
		return "", 0
	}
	s.serveSink.Send(tr.CacheHit(app, prior, uint64(pe.Version), true))
	// The sibling entry's input is this route's own input (one fixed input
	// per route); diff yields the tiles that cannot be trusted.
	stale, err := pix.TileDiff(input, input)
	if err != nil {
		tr.Error("delta diff: " + err.Error())
		return "", 0
	}
	stale.Dilate()
	if !serve.Seed(ctx, entry, &pix.SeedFrame{Image: pe.Value, Stale: stale}, pe.Version) {
		return "", 0
	}
	return "delta", pe.Version
}
