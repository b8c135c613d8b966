package snapcache

import (
	"fmt"

	"anytime/internal/pix"
)

// Content digests. The cache is content-addressed: the digest of the
// request input is the lookup key, shared with the cluster router's ring
// key (cluster.RingKey) so repeats of the same content hash to the shard
// holding the warm entry. The digest is 128 bits built from two
// independent 64-bit FNV-1a passes — deterministic across processes (no
// per-process hash seed), cheap (one multiply per byte per pass), and wide
// enough that accidental collisions are not a practical concern. It is NOT
// cryptographic: callers exposed to adversarial inputs must not rely on it
// for integrity (the conform decodability validator is the backstop for a
// corrupted cache entry).

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// Second-pass offset basis: an arbitrary odd constant so the two
	// 64-bit passes are independent.
	fnvOffsetAlt = 0x9E3779B97F4A7C15
)

// DigestImage digests an image's geometry and samples. Images differing in
// any sample, or in shape alone, digest differently.
func DigestImage(im *pix.Image) string {
	h1 := uint64(fnvOffset64)
	h2 := uint64(fnvOffsetAlt)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			b := byte(v >> (8 * i))
			h1 = (h1 ^ uint64(b)) * fnvPrime64
			h2 = (h2 ^ uint64(b)) * fnvPrime64
		}
	}
	mix(uint64(im.W))
	mix(uint64(im.H))
	mix(uint64(im.C))
	for _, v := range im.Pix {
		u := uint32(v)
		for i := 0; i < 4; i++ {
			b := byte(u >> (8 * i))
			h1 = (h1 ^ uint64(b)) * fnvPrime64
			h2 = (h2 ^ uint64(b)) * fnvPrime64
		}
	}
	return fmt.Sprintf("%016x%016x", h1, h2)
}
