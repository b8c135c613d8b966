package snapcache_test

import (
	"fmt"

	"anytime/internal/pix"
	"anytime/internal/snapcache"
)

// Example_warmStart walks the cache protocol end to end: the first request
// for a piece of content misses and runs cold, its delivered snapshot is
// admitted on the way out, and the repeat request finds the approximation
// — version and measured SNR intact — ready to seed a warm start
// (core.Automaton.SeedFrom).
func Example_warmStart() {
	cache, err := snapcache.New(snapcache.Config[*pix.Image]{
		SizeOf: func(im *pix.Image) int { return len(im.Pix) * 4 },
	})
	if err != nil {
		panic(err)
	}

	// The key is content-addressed: the app, a key for the input, and the
	// config epoch. Same input + same config = same key.
	key := snapcache.Key{App: "conv2d", Digest: "frame-7", Epoch: 0x2a}

	if _, ok := cache.Get(key); !ok {
		fmt.Println("request 1: miss, run cold from version 1")
	}

	// The cold request delivered version 6 at its deadline; admit it with
	// the SNR measured against the precise output.
	delivered := pix.MustNew(32, 32, 1)
	cache.Put(key, snapcache.Entry[*pix.Image]{Value: delivered, Version: 6, SNRdB: 23.4})

	if e, ok := cache.Get(key); ok {
		fmt.Printf("request 2: hit, seed at version %d (%.1f dB) and publish %d next\n",
			e.Version, e.SNRdB, e.Version+1)
	}

	// A config change rotates the epoch; old entries can never seed.
	if _, ok := cache.Get(snapcache.Key{App: key.App, Digest: key.Digest, Epoch: 0x2b}); !ok {
		fmt.Println("after config change: miss")
	}

	// Output:
	// request 1: miss, run cold from version 1
	// request 2: hit, seed at version 6 (23.4 dB) and publish 7 next
	// after config change: miss
}
