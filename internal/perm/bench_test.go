package perm

import "testing"

func BenchmarkLFSRNext(b *testing.B) {
	l, err := NewLFSR(24, 1)
	if err != nil {
		b.Fatal(err)
	}
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink ^= l.Next()
	}
	_ = sink
}

func BenchmarkTree2DConstruct512(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Tree2D(512, 512); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPseudoRandomConstruct512(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PseudoRandom(512*512, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOrderAt(b *testing.B) {
	o, err := Tree1D(1 << 16)
	if err != nil {
		b.Fatal(err)
	}
	var sink int
	for i := 0; i < b.N; i++ {
		sink += o.At(i & (1<<16 - 1))
	}
	_ = sink
}
