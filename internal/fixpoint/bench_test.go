package fixpoint

import (
	"testing"

	"anytime/internal/testgate"
)

func benchVectors(n int) ([]int32, []int32) {
	a := make([]int32, n)
	b := make([]int32, n)
	for i := range a {
		a[i] = int32(int16(i * 31))
		b[i] = int32(int16(i*i*17 + 3))
	}
	return a, b
}

func BenchmarkDot(b *testing.B) {
	x, y := benchVectors(1 << 12)
	b.SetBytes(1 << 12 * 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Dot(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBitSerialDot16(b *testing.B) {
	x, y := benchVectors(1 << 12)
	b.SetBytes(1 << 12 * 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BitSerialDot(x, y, 16, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMul64(b *testing.B) {
	m, _ := NewMatrix(64, 64)
	c, _ := NewMatrix(64, 64)
	for i := range m.Data {
		m.Data[i] = int32(int8(i))
		c.Data[i] = int32(int8(i * 7))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(m, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTruncateMantissa(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += TruncateMantissa(float64(i)*1.7, 12)
	}
	_ = sink
}

// allocSink keeps the gated calls' results alive so the compiler cannot
// drop them.
var allocSink int64

// TestKernelAllocBudget is the run-time allocation gate of the arithmetic
// kernels every app's inner loop bottoms out in. Each row is a function and
// its budget.
func TestKernelAllocBudget(t *testing.T) {
	x, y := benchVectors(256)
	a, _ := NewMatrix(16, 16)
	b, _ := NewMatrix(16, 16)
	dst, _ := NewMatrix(16, 16)
	copy(a.Data, x)
	copy(b.Data, y)
	testgate.Allocs(t, "Dot", 0, func() { v, _ := Dot(x, y); allocSink += v })
	testgate.Allocs(t, "BitSerialDot", 0, func() {
		v, _ := BitSerialDot(x, y, 16, func(_ uint, partial int64) { allocSink += partial })
		allocSink += v
	})
	testgate.Allocs(t, "MatMulInto", 0, func() { MatMulInto(dst, a, b) })
}
