package perm

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestSequentialOrder(t *testing.T) {
	o, err := Sequential(5)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Indices(); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Errorf("Sequential(5) = %v", got)
	}
}

func TestReverseSequentialOrder(t *testing.T) {
	o, err := ReverseSequential(4)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Indices(); !reflect.DeepEqual(got, []int{3, 2, 1, 0}) {
		t.Errorf("ReverseSequential(4) = %v", got)
	}
}

// TestTree1DPaperFigure4 asserts the exact visit order of paper Figure 4:
// a 16-element set sampled by the bit-reverse permutation
// p: b3b2b1b0 -> b0b1b2b3.
func TestTree1DPaperFigure4(t *testing.T) {
	o, err := Tree1D(16)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15}
	if got := o.Indices(); !reflect.DeepEqual(got, want) {
		t.Errorf("Tree1D(16) = %v, want %v", got, want)
	}
}

// TestTree1DResolutionDoubling checks the defining property of the tree
// order: after 2^k elements, the visited indices form an evenly spaced grid
// of stride n/2^k starting at 0.
func TestTree1DResolutionDoubling(t *testing.T) {
	const n = 256
	o, err := Tree1D(n)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; 1<<k <= n; k++ {
		count := 1 << k
		stride := n / count
		visited := make(map[int]bool, count)
		for i := 0; i < count; i++ {
			visited[o.At(i)] = true
		}
		for v := 0; v < n; v += stride {
			if !visited[v] {
				t.Fatalf("after %d elements index %d (stride %d grid) not visited; got %v", count, v, stride, visited)
			}
		}
	}
}

// TestTree2DPaperFigure5 asserts the paper's 8x8 construction
// p: b5b4b3 b2b1b0 -> row=b1b3b5, col=b0b2b4: the first four visits are the
// four quadrant origins, and after 4^k visits a 2^k x 2^k uniform grid has
// been sampled.
func TestTree2DPaperFigure5(t *testing.T) {
	o, err := Tree2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	wantFirst := []int{
		0*8 + 0, // (0,0)
		0*8 + 4, // (0,4)
		4*8 + 0, // (4,0)
		4*8 + 4, // (4,4)
	}
	for i, w := range wantFirst {
		if o.At(i) != w {
			t.Errorf("Tree2D(8,8) position %d = %d (r=%d,c=%d), want %d", i, o.At(i), o.At(i)/8, o.At(i)%8, w)
		}
	}
	for k := 0; k <= 3; k++ {
		count := 1 << (2 * k)
		stride := 8 >> k
		visited := make(map[int]bool, count)
		for i := 0; i < count; i++ {
			visited[o.At(i)] = true
		}
		for r := 0; r < 8; r += stride {
			for c := 0; c < 8; c += stride {
				if !visited[r*8+c] {
					t.Fatalf("after %d elements cell (%d,%d) not visited", count, r, c)
				}
			}
		}
	}
}

func TestTreeNDRejectsNoDims(t *testing.T) {
	if _, err := TreeND(); err == nil {
		t.Error("TreeND() with no dims did not error")
	}
}

func TestTreeNDNegativeDim(t *testing.T) {
	if _, err := TreeND(4, -1); err == nil {
		t.Error("TreeND(4,-1) did not error")
	}
}

func TestOrdersEmptyAndSingleton(t *testing.T) {
	builders := map[string]func(int) (Order, error){
		"Sequential":        Sequential,
		"ReverseSequential": ReverseSequential,
		"Tree1D":            Tree1D,
		"PseudoRandom":      func(n int) (Order, error) { return PseudoRandom(n, 7) },
	}
	for name, build := range builders {
		for _, n := range []int{0, 1} {
			o, err := build(n)
			if err != nil {
				t.Errorf("%s(%d): %v", name, n, err)
				continue
			}
			if o.Len() != n {
				t.Errorf("%s(%d).Len() = %d", name, n, o.Len())
			}
			if !o.IsBijective() {
				t.Errorf("%s(%d) not bijective", name, n)
			}
		}
	}
}

func TestOrdersRejectNegative(t *testing.T) {
	if _, err := Sequential(-1); err == nil {
		t.Error("Sequential(-1) did not error")
	}
	if _, err := Tree1D(-3); err == nil {
		t.Error("Tree1D(-3) did not error")
	}
	if _, err := PseudoRandom(-3, 1); err == nil {
		t.Error("PseudoRandom(-3,1) did not error")
	}
}

// TestOrdersBijectiveProperty is the central property-based test: every
// order constructor must produce a bijection on [0, n) for arbitrary n,
// including non-powers of two.
func TestOrdersBijectiveProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	check := func(name string, build func(n int) (Order, error)) {
		f := func(raw uint16) bool {
			n := int(raw%5000) + 1
			o, err := build(n)
			if err != nil {
				return false
			}
			return o.Len() == n && o.IsBijective()
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	check("Sequential", Sequential)
	check("ReverseSequential", ReverseSequential)
	check("Tree1D", Tree1D)
	check("PseudoRandom", func(n int) (Order, error) { return PseudoRandom(n, uint64(n)*2654435761) })
}

// TestTreeNDBijectiveProperty checks bijectivity of the N-dimensional tree
// order over random small grids of 1 to 3 dimensions.
func TestTreeNDBijectiveProperty(t *testing.T) {
	f := func(a, b, c uint8, ndims uint8) bool {
		dims := []int{int(a%40) + 1, int(b%40) + 1, int(c%40) + 1}
		dims = dims[:int(ndims%3)+1]
		o, err := TreeND(dims...)
		if err != nil {
			return false
		}
		want := 1
		for _, d := range dims {
			want *= d
		}
		return o.Len() == want && o.IsBijective()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestTree2DNonSquare(t *testing.T) {
	o, err := Tree2D(3, 17)
	if err != nil {
		t.Fatal(err)
	}
	if o.Len() != 51 || !o.IsBijective() {
		t.Fatalf("Tree2D(3,17): len=%d bijective=%v", o.Len(), o.IsBijective())
	}
}

func TestPseudoRandomDeterministicAndSeedSensitive(t *testing.T) {
	a, err := PseudoRandom(1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := PseudoRandom(1000, 42)
	if !reflect.DeepEqual(a.Indices(), b.Indices()) {
		t.Error("same seed produced different orders")
	}
	c, _ := PseudoRandom(1000, 43)
	if reflect.DeepEqual(a.Indices(), c.Indices()) {
		t.Error("different seeds produced identical orders")
	}
}

// TestPseudoRandomNotSequential guards against a degenerate generator that
// would reintroduce the memory-order bias the permutation exists to avoid.
func TestPseudoRandomNotSequential(t *testing.T) {
	o, err := PseudoRandom(4096, 7)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < o.Len(); i++ {
		if o.At(i) == i {
			same++
		}
	}
	if same > o.Len()/10 {
		t.Errorf("pseudo-random order has %d/%d fixed points", same, o.Len())
	}
}

// TestPseudoRandomPrefixSpread checks that an early prefix of the
// pseudo-random order is roughly uniform across the index range, the
// property that makes it suitable for unbiased input sampling (Figure 3).
func TestPseudoRandomPrefixSpread(t *testing.T) {
	const n = 1 << 16
	o, err := PseudoRandom(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	const prefix = n / 16
	const buckets = 8
	var counts [buckets]int
	for i := 0; i < prefix; i++ {
		counts[o.At(i)*buckets/n]++
	}
	want := prefix / buckets
	for b, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("bucket %d has %d of %d prefix samples (expected ~%d)", b, c, prefix, want)
		}
	}
}
