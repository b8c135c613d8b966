package fixpoint

import (
	"testing"
	"testing/quick"
)

func TestTruncateLow(t *testing.T) {
	if TruncateLow(0xFF, 4) != 0xF0 {
		t.Error("positive truncate wrong")
	}
	if TruncateLow(-1, 4) != -16 {
		t.Errorf("negative truncate = %d, want -16", TruncateLow(-1, 4))
	}
	if TruncateLow(123, 0) != 123 {
		t.Error("drop=0 changed value")
	}
	if TruncateLow(123, 32) != 0 || TruncateLow(123, 64) != 0 {
		t.Error("drop>=32 not zero")
	}
}

// TestPlaneDecompositionIdentity: summing all signed plane values must
// reconstruct the value exactly, for every width and value. This is the
// identity that makes bit-serial computation diffusive.
func TestPlaneDecompositionIdentity(t *testing.T) {
	f := func(raw int32, rawWidth uint8) bool {
		width := uint(rawWidth)%31 + 2
		// Reduce raw into width bits (sign-extended).
		v := raw << (32 - width) >> (32 - width)
		var sum int64
		for p := uint(0); p < width; p++ {
			sum += int64(PlaneValue(v, p, width))
		}
		return sum == int64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPlanePrefixEqualsMaskedValue: the cumulative sum of the top k planes
// equals v with its low width-k bits truncated — the property that lets an asynchronous
// consumer of a diffusive bit-serial producer see exactly the reduced-
// precision operand of an iterative producer.
func TestPlanePrefixEqualsMaskedValue(t *testing.T) {
	f := func(raw int32, rawWidth uint8) bool {
		width := uint(rawWidth)%31 + 2
		v := raw << (32 - width) >> (32 - width)
		var sum int64
		for k := uint(1); k <= width; k++ {
			sum += int64(PlaneValue(v, width-k, width))
			if sum != int64(TruncateLow(v, width-k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
