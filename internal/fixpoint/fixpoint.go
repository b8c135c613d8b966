// Package fixpoint implements the reduced fixed-point precision substrate of
// the paper (§III-B2, "Reduced Fixed-Point Precision", Figures 6 and 19).
//
// A two's-complement integer is a sum of signed powers of two, so any
// computation distributive over addition (sums, dot products, matrix
// products) can be evaluated bit-serially: processing the operand bit planes
// most-significant-first yields a diffusive anytime computation whose
// partial results equal the computation performed at truncated precision,
// and whose final result is bit-exact. No work is wasted relative to the
// precise computation, since integer multiplication is a sum of partial
// products anyway.
package fixpoint

import "fmt"

// Q describes a two's-complement fixed-point format: Width total bits
// (2..32) of which Frac are fractional.
type Q struct {
	Width uint
	Frac  uint
}

// Q16_8 is a convenient 16-bit format with 8 fractional bits.
var Q16_8 = Q{Width: 16, Frac: 8}

// Q32_16 is a 32-bit format with 16 fractional bits.
var Q32_16 = Q{Width: 32, Frac: 16}

// Validate reports whether the format is well formed.
func (q Q) Validate() error {
	if q.Width < 2 || q.Width > 32 {
		return fmt.Errorf("fixpoint: width %d out of range [2,32]", q.Width)
	}
	if q.Frac >= q.Width {
		return fmt.Errorf("fixpoint: %d fractional bits do not fit in width %d", q.Frac, q.Width)
	}
	return nil
}

// Max returns the largest representable value.
func (q Q) Max() int32 { return int32(1)<<(q.Width-1) - 1 }

// Min returns the smallest representable value.
func (q Q) Min() int32 { return -(int32(1) << (q.Width - 1)) }

// One returns the representation of 1.0.
func (q Q) One() int32 { return int32(1) << q.Frac }

// Saturate clamps v into the representable range.
func (q Q) Saturate(v int64) int32 {
	if v > int64(q.Max()) {
		return q.Max()
	}
	if v < int64(q.Min()) {
		return q.Min()
	}
	return int32(v)
}

// FromFloat converts f to fixed point with round-to-nearest, saturating.
func (q Q) FromFloat(f float64) int32 {
	scaled := f * float64(int64(1)<<q.Frac)
	if scaled >= 0 {
		scaled += 0.5
	} else {
		scaled -= 0.5
	}
	return q.Saturate(int64(scaled))
}

// ToFloat converts a fixed-point value back to floating point.
func (q Q) ToFloat(v int32) float64 {
	return float64(v) / float64(int64(1)<<q.Frac)
}

// Add returns a+b, saturating.
func (q Q) Add(a, b int32) int32 { return q.Saturate(int64(a) + int64(b)) }

// Sub returns a-b, saturating.
func (q Q) Sub(a, b int32) int32 { return q.Saturate(int64(a) - int64(b)) }

// Mul returns the fixed-point product (a*b) >> Frac, saturating.
func (q Q) Mul(a, b int32) int32 {
	return q.Saturate((int64(a) * int64(b)) >> q.Frac)
}

// TruncateLow zeroes the drop least-significant bits of v. For nonnegative
// values this truncates toward zero; for negative two's-complement values it
// truncates toward negative infinity. It models computing with reduced
// integer precision by masking operand bits, as in the paper's Figure 19
// evaluation ("8-bit (default), 6-bit, 4-bit and 2-bit pixel precisions").
func TruncateLow(v int32, drop uint) int32 {
	if drop == 0 {
		return v
	}
	if drop >= 32 {
		return 0
	}
	return int32(uint32(v) &^ (uint32(1)<<drop - 1))
}

// KeepTop zeroes all but the keep most-significant bits of a width-bit
// value: the paper's W & mask construction for anytime reduced-precision
// operands (§III-B2).
func KeepTop(v int32, keep, width uint) int32 {
	if keep >= width {
		return v
	}
	return TruncateLow(v, width-keep)
}

// PlaneValue returns the signed contribution of bit plane `plane` (counted
// from the least-significant bit) of the width-bit two's-complement value v.
// The top plane (plane == width-1) is the sign plane and contributes
// -2^(width-1) when set. Summing PlaneValue over all planes reconstructs v
// exactly, which is the identity the bit-serial computations rely on.
func PlaneValue(v int32, plane, width uint) int32 {
	bit := (uint32(v) >> plane) & 1
	if bit == 0 {
		return 0
	}
	if plane == width-1 {
		return -(int32(1) << plane)
	}
	return int32(1) << plane
}

// errLenMismatch and errBadWidth outline the cold error paths of the
// hotpath dot kernels: fmt stays out of the annotated bodies (hotalloc),
// and the error construction stops counting against their inlining budget.
func errLenMismatch(la, lb int) error {
	return fmt.Errorf("fixpoint: dot length mismatch %d vs %d", la, lb)
}

func errBadWidth(width uint) error {
	return fmt.Errorf("fixpoint: width %d out of range [1,32]", width)
}

// Dot returns the exact integer dot product of a and b with a 64-bit
// accumulator. The slices must have equal length.
func Dot(a, b []int32) (int64, error) {
	if len(a) != len(b) {
		return 0, errLenMismatch(len(a), len(b))
	}
	b = b[:len(a):len(a)] // lengths proven equal: b[i] needs no bounds check below
	var acc int64
	for i := range a {
		acc += int64(a[i]) * int64(b[i])
	}
	return acc, nil
}

// BitSerialDot evaluates dot(a, b) bit-serially over the planes of b,
// most-significant-first, invoking emit after each plane with the number of
// planes processed so far and the running partial sum. After k planes the
// partial equals dot(a, KeepTop(b, k, width)); after all width planes it
// equals the exact dot product. This is the computation of paper Figure 6.
func BitSerialDot(a, b []int32, width uint, emit func(planesDone uint, partial int64)) (int64, error) {
	if len(a) != len(b) {
		return 0, errLenMismatch(len(a), len(b))
	}
	if width < 1 || width > 32 {
		return 0, errBadWidth(width)
	}
	bp := b[:len(a):len(a)] // lengths proven equal: bp[i] needs no bounds check below
	var acc int64
	for k := uint(0); k < width; k++ {
		plane := width - 1 - k
		// The plane's weight ±2^plane is constant across the inner loop, so
		// sum raw bits and apply the weight once at the end: Σ aᵢ·bitᵢ·±2^p
		// = (Σ aᵢ·bitᵢ)·±2^p exactly in two's-complement arithmetic. This
		// replaces PlaneValue's per-element branches with one multiply by 0
		// or 1 that the pipeline absorbs.
		var sum int64
		for i := range a {
			sum += int64(a[i]) * int64((uint32(bp[i])>>plane)&1)
		}
		weighted := sum << plane
		if plane == width-1 {
			weighted = -weighted // sign plane contributes -2^(width-1)
		}
		acc += weighted
		if emit != nil {
			emit(k+1, acc)
		}
	}
	return acc, nil
}
