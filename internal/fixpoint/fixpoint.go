// Package fixpoint holds the reduced fixed-point precision primitives the
// evaluation runs (paper §III-B2, "Reduced Fixed-Point Precision"):
// TruncateLow masks conv2d's input pixel precision (Figure 19), and
// PlaneValue with Matrix is the bit-serial sensor of the Figure 10 pipeline.
//
// A two's-complement integer is a sum of signed powers of two, so any
// computation distributive over addition (sums, dot products, matrix
// products) can be evaluated bit-serially: processing the operand bit planes
// most-significant-first yields a diffusive anytime computation whose
// partial results equal the computation performed at truncated precision,
// and whose final result is bit-exact.
package fixpoint

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
