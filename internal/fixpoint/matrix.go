package fixpoint

import "fmt"

// Matrix is a dense row-major integer (or fixed-point) matrix. It is the
// workload of the paper's summary example (Figure 10): a sensor stage f
// produces a fixed-point matrix F and a dependent stage g computes the
// product F · C.
type Matrix struct {
	Rows, Cols int
	Data       []int32
}

// NewMatrix returns a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) (*Matrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("fixpoint: invalid matrix shape %dx%d", rows, cols)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]int32, rows*cols)}, nil
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) int32 { return m.Data[r*m.Cols+c] }

// Set stores v at element (r, c).
func (m *Matrix) Set(r, c int, v int32) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{Rows: m.Rows, Cols: m.Cols, Data: make([]int32, len(m.Data))}
	copy(out.Data, m.Data)
	return out
}

// Equal reports shape and element equality.
func (m *Matrix) Equal(o *Matrix) bool {
	if o == nil || m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if o.Data[i] != v {
			return false
		}
	}
	return true
}

// MaskTop returns a copy of m with every element reduced to its keep
// most-significant bits (of width total): the matrix analogue of the
// paper's half-precision [AA] versus full-precision [AA.BB] operands.
func (m *Matrix) MaskTop(keep, width uint) *Matrix {
	out := m.Clone()
	for i, v := range out.Data {
		out.Data[i] = KeepTop(v, keep, width)
	}
	return out
}

// PlaneSlice returns the matrix of signed plane contributions for bit plane
// `plane` of width-bit elements: the update X_i that a diffusive stage adds
// when it refines the matrix by one bit of precision.
func (m *Matrix) PlaneSlice(plane, width uint) *Matrix {
	out := m.Clone()
	for i, v := range out.Data {
		out.Data[i] = PlaneValue(v, plane, width)
	}
	return out
}

// MatMul returns the integer matrix product a·b. Elements accumulate in
// int32 with wraparound on overflow (shift 0; callers using fractional
// formats rescale themselves and are responsible for keeping magnitudes
// in range).
func MatMul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("fixpoint: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out, err := NewMatrix(a.Rows, b.Cols)
	if err != nil {
		return nil, err
	}
	MatMulInto(out, a, b)
	return out, nil
}

// MatMulInto computes a·b into dst, which must have shape a.Rows x b.Cols.
func MatMulInto(dst, a, b *Matrix) {
	for r := 0; r < a.Rows; r++ {
		arow := a.Data[r*a.Cols : (r+1)*a.Cols]
		drow := dst.Data[r*b.Cols : (r+1)*b.Cols]
		for c := range drow {
			drow[c] = 0
		}
		for k, av := range arow {
			if av == 0 {
				continue
			}
			// Both rows are b.Cols long; the reslice proves it to the
			// compiler so the inner loop indexes both without bounds checks.
			brow := b.Data[k*b.Cols : (k+1)*b.Cols][:len(drow):len(drow)]
			a64 := int64(av)
			for c := range drow {
				drow[c] = int32(int64(drow[c]) + a64*int64(brow[c]))
			}
		}
	}
}

// MatAdd accumulates src into dst elementwise; shapes must match.
func MatAdd(dst, src *Matrix) error {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		return fmt.Errorf("fixpoint: matadd shape mismatch %dx%d += %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols)
	}
	for i, v := range src.Data {
		dst.Data[i] += v
	}
	return nil
}
