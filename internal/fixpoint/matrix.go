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
