package fixpoint

import "testing"

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix(-1, 2); err == nil {
		t.Error("negative rows accepted")
	}
	m, err := NewMatrix(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Data) != 0 {
		t.Error("empty matrix has data")
	}
}

func TestMatrixCloneEqual(t *testing.T) {
	m, _ := NewMatrix(2, 3)
	m.Data[1*m.Cols+2] = 42
	c := m.Clone()
	if c.Data[1*c.Cols+2] != 42 {
		t.Error("Clone lost an element")
	}
	c.Data[0] = 7
	if m.Data[0] != 0 {
		t.Error("Clone shares storage")
	}
	if m.Equal(c) {
		t.Error("different matrices equal")
	}
	if !m.Equal(m.Clone()) {
		t.Error("clone not equal")
	}
	other, _ := NewMatrix(3, 2)
	if m.Equal(other) || m.Equal(nil) {
		t.Error("shape mismatch equal")
	}
}

func TestMatAdd(t *testing.T) {
	a, _ := NewMatrix(2, 2)
	copy(a.Data, []int32{1, 2, 3, 4})
	b, _ := NewMatrix(2, 2)
	copy(b.Data, []int32{10, 20, 30, 40})
	if err := MatAdd(a, b); err != nil {
		t.Fatal(err)
	}
	if a.Data[3] != 44 {
		t.Errorf("MatAdd wrong: %v", a.Data)
	}
	c, _ := NewMatrix(1, 2)
	if err := MatAdd(a, c); err == nil {
		t.Error("shape mismatch accepted")
	}
}
