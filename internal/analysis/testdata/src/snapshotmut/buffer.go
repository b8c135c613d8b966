// Package snapshotmut exercises the snapshotmut analyzer. Image stands in
// for pix.Image: a published value whose Pix slice aliases memory the
// writer may reuse.
package snapshotmut

// Image is a reference-carrying published value.
type Image struct {
	Pix []byte
	W   int
}

// Clone deep-copies, laundering the aliasing.
func (im *Image) Clone() *Image {
	return &Image{Pix: append([]byte(nil), im.Pix...), W: im.W}
}

// Snapshot mirrors core.Snapshot.
type Snapshot[T any] struct {
	Value   T
	Version uint64
	Final   bool
}

// Buffer mirrors core.Buffer's reader surface.
type Buffer[T any] struct {
	cur Snapshot[T]
}

func (b *Buffer[T]) Latest() (Snapshot[T], bool) {
	return b.cur, b.cur.Version > 0
}

func (b *Buffer[T]) Peek() (Snapshot[T], bool) {
	return b.cur, b.cur.Version > 0
}
