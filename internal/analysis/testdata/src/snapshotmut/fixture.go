package snapshotmut

// mutateDirect writes straight through the snapshot's Value pointer — the
// exact bug the conformance self-test plants dynamically.
func mutateDirect(buf *Buffer[*Image]) {
	snap, ok := buf.Latest()
	if !ok {
		return
	}
	snap.Value.Pix[0] = 1 // want `write into memory aliased by snapshot "snap"`
}

// mutateViaAlias shows taint following a rebound alias of the Value.
func mutateViaAlias(buf *Buffer[*Image]) {
	snap, _ := buf.Latest()
	img := snap.Value
	img.Pix[2] = 3 // want `write into memory aliased by snapshot "img"`
}

// mutateViaCopy writes through the builtin copy.
func mutateViaCopy(buf *Buffer[*Image], scratch []byte) {
	snap, _ := buf.Peek()
	copy(snap.Value.Pix, scratch) // want `copy writes into memory aliased by snapshot "snap"`
}

// mutateIncDec increments in place.
func mutateIncDec(buf *Buffer[*Image]) {
	snap, _ := buf.Latest()
	snap.Value.Pix[0]++ // want `write into memory aliased by snapshot "snap"`
}

// onPublish is an observer callback: its parameter aliases the published
// snapshot the same way an accessor result does.
func onPublish(s Snapshot[*Image]) {
	s.Value.Pix[0] = 9 // want `write into memory aliased by snapshot "s"`
}

type recorder struct {
	keep  *Image
	count uint64
}

// record retains the aliased Value past the publish window without a clone
// (a recorder keeping every frame of a producer that reuses them); counting
// the scalar Version is fine.
func (r *recorder) record(buf *Buffer[*Image]) {
	snap, _ := buf.Latest()
	r.keep = snap.Value // want `retained beyond the publish window`
	r.count = snap.Version
}

var lastFrame *Image

// stash retains into package-level state, which outlives everything.
func stash(buf *Buffer[*Image]) {
	snap, _ := buf.Latest()
	lastFrame = snap.Value // want `retained beyond the publish window`
}

// cloneThenMutate launders through Clone before writing and must pass.
func cloneThenMutate(buf *Buffer[*Image]) {
	snap, _ := buf.Latest()
	img := snap.Value.Clone()
	img.Pix[0] = 1
}

// cloneThenRetain launders before retaining and must pass.
func (r *recorder) cloneThenRetain(buf *Buffer[*Image]) {
	snap, _ := buf.Latest()
	r.keep = snap.Value.Clone()
}

// readOnly only reads the aliased memory and must pass.
func readOnly(buf *Buffer[*Image]) int {
	snap, _ := buf.Latest()
	n := 0
	for _, p := range snap.Value.Pix {
		n += int(p)
	}
	return n
}

// rebindThenClone: rebinding a tainted variable is not a write; a cloned
// copy under a fresh name is freely mutable.
func rebindThenClone(buf *Buffer[*Image]) {
	snap, _ := buf.Latest()
	img := snap.Value
	img2 := img.Clone()
	img2.Pix[0] = 1
}

// localStructField mutates the local Snapshot struct copy, not shared
// memory, and must pass.
func localStructField(buf *Buffer[*Image]) uint64 {
	snap, _ := buf.Latest()
	snap.Version = 0
	return snap.Version
}
