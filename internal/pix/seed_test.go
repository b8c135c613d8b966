package pix

import "testing"

func TestDirtyTilesDilate(t *testing.T) {
	g := NewTileGrid(128, 128, 1) // 4x4 tiles
	d := NewDirtyTiles(g)
	d.Mark(5) // tile (1,1)
	d.Dilate()
	if d.Count() != 9 {
		t.Fatalf("dilated interior tile count = %d, want 9", d.Count())
	}
	for _, tile := range []int{0, 1, 2, 4, 5, 6, 8, 9, 10} {
		if !d.Has(tile) {
			t.Errorf("tile %d missing from dilation", tile)
		}
	}
	// Corner tiles clip at the grid edge.
	d = NewDirtyTiles(g)
	d.Mark(0)
	d.Dilate()
	if d.Count() != 4 {
		t.Fatalf("dilated corner count = %d, want 4", d.Count())
	}
	// MarkAll stays all.
	d.MarkAll()
	d.Dilate()
	if d.Count() != g.Tiles() {
		t.Fatalf("dilate after MarkAll = %d tiles", d.Count())
	}
}

func TestTileDiff(t *testing.T) {
	a := MustNew(64, 64, 1)
	b := a.Clone()
	d, err := TileDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Any() {
		t.Fatal("identical images produced a non-empty diff")
	}
	b.SetGray(40, 10, 1) // tile (1,0) of the 2x2 grid
	d, err = TileDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count() != 1 || !d.Has(1) {
		t.Fatalf("diff = %d tiles (has(1)=%v), want exactly tile 1", d.Count(), d.Has(1))
	}
	// Geometry mismatch is an error.
	c := MustNew(32, 64, 1)
	if _, err := TileDiff(a, c); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	if _, err := TileDiff(nil, a); err == nil {
		t.Fatal("nil image accepted")
	}
}

func TestAsSeedFrame(t *testing.T) {
	img := MustNew(64, 64, 1)
	got, stale, err := AsSeedFrame(img, 64, 64, 1)
	if err != nil || got != img || stale != nil {
		t.Fatalf("bare image: %v %v %v", got, stale, err)
	}
	d := NewDirtyTiles(NewTileGrid(64, 64, 1))
	got, stale2, err := AsSeedFrame(&SeedFrame{Image: img, Stale: d}, 64, 64, 1)
	if err != nil || got != img || stale2 != d {
		t.Fatalf("seed frame: %v %v %v", got, stale2, err)
	}
	if _, _, err := AsSeedFrame(img, 32, 32, 1); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	if _, _, err := AsSeedFrame("nope", 64, 64, 1); err == nil {
		t.Fatal("wrong payload type accepted")
	}
	if _, _, err := AsSeedFrame((*SeedFrame)(nil), 64, 64, 1); err == nil {
		t.Fatal("nil seed frame accepted")
	}
	if _, _, err := AsSeedFrame(&SeedFrame{}, 64, 64, 1); err == nil {
		t.Fatal("seed frame without image accepted")
	}
	wrong := NewDirtyTiles(NewTileGrid(64, 64, 3))
	if _, _, err := AsSeedFrame(&SeedFrame{Image: img, Stale: wrong}, 64, 64, 1); err == nil {
		t.Fatal("stale tiles of another grid accepted")
	}
}
