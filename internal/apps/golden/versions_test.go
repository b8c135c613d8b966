package golden

import (
	"bufio"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"anytime/internal/apps/conv2d"
	"anytime/internal/apps/histeq"
	"anytime/internal/apps/kmeans"
	"anytime/internal/core"
	"anytime/internal/pix"
)

var update = flag.Bool("update", false, "rewrite testdata/versions.golden from this run")

const versionsGolden = "testdata/versions.golden"

// versionCase builds one automaton whose published versions are pinned.
// finalOnly pins just the final version's samples: how many versions histeq
// publishes, and what they show, depends on which LUTs the apply stage
// happens to consume.
type versionCase struct {
	name      string
	finalOnly bool
	build     func(workers int) (*core.Automaton, *core.Buffer[*pix.Image], error)
}

func versionCases(t *testing.T) []versionCase {
	gray, err := pix.SyntheticGray(128, 128, 5)
	if err != nil {
		t.Fatal(err)
	}
	rgb, err := pix.SyntheticRGB(64, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	conv := func(granularity int) func(int) (*core.Automaton, *core.Buffer[*pix.Image], error) {
		return func(w int) (*core.Automaton, *core.Buffer[*pix.Image], error) {
			r, err := conv2d.New(gray, conv2d.Config{Workers: w, Granularity: granularity})
			if err != nil {
				return nil, nil, err
			}
			return r.Automaton, r.Out, nil
		}
	}
	return []versionCase{
		{name: "conv2d", build: conv(0)},
		{name: "conv2d/g128", build: conv(128)},
		{name: "kmeans", build: func(w int) (*core.Automaton, *core.Buffer[*pix.Image], error) {
			r, err := kmeans.New(rgb, kmeans.Config{Workers: w})
			if err != nil {
				return nil, nil, err
			}
			return r.Automaton, r.Out, nil
		}},
		{name: "histeq", finalOnly: true, build: func(w int) (*core.Automaton, *core.Buffer[*pix.Image], error) {
			r, err := histeq.New(gray, histeq.Config{Workers: w})
			if err != nil {
				return nil, nil, err
			}
			return r.Automaton, r.Out, nil
		}},
	}
}

// digester records, in publish order, every version out publishes (only
// only the final one's samples when finalOnly): their count and an FNV-1a
// hash over each one's number, final flag and samples.
type digester struct {
	n int
	h hash.Hash64
}

func newDigester(out *core.Buffer[*pix.Image], finalOnly bool) *digester {
	d := &digester{}
	out.OnPublish(func(s core.Snapshot[*pix.Image]) {
		if finalOnly && !s.Final {
			return
		}
		d.n++
		if !finalOnly {
			binary.Write(d.h, binary.LittleEndian, uint64(s.Version))
			binary.Write(d.h, binary.LittleEndian, s.Final)
		}
		binary.Write(d.h, binary.LittleEndian, s.Value.Pix)
	})
	return d
}

// run runs a to completion and returns the digest of what it published.
func (d *digester) run(t *testing.T, a *core.Automaton) string {
	t.Helper()
	d.n, d.h = 0, fnv.New64a()
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d %016x", d.n, d.h.Sum64())
}

// TestVersionHashes pins every version conv2d (at its default granularity
// and at 128 pixels per round) and kmeans publish on power-of-two inputs,
// and histeq's final, for W ∈ {1, 2, 3}, cold and again after Reset. Work
// that only changes how a round is computed — its visit order, its split
// across workers, how the display is brought up to date — must leave the
// file as it is. Regenerate with -update only for a deliberate change of
// what a version shows.
func TestVersionHashes(t *testing.T) {
	got := map[string]string{}
	var names []string
	for _, vc := range versionCases(t) {
		for w := 1; w <= 3; w++ {
			name := fmt.Sprintf("%s/w%d", vc.name, w)
			a, out, err := vc.build(w)
			if err != nil {
				t.Fatal(err)
			}
			d := newDigester(out, vc.finalOnly)
			cold := d.run(t, a)
			if err := a.Reset(); err != nil {
				t.Fatal(err)
			}
			if again := d.run(t, a); again != cold {
				t.Errorf("%s: after Reset %s, cold %s", name, again, cold)
			}
			got[name] = cold
			names = append(names, name)
		}
	}
	if *update {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(versionsGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(versionsGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		name, digest, _ := strings.Cut(sc.Text(), " ")
		want[name] = digest
	}
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: versions %s, golden %s", name, got[name], want[name])
		}
	}
}
