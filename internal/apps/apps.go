// Package apps is the one table of the paper's five benchmark applications
// (§IV): for each, what its input looks like, how to compute the precise
// reference, and how to build its anytime automaton. cmd/anytime, the figure
// harness and the daemon look an app up here instead of switching on its
// name; a sixth app is one entry here plus its internal/conform adapter
// (TestTableMatchesConformSuite fails until both exist).
package apps

import (
	"anytime/internal/apps/conv2d"
	"anytime/internal/apps/debayer"
	"anytime/internal/apps/dwt53"
	"anytime/internal/apps/histeq"
	"anytime/internal/apps/kmeans"
	"anytime/internal/core"
	"anytime/internal/pix"
)

// Input is the kind of image an app consumes.
type Input int

const (
	Gray   Input = iota // single-channel image
	RGB                 // three-channel image
	Mosaic              // single-channel GRBG Bayer mosaic of an RGB image
)

// Channels is the channel count an input of this kind must have.
func (k Input) Channels() int {
	if k == RGB {
		return 3
	}
	return 1
}

// Synthetic generates the deterministic size×size test input of this kind.
func (k Input) Synthetic(size int, seed uint64) (*pix.Image, error) {
	if k == Gray {
		return pix.SyntheticGray(size, size, seed)
	}
	rgb, err := pix.SyntheticRGB(size, size, seed)
	if err != nil || k == RGB {
		return rgb, err
	}
	return pix.BayerGRBG(rgb)
}

// Options are the two fields every diffusive app Config shares. dwt53 is
// iterative (whole-image passes): publish policies do not apply to it, so
// it reads Workers only.
type Options struct {
	Workers int
	Publish core.PublishPolicy
}

// App is one row of the table.
type App struct {
	Name  string // package and flag name
	Label string // the paper's name for it in figures
	Input Input
	// Precise computes the baseline output the automaton converges to.
	Precise func(in *pix.Image, o Options) (*pix.Image, error)
	// New builds a fresh automaton over in and returns it with its
	// whole-application output buffer.
	New func(in *pix.Image, o Options) (*core.Automaton, *core.Buffer[*pix.Image], error)
}

// Named looks an app up by Name.
func Named(name string) (App, bool) {
	for _, a := range table {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

// table lists the apps in the paper's figure order (Figures 11–15).
var table = []App{
	{
		Name: "conv2d", Label: "2dconv", Input: Gray,
		Precise: func(in *pix.Image, o Options) (*pix.Image, error) {
			return conv2d.Precise(in, conv2d.Config{Workers: o.Workers})
		},
		New: func(in *pix.Image, o Options) (*core.Automaton, *core.Buffer[*pix.Image], error) {
			r, err := conv2d.New(in, conv2d.Config{Workers: o.Workers, Publish: o.Publish})
			if err != nil {
				return nil, nil, err
			}
			return r.Automaton, r.Out, nil
		},
	},
	{
		Name: "histeq", Label: "histeq", Input: Gray,
		Precise: func(in *pix.Image, o Options) (*pix.Image, error) {
			return histeq.Precise(in, histeq.Config{Workers: o.Workers})
		},
		New: func(in *pix.Image, o Options) (*core.Automaton, *core.Buffer[*pix.Image], error) {
			r, err := histeq.New(in, histeq.Config{Workers: o.Workers, Publish: o.Publish})
			if err != nil {
				return nil, nil, err
			}
			return r.Automaton, r.Out, nil
		},
	},
	{
		// The reversible 5/3 baseline reconstructs its input bit-exactly; it
		// is computed, not short-circuited, because its runtime is the
		// normalization baseline.
		Name: "dwt53", Label: "dwt53", Input: Gray,
		Precise: func(in *pix.Image, o Options) (*pix.Image, error) {
			return dwt53.Precise(in, dwt53.Config{Workers: o.Workers})
		},
		New: func(in *pix.Image, o Options) (*core.Automaton, *core.Buffer[*pix.Image], error) {
			r, err := dwt53.New(in, dwt53.Config{Workers: o.Workers})
			if err != nil {
				return nil, nil, err
			}
			return r.Automaton, r.Out, nil
		},
	},
	{
		Name: "debayer", Label: "debayer", Input: Mosaic,
		Precise: func(in *pix.Image, o Options) (*pix.Image, error) {
			return debayer.Precise(in, debayer.Config{Workers: o.Workers})
		},
		New: func(in *pix.Image, o Options) (*core.Automaton, *core.Buffer[*pix.Image], error) {
			r, err := debayer.New(in, debayer.Config{Workers: o.Workers, Publish: o.Publish})
			if err != nil {
				return nil, nil, err
			}
			return r.Automaton, r.Out, nil
		},
	},
	{
		Name: "kmeans", Label: "kmeans", Input: RGB,
		Precise: func(in *pix.Image, o Options) (*pix.Image, error) {
			return kmeans.Precise(in, kmeans.Config{Workers: o.Workers})
		},
		New: func(in *pix.Image, o Options) (*core.Automaton, *core.Buffer[*pix.Image], error) {
			r, err := kmeans.New(in, kmeans.Config{Workers: o.Workers, Publish: o.Publish})
			if err != nil {
				return nil, nil, err
			}
			return r.Automaton, r.Out, nil
		},
	},
}
