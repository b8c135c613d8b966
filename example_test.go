package anytime_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"slices"
	"strings"
	"time"

	"anytime"
)

// ExampleDiffusive builds the smallest complete automaton: a diffusive
// stage that sums 0..999 with exact-once updates and four published
// approximations.
func ExampleDiffusive() {
	var acc int64
	out := anytime.NewBuffer[int64]("sum", nil)
	a := anytime.New()
	if err := a.AddStage("sum", func(c *anytime.Context) error {
		return anytime.Diffusive(c, out, 1000,
			func(pos int) error { acc += int64(pos); return nil },
			func(processed int) (int64, error) {
				// Weight the partial sum up to the population.
				return anytime.ScaleCount(acc, processed, 1000), nil
			},
			anytime.RoundConfig{Granularity: 250})
	}); err != nil {
		log.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		log.Fatal(err)
	}
	snap, _ := out.Latest()
	fmt.Println(snap.Value, snap.Final)
	// Output: 499500 true
}

// ExampleTree2D shows the progressive-resolution visit order of the paper's
// Figure 5 on a 4x4 grid.
func ExampleTree2D() {
	ord, err := anytime.Tree2D(4, 4)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		idx := ord.At(i)
		fmt.Printf("(%d,%d) ", idx/4, idx%4)
	}
	fmt.Println()
	// Output: (0,0) (0,2) (2,0) (2,2)
}

// ExampleIterative runs a computation at two accuracy levels; the second
// pass is the precise function.
func ExampleIterative() {
	out := anytime.NewBuffer[string]("answer", nil)
	a := anytime.New()
	if err := a.AddStage("answer", func(c *anytime.Context) error {
		return anytime.Iterative(c, out, []func() (string, error){
			func() (string, error) { return "roughly 42", nil },
			func() (string, error) { return "exactly 42", nil },
		})
	}); err != nil {
		log.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		log.Fatal(err)
	}
	snap, _ := out.Latest()
	fmt.Println(snap.Value, snap.Version, snap.Final)
	// Output: exactly 42 2 true
}

// ExampleAsyncConsume wires a two-stage asynchronous pipeline: the child
// recomputes on whichever parent snapshot is current and finishes on the
// final one.
func ExampleAsyncConsume() {
	parent := anytime.NewBuffer[int]("f", nil)
	child := anytime.NewBuffer[int]("g", nil)
	a := anytime.New()
	if err := a.AddStage("f", func(c *anytime.Context) error {
		return anytime.Iterative(c, parent, []func() (int, error){
			func() (int, error) { return 40, nil },
			func() (int, error) { return 42, nil },
		})
	}); err != nil {
		log.Fatal(err)
	}
	if err := a.AddStage("g", func(c *anytime.Context) error {
		return anytime.AsyncConsume(c, parent, func(s anytime.Snapshot[int]) error {
			_, err := child.Publish(s.Value*2, s.Final)
			return err
		})
	}); err != nil {
		log.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		log.Fatal(err)
	}
	snap, _ := child.Latest()
	fmt.Println(snap.Value, snap.Final)
	// Output: 84 true
}

// ExampleStopWhen stops an automaton automatically once the output crosses
// an acceptability bar.
func ExampleStopWhen() {
	out := anytime.NewBuffer[int]("count", nil)
	a := anytime.New()
	if err := a.AddStage("count", func(c *anytime.Context) error {
		for i := 1; i <= 1000; i++ {
			if err := c.Checkpoint(); err != nil {
				return err
			}
			if _, err := out.Publish(i, i == 1000); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	snap, err := anytime.StopWhen(context.Background(), a, out, func(s anytime.Snapshot[int]) bool {
		return s.Value >= 10
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(snap.Value >= 10)
	// Output: true
}

// Example_quickstart is the smallest useful automaton: the sum of a data
// set as a diffusive stage that consumes elements in pseudo-random order.
// Every snapshot is a population-weighted estimate of the sum (§III-B2,
// input sampling on a non-idempotent reduction), and the last is exact.
func Example_quickstart() {
	const n = 1 << 16
	values := make([]int64, n)
	var exact int64
	for i := range values {
		values[i] = int64((i*i)%1000 - 350)
		exact += values[i]
	}
	// A bijective pseudo-random visit order: unbiased sampling, and every
	// element is still consumed exactly once.
	ord, err := anytime.PseudoRandom(n, 42)
	if err != nil {
		log.Fatal(err)
	}
	// Worker-private accumulators, merged and weighted at each snapshot.
	sum := anytime.Reduce[int64]{
		NewAcc:  func() int64 { return 0 },
		Consume: func(acc int64, idx int) int64 { return acc + values[idx] },
		Merge:   func(dst, src int64) int64 { return dst + src },
		Snapshot: func(merged int64, processed, total int) (int64, error) {
			// Addition is not idempotent, so estimates are scaled by
			// population/sample size (the paper's O'_i = O_i × n/i).
			return anytime.ScaleCount(merged, processed, total), nil
		},
	}
	out := anytime.NewBuffer[int64]("sum", nil)
	var first int64
	out.OnPublish(func(s anytime.Snapshot[int64]) {
		if s.Version == 1 {
			first = s.Value
		}
	})
	a := anytime.New()
	if err := a.AddStage("sum", func(c *anytime.Context) error {
		return anytime.RunReduce(c, sum, out, ord, anytime.RoundConfig{Granularity: n / 16, Workers: 4})
	}); err != nil {
		log.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	// We could Stop whenever the estimate looks good enough; letting it
	// run guarantees the exact result.
	if err := a.Wait(); err != nil {
		log.Fatal(err)
	}
	final, _ := out.Latest()
	fmt.Println("exact sum:", exact)
	fmt.Println("final snapshot:", final.Value, final.Final)
	fmt.Println("first estimate within 5%:", math.Abs(float64(first-exact)) < 0.05*math.Abs(float64(exact)))
	// Output:
	// exact sum: 7301560
	// final snapshot: 7301560 true
	// first estimate within 5%: true
}

// Example_dotproduct is the paper's Figure 6: an anytime reduced-precision
// fixed-point dot product, computed bit-serially. The planes of W are
// processed most-significant first in a sequential order, so after k
// planes the running result is the k-bit-precision dot product, and after
// all of them it is exact — with no more arithmetic than the precise one.
func Example_dotproduct() {
	const n, width = 1 << 12, 16
	in := make([]int64, n) // I operand, full precision
	wt := make([]int32, n) // W operand, sampled bit-serially
	var exact int64
	for j := range n {
		in[j] = int64(int16(uint16(j*31 + 7)))
		wt[j] = int32(int16(uint16(j*j*17 + 3)))
		exact += in[j] * int64(wt[j])
	}
	// planeValue is the signed contribution of one bit plane of a
	// two's-complement value (the sign plane contributes negatively).
	planeValue := func(v int32, plane int) int64 {
		if (uint32(v)>>plane)&1 == 0 {
			return 0
		}
		if plane == width-1 {
			return -(1 << plane)
		}
		return 1 << plane
	}
	ord, err := anytime.Sequential(width)
	if err != nil {
		log.Fatal(err)
	}
	var acc int64
	out := anytime.NewBuffer[int64]("dot", nil)
	var versions []anytime.Snapshot[int64]
	out.OnPublish(func(s anytime.Snapshot[int64]) { versions = append(versions, s) })
	a := anytime.New()
	if err := a.AddStage("dot", func(c *anytime.Context) error {
		return anytime.Diffusive(c, out, ord.Len(),
			func(pos int) error {
				plane := width - 1 - ord.At(pos) // MSB first
				for j := range n {
					acc += in[j] * planeValue(wt[j], plane)
				}
				return nil
			},
			func(processed int) (int64, error) { return acc, nil },
			anytime.RoundConfig{Granularity: 1}) // publish after every plane
	}); err != nil {
		log.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		log.Fatal(err)
	}
	for _, s := range versions {
		if s.Version%4 == 0 {
			fmt.Printf("%d-bit precision: %d (final=%v)\n", s.Version, s.Value, s.Final)
		}
	}
	fmt.Println("exact:", exact)
	// Output:
	// 4-bit precision: -41820274688 (final=false)
	// 8-bit precision: -41515630592 (final=false)
	// 12-bit precision: -41486491648 (final=false)
	// 16-bit precision: -41485381632 (final=true)
	// exact: -41485381632
}

// Example_histogram is the paper's Figure 3: an anytime histogram built by
// sampling the pixels of an image in LFSR order. Each version is a
// population-weighted estimate of the precise histogram, drawn as bars.
func Example_histogram() {
	const side, bins = 64, 8
	img, err := anytime.SyntheticGray(side, side, 9)
	if err != nil {
		log.Fatal(err)
	}
	n := side * side
	ord, err := anytime.PseudoRandom(n, 3)
	if err != nil {
		log.Fatal(err)
	}
	type hist [bins]int64
	reduce := anytime.Reduce[*hist]{
		NewAcc: func() *hist { return &hist{} },
		Consume: func(acc *hist, idx int) *hist {
			acc[int(img.Pix[idx])*bins/256]++
			return acc
		},
		Merge: func(dst, src *hist) *hist {
			for b := range dst {
				dst[b] += src[b]
			}
			return dst
		},
		Snapshot: func(merged *hist, processed, total int) (*hist, error) {
			// Weight the sampled counts up to the full population so
			// every snapshot estimates the final histogram.
			for b := range merged {
				merged[b] = anytime.ScaleCount(merged[b], processed, total)
			}
			return merged, nil
		},
	}
	out := anytime.NewBuffer[*hist]("hist", nil)
	out.OnPublish(func(s anytime.Snapshot[*hist]) {
		if s.Version != 1 && !s.Final {
			return
		}
		peak := slices.Max(s.Value[:])
		fmt.Printf("version %d (final=%v):\n", s.Version, s.Final)
		for b, c := range s.Value {
			fmt.Printf("  [%3d-%3d] %-32s %d\n", b*256/bins, (b+1)*256/bins-1, strings.Repeat("#", int(c*32/peak)), c)
		}
	})
	a := anytime.New()
	if err := a.AddStage("hist", func(c *anytime.Context) error {
		return anytime.RunReduce(c, reduce, out, ord, anytime.RoundConfig{Granularity: n / 4, Workers: 2})
	}); err != nil {
		log.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// version 1 (final=false):
	//   [  0- 31] ################################ 1628
	//   [ 32- 63] ######################           1160
	//   [ 64- 95] ########                         448
	//   [ 96-127] ######                           312
	//   [128-159] #########                        504
	//   [160-191]                                  44
	//   [192-223]                                  0
	//   [224-255]                                  0
	// version 4 (final=true):
	//   [  0- 31] ################################ 1557
	//   [ 32- 63] ########################         1185
	//   [ 64- 95] #########                        454
	//   [ 96-127] ######                           297
	//   [128-159] ###########                      547
	//   [160-191] #                                50
	//   [192-223]                                  6
	//   [224-255]                                  0
}

// Example_blurpipeline is a two-stage asynchronous image pipeline, the
// shape of the paper's 2dconv benchmark plus a dependent stage. Stage 1
// blurs an image in 2D tree order, so every snapshot is a complete
// low-resolution image; stage 2, itself anytime, thresholds whichever
// blurred snapshot is current. Which blurred versions stage 2 sees depends
// on timing; its final output does not.
func Example_blurpipeline() {
	const side = 64
	n := side * side
	in, err := anytime.SyntheticGray(side, side, 11)
	if err != nil {
		log.Fatal(err)
	}
	ord, err := anytime.Tree2D(side, side)
	if err != nil {
		log.Fatal(err)
	}
	// boxBlur is the 5×5 clamped box mean at pixel p.
	boxBlur := func(p int) int32 {
		var sum int32
		for dy := -2; dy <= 2; dy++ {
			for dx := -2; dx <= 2; dx++ {
				sum += in.Gray(min(max(p%side+dx, 0), side-1), min(max(p/side+dy, 0), side-1))
			}
		}
		return (sum + 12) / 25
	}
	threshold := func(v int32) int32 {
		if v > 128 {
			return 255
		}
		return 0
	}

	blurWork, err := anytime.NewGrayImage(side, side)
	if err != nil {
		log.Fatal(err)
	}
	blurFilled := make([]bool, n)
	blurred := anytime.NewBuffer[*anytime.Image]("blurred", nil)
	threshWork, err := anytime.NewGrayImage(side, side)
	if err != nil {
		log.Fatal(err)
	}
	thresholded := anytime.NewBuffer[*anytime.Image]("thresholded", nil)

	a := anytime.New()
	if err := a.AddStage("blur", func(c *anytime.Context) error {
		return anytime.MapSample(c, blurred, ord,
			func(dst int) error {
				blurWork.Pix[dst] = boxBlur(dst)
				blurFilled[dst] = true
				return nil
			},
			func(processed int) (*anytime.Image, error) { return anytime.HoldFill(blurWork, blurFilled) },
			anytime.RoundConfig{Granularity: n / 8, Workers: 2})
	}); err != nil {
		log.Fatal(err)
	}
	if err := a.AddStage("threshold", func(c *anytime.Context) error {
		return anytime.AsyncConsume(c, blurred, func(s anytime.Snapshot[*anytime.Image]) error {
			// One diffusive pass per consumed snapshot, final only on the
			// parent's final version.
			return anytime.DiffusivePass(c, thresholded, n,
				func(worker, pos int) error {
					dst := ord.At(pos)
					threshWork.Pix[dst] = threshold(s.Value.Pix[dst])
					return nil
				},
				func(processed int) (*anytime.Image, error) { return threshWork.CloneInto(nil), nil },
				anytime.RoundConfig{Granularity: n / 4, Workers: 2},
				s.Final)
		})
	}); err != nil {
		log.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		log.Fatal(err)
	}
	final, _ := thresholded.Latest()
	exact, white := true, 0
	for p, v := range final.Value.Pix {
		exact = exact && v == threshold(boxBlur(p))
		if v == 255 {
			white++
		}
	}
	fmt.Println("final:", final.Final)
	fmt.Println("equals the precise pipeline:", exact)
	fmt.Println("white pixels:", white)
	// Output:
	// final: true
	// equals the precise pipeline: true
	// white pixels: 443
}

// Example_contract runs one multi-resolution estimator of pi both ways of
// the anytime taxonomy (§II-B): as a contract algorithm, handed its time
// budget up front, which picks the most accurate pass whose estimated cost
// fits; and as an interruptible automaton, stopped when the budget runs
// out. Which pass fits, and how far the automaton gets, depend on the
// machine; that both land close to pi does not.
func Example_contract() {
	const budget = 30 * time.Millisecond
	// estimatePi counts lattice points inside the quarter circle at the
	// given grid resolution; its cost grows quadratically.
	estimatePi := func(resolution int) float64 {
		inside := 0
		r2 := float64(resolution) * float64(resolution)
		for y := range resolution {
			for x := range resolution {
				fx, fy := float64(x)+0.5, float64(y)+0.5
				if fx*fx+fy*fy <= r2 {
					inside++
				}
			}
		}
		return 4 * float64(inside) / r2
	}
	resolutions := []int{64, 256, 1024, 4096}
	// Calibrate cost estimates from the coarsest level (cost ~ r²).
	start := time.Now()
	estimatePi(resolutions[0])
	unit := max(time.Since(start), time.Microsecond)

	passes := make([]anytime.ContractPass[float64], len(resolutions))
	for i, r := range resolutions {
		passes[i] = anytime.ContractPass[float64]{
			Name:    fmt.Sprintf("grid %dx%d", r, r),
			EstCost: unit * time.Duration(r*r/(resolutions[0]*resolutions[0])),
			Run:     func() (float64, error) { return estimatePi(r), nil },
		}
	}
	contractOut := anytime.NewBuffer[float64]("contract", nil)
	a := anytime.New()
	if err := a.AddStage("pi", func(c *anytime.Context) error {
		_, err := anytime.RunContract(c, contractOut, passes, budget)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		log.Fatal(err)
	}
	snap, _ := contractOut.Latest()
	fmt.Println("contract estimate within 0.05 of pi:", math.Abs(snap.Value-math.Pi) < 0.05)

	// Interruptible: a diffusive row-sampled estimator at the finest
	// resolution, stopped at the deadline. Rows are sampled in tree
	// (bit-reverse) order: sequential order would bias the estimate toward
	// the top of the circle, the memory-order bias §III-B2 warns about.
	const res = 4096
	ord, err := anytime.Tree1D(res)
	if err != nil {
		log.Fatal(err)
	}
	intOut := anytime.NewBuffer[float64]("interruptible", nil)
	b := anytime.New()
	if err := b.AddStage("pi", func(c *anytime.Context) error {
		inside := 0
		r2 := float64(res) * float64(res)
		return anytime.Diffusive(c, intOut, res,
			func(pos int) error {
				fy := float64(ord.At(pos)) + 0.5
				for x := range res {
					if fx := float64(x) + 0.5; fx*fx+fy*fy <= r2 {
						inside++
					}
				}
				return nil
			},
			func(processed int) (float64, error) {
				return 4 * float64(inside) / (float64(processed) * res), nil
			},
			anytime.RoundConfig{Granularity: res / 64})
	}); err != nil {
		log.Fatal(err)
	}
	isnap, err := anytime.StopAfter(context.Background(), b, intOut, budget)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("interruptible estimate within 0.05 of pi:", math.Abs(isnap.Value-math.Pi) < 0.05)
	// Output:
	// contract estimate within 0.05 of pi: true
	// interruptible estimate within 0.05 of pi: true
}

// Example_interactive plays "hold-the-power-button computing" (§I): a
// sharpening automaton runs while a simulated user watches the output
// quality. The user pauses to inspect, resumes, and releases the button
// (stops) once the output crosses their acceptability bar — which no
// profiler could have known in advance. SNR against the precise output
// stands in for the user's eyes.
func Example_interactive() {
	const side, acceptDB = 64, 25.0
	n := side * side
	in, err := anytime.SyntheticGray(side, side, 77)
	if err != nil {
		log.Fatal(err)
	}
	ord, err := anytime.Tree2D(side, side)
	if err != nil {
		log.Fatal(err)
	}
	// sharpen applies a clamped 3×3 unsharp kernel at pixel p.
	sharpen := func(p int) int32 {
		var sum int32
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				sum += in.Gray(min(max(p%side+dx, 0), side-1), min(max(p/side+dy, 0), side-1))
			}
		}
		center := in.Pix[p]
		return min(max(center+(center-(sum+4)/9), 0), 255)
	}
	ref := make([]int32, n)
	for p := range ref {
		ref[p] = sharpen(p)
	}
	working, err := anytime.NewGrayImage(side, side)
	if err != nil {
		log.Fatal(err)
	}
	filled := make([]bool, n)
	out := anytime.NewBuffer[*anytime.Image]("sharpened", nil)
	a := anytime.New()
	if err := a.AddStage("sharpen", func(c *anytime.Context) error {
		return anytime.MapSample(c, out, ord,
			func(dst int) error {
				working.Pix[dst] = sharpen(dst)
				filled[dst] = true
				return nil
			},
			func(processed int) (*anytime.Image, error) { return anytime.HoldFill(working, filled) },
			anytime.RoundConfig{Granularity: n / 64, Workers: 2})
	}); err != nil {
		log.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	var last anytime.Version
	paused := false
	for {
		snap, err := out.WaitNewer(context.Background(), last)
		if err != nil {
			log.Fatal(err)
		}
		last = snap.Version
		db, err := anytime.SNR(ref, snap.Value.Pix)
		if err != nil {
			log.Fatal(err)
		}
		// Halfway to the bar the user pauses for a closer look: published
		// output stays readable, and no compute is spent.
		if !paused && db >= acceptDB/2 {
			paused = true
			a.Pause()
			time.Sleep(10 * time.Millisecond)
			inspected, _ := out.Latest()
			fmt.Println("paused; inspected version is valid:", inspected.Version >= snap.Version)
			a.Resume()
		}
		if db >= acceptDB || snap.Final {
			fmt.Printf("released the button at ≥ %.0f dB: true\n", acceptDB)
			a.Stop()
			break
		}
	}
	if err := a.Wait(); err != nil && !errors.Is(err, anytime.ErrStopped) {
		log.Fatal(err)
	}
	// Output:
	// paused; inspected version is valid: true
	// released the button at ≥ 25 dB: true
}

// Example_pipelinegraph is the paper's Figure 1 program as a validated
// dataflow graph: prologue(); f(); g(); h(); i(); epilogue(); becomes the
// DAG f -> {g, h} -> i, every stage anytime. The graph builder enforces
// one writer per buffer and acyclicity before anything runs, and a tracer
// records every stage's publishes (WriteTimeline draws them as Figure 2).
func Example_pipelinegraph() {
	const n = 1 << 14
	input := make([]int64, n)
	for i := range input {
		input[i] = int64((i*i)%997 - 450)
	}
	ord, err := anytime.PseudoRandom(n, 17)
	if err != nil {
		log.Fatal(err)
	}
	fBuf := anytime.NewBuffer[int64]("f:sum", nil)
	gBuf := anytime.NewBuffer[float64]("g:mean", nil)
	hBuf := anytime.NewBuffer[int64]("h:magnitude", nil)
	iBuf := anytime.NewBuffer[string]("i:report", nil)
	tr := anytime.NewTracer()
	anytime.TraceBuffer(tr, fBuf)
	anytime.TraceBuffer(tr, gBuf)
	anytime.TraceBuffer(tr, hBuf)
	anytime.TraceBuffer(tr, iBuf)

	// f: anytime weighted sum (diffusive input sampling).
	fStage := func(c *anytime.Context) error {
		var acc int64
		return anytime.Diffusive(c, fBuf, n,
			func(pos int) error { acc += input[ord.At(pos)]; return nil },
			func(processed int) (int64, error) { return anytime.ScaleCount(acc, processed, n), nil },
			anytime.RoundConfig{Granularity: n / 8})
	}
	// g: mean of whatever sum estimate is current.
	gStage := func(c *anytime.Context) error {
		return anytime.AsyncConsume(c, fBuf, func(s anytime.Snapshot[int64]) error {
			_, err := gBuf.Publish(float64(s.Value)/n, s.Final)
			return err
		})
	}
	// h: magnitude bucket of the current sum.
	hStage := func(c *anytime.Context) error {
		return anytime.AsyncConsume(c, fBuf, func(s anytime.Snapshot[int64]) error {
			mag := int64(1)
			for v := s.Value; v > 9 || v < -9; v /= 10 {
				mag++
			}
			_, err := hBuf.Publish(mag, s.Final)
			return err
		})
	}
	// i: report joining g and h. On g's final version it waits for h's
	// final too, so i's last publish is the precise application output.
	iStage := func(c *anytime.Context) error {
		var lastH anytime.Snapshot[int64]
		return anytime.AsyncConsume(c, gBuf, func(s anytime.Snapshot[float64]) error {
			if snap, ok := hBuf.Latest(); ok {
				lastH = snap
			}
			for s.Final && !lastH.Final {
				snap, err := hBuf.WaitNewer(c.Context(), lastH.Version)
				if err != nil {
					return anytime.ErrStopped
				}
				lastH = snap
			}
			_, err := iBuf.Publish(fmt.Sprintf("mean=%.3f magnitude=10^%d", s.Value, lastH.Value), s.Final)
			return err
		})
	}
	a, err := anytime.NewGraph().
		Stage("f", fStage, fBuf).
		Stage("g", gStage, gBuf, fBuf).
		Stage("h", hStage, hBuf, fBuf).
		Stage("i", iStage, iBuf, gBuf, hBuf).
		Build()
	if err != nil {
		log.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		log.Fatal(err)
	}
	report, _ := iBuf.Latest()
	fmt.Println(report.Value, report.Final)
	publishes, finalized := map[string]int{}, map[string]bool{}
	for _, e := range tr.Events() {
		publishes[e.Name]++
		finalized[e.Name] = finalized[e.Name] || e.Flag
	}
	fmt.Println("f versions:", publishes["f:sum"])
	for _, buf := range []string{"f:sum", "g:mean", "h:magnitude", "i:report"} {
		fmt.Printf("%s finalized: %v\n", buf, finalized[buf])
	}
	// Output:
	// mean=47.843 magnitude=10^6 true
	// f versions: 8
	// f:sum finalized: true
	// g:mean finalized: true
	// h:magnitude finalized: true
	// i:report finalized: true
}
