// Package metrics implements the accuracy metrics of the paper's evaluation
// (§IV-A2): signal-to-noise ratio (SNR) in decibels of an approximate output
// relative to the baseline precise output, plus the related MSE/PSNR measures
// common in image processing. An exact match yields +Inf dB,
// matching the paper's "∞ dB is perfect accuracy".
package metrics

import (
	"fmt"
	"math"
)

// InfDB is the SNR of a bit-exact output: positive infinity decibels.
var InfDB = math.Inf(1)

// MSE returns the mean squared error between ref and approx.
// The slices must have equal nonzero length.
func MSE(ref, approx []int32) (float64, error) {
	if err := checkLens(len(ref), len(approx)); err != nil {
		return 0, err
	}
	var sum float64
	for i := range ref {
		d := float64(ref[i] - approx[i])
		sum += d * d
	}
	return sum / float64(len(ref)), nil
}

// SNR returns the signal-to-noise ratio, in decibels, of approx relative to
// the reference ref:
//
//	SNR = 10 * log10( Σ ref² / Σ (ref-approx)² )
//
// It returns +Inf for a bit-exact match and -Inf for a zero reference signal
// with nonzero error.
func SNR(ref, approx []int32) (float64, error) {
	if err := checkLens(len(ref), len(approx)); err != nil {
		return 0, err
	}
	var signal, noise float64
	for i := range ref {
		s := float64(ref[i])
		d := s - float64(approx[i])
		signal += s * s
		noise += d * d
	}
	if noise == 0 {
		return InfDB, nil
	}
	if signal == 0 {
		return math.Inf(-1), nil
	}
	return 10 * math.Log10(signal/noise), nil
}

// PSNR returns the peak signal-to-noise ratio in decibels for signals whose
// maximum possible value is peak (e.g. 255 for 8-bit pixels). Returns +Inf
// for a bit-exact match.
func PSNR(ref, approx []int32, peak int32) (float64, error) {
	if peak <= 0 {
		return 0, fmt.Errorf("metrics: peak %d must be positive", peak)
	}
	mse, err := MSE(ref, approx)
	if err != nil {
		return 0, err
	}
	if mse == 0 {
		return InfDB, nil
	}
	p := float64(peak)
	return 10 * math.Log10(p*p/mse), nil
}

// FormatDB renders a decibel value the way the paper's figures do: "inf"
// for perfect accuracy, otherwise a fixed-point decimal.
func FormatDB(db float64) string {
	if math.IsInf(db, 1) {
		return "inf"
	}
	if math.IsInf(db, -1) {
		return "-inf"
	}
	return fmt.Sprintf("%.2f", db)
}

func checkLens(a, b int) error {
	if a != b {
		return fmt.Errorf("metrics: length mismatch %d vs %d", a, b)
	}
	if a == 0 {
		return fmt.Errorf("metrics: empty signal")
	}
	return nil
}
