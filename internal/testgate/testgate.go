// Package testgate is the shared half of the run-time gates that took over from
// the goroleak and hotalloc analyzers (DESIGN.md §7).
package testgate

import (
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

// Goroutines requires that the goroutine count is back to what it was at
// the call when t (not parallel) ends: it polls for five seconds, then fails
// with a dump of every goroutine alive.
func Goroutines(t testing.TB) {
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			var dump strings.Builder
			pprof.Lookup("goroutine").WriteTo(&dump, 2)
			t.Errorf("goroutine leak: %d alive, %d when the test began\n%s", n, base, dump.String())
		}
	})
}

// Allocs fails t when fn allocates more than budget objects per call. Under
// the race detector, whose runtime allocates on its own account, fn runs
// but the count is not asserted.
func Allocs(t testing.TB, name string, budget float64, fn func()) {
	t.Helper()
	if got := testing.AllocsPerRun(100, fn); got > budget && !raceEnabled() {
		t.Errorf("%s: %.1f allocs/op, budget %.0f", name, got, budget)
	}
}

func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
