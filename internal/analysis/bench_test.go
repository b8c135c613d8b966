package analysis

import (
	"go/token"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// The suite benchmark answers one question: how much wall clock does the
// anytimevet step add to CI? Loading (go list + parse + typecheck) and
// analyzing are measured separately because they scale differently —
// loading is I/O- and typecheck-bound and grows with tree size, analysis
// is pure AST walking and grows with the number of analyzers. No number is
// stored: the CI step's 2-minute timeout is the gate.

var (
	benchOnce sync.Once
	benchFset *token.FileSet
	benchPkgs []*Package
	benchErr  error
)

func repoRoot(tb testing.TB) string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		tb.Fatal("runtime.Caller failed")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

func loadTree(tb testing.TB) (*token.FileSet, []*Package) {
	benchOnce.Do(func() {
		benchFset = token.NewFileSet()
		benchPkgs, benchErr = Load(benchFset, repoRoot(tb), []string{"./..."}, true)
	})
	if benchErr != nil {
		tb.Fatalf("loading repo tree: %v", benchErr)
	}
	return benchFset, benchPkgs
}

// BenchmarkAnytimevetSuite runs the whole suite over the full repo
// tree (tests included) — exactly the work `go run ./cmd/anytimevet ./...`
// does after loading.
func BenchmarkAnytimevetSuite(b *testing.B) {
	fset, pkgs := loadTree(b)
	analyzers := All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pkg := range pkgs {
			if _, err := RunPackage(fset, pkg, analyzers); err != nil {
				b.Fatalf("%s: %v", pkg.ID, err)
			}
		}
	}
	b.ReportMetric(float64(len(pkgs)), "packages")
}

// BenchmarkAnytimevetLoad measures the load-and-typecheck phase that
// dominates the CI step's wall clock. Each iteration is a cold load (its
// own FileSet); only go list's output is warm after the first.
func BenchmarkAnytimevetLoad(b *testing.B) {
	root := repoRoot(b)
	for i := 0; i < b.N; i++ {
		fset := token.NewFileSet()
		if _, err := Load(fset, root, []string{"./..."}, true); err != nil {
			b.Fatalf("loading repo tree: %v", err)
		}
	}
}

// BenchmarkAnytimevetPerAnalyzer pins each analyzer's share so a
// regression in one pass is attributable from the job log alone.
func BenchmarkAnytimevetPerAnalyzer(b *testing.B) {
	fset, pkgs := loadTree(b)
	for _, a := range All() {
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, pkg := range pkgs {
					if _, err := RunPackage(fset, pkg, []*Analyzer{a}); err != nil {
						b.Fatalf("%s: %v", pkg.ID, err)
					}
				}
			}
		})
	}
}
