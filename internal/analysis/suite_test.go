package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// Each analyzer runs over a fixture that plants its known failure modes
// (the double-writer goroutine, the mutated snapshot, wall-clock in a
// replay package) next to the clean idioms it must not convict.

func TestSingleWriterFixture(t *testing.T) {
	t.Parallel()
	RunFixture(t, SingleWriterAnalyzer, "singlewriter")
}

func TestSnapshotMutFixture(t *testing.T) {
	t.Parallel()
	RunFixture(t, SnapshotMutAnalyzer, "snapshotmut")
}

func TestDetNonDetFixture(t *testing.T) {
	t.Parallel()
	RunFixture(t, DetNonDetAnalyzer, "detnondet")
}

// TestDetNonDetOutOfScope runs the same nondeterminism patterns in a
// package outside the replay scope: zero diagnostics expected.
func TestDetNonDetOutOfScope(t *testing.T) {
	t.Parallel()
	RunFixture(t, DetNonDetAnalyzer, "detscope")
}

// TestIgnoreDirectiveSuppresses runs singlewriter over a fixture whose only
// violation carries a justified //lint:ignore: the run must come back
// clean.
func TestIgnoreDirectiveSuppresses(t *testing.T) {
	t.Parallel()
	RunFixture(t, SingleWriterAnalyzer, "ignores")
}

// checkSource type-checks an inline snippet (no imports) and runs the given
// analyzers over it.
func checkSource(t *testing.T, src string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing snippet: %v", err)
	}
	pkg, err := CheckFiles(fset, "p", "", []*ast.File{f}, nil, nil)
	if err != nil {
		t.Fatalf("type-checking snippet: %v", err)
	}
	diags, err := RunPackage(fset, pkg, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	return diags
}

// TestBareIgnoreIsItselfReported: a directive without a justification is a
// diagnostic, not a suppression — every ignore in the tree must say why.
func TestBareIgnoreIsItselfReported(t *testing.T) {
	t.Parallel()
	diags := checkSource(t, `package p

func f() int {
	//lint:ignore singlewriter
	return 0
}
`, All())
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if diags[0].Analyzer != "ignore" || !strings.Contains(diags[0].Message, "justification") {
		t.Fatalf("unexpected diagnostic: %s: %s", diags[0].Analyzer, diags[0].Message)
	}
}

// TestIgnoreWrongAnalyzerDoesNotSuppress: naming the wrong analyzer leaves
// the real diagnostic standing.
func TestIgnoreWrongAnalyzerDoesNotSuppress(t *testing.T) {
	t.Parallel()
	diags := checkSource(t, `package p

type Buffer[T any] struct{ cur T }

func (b *Buffer[T]) Publish(v T, final bool) { b.cur = v }

func twoWriters() {
	buf := &Buffer[int]{}
	done := make(chan struct{})
	go func() {
		//lint:ignore snapshotmut wrong analyzer named on purpose
		buf.Publish(1, false)
		close(done)
	}()
	<-done
	buf.Publish(2, true)
}
`, []*Analyzer{SingleWriterAnalyzer})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want the second writer: %v", len(diags), diags)
	}
	if diags[0].Analyzer != "singlewriter" {
		t.Fatalf("unexpected analyzer %q", diags[0].Analyzer)
	}
}

func TestByName(t *testing.T) {
	t.Parallel()
	for _, a := range All() {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the suite analyzer", a.Name)
		}
	}
	if ByName("nosuch") != nil {
		t.Error("ByName of an unknown name must be nil")
	}
}

func TestCtxFlowFixture(t *testing.T) {
	t.Parallel()
	RunFixture(t, CtxFlowAnalyzer, "ctxflow")
}

// TestCtxFlowOutOfScope runs the same root-context patterns in a package
// outside the request-path scope: zero diagnostics expected.
func TestCtxFlowOutOfScope(t *testing.T) {
	t.Parallel()
	RunFixture(t, CtxFlowAnalyzer, "ctxscope")
}

func TestGoroLeakFixture(t *testing.T) {
	t.Parallel()
	RunFixture(t, GoroLeakAnalyzer, "goroleak")
}

func TestBudgetFlowFixture(t *testing.T) {
	t.Parallel()
	RunFixture(t, BudgetFlowAnalyzer, "budgetflow")
}

func TestHotAllocFixture(t *testing.T) {
	t.Parallel()
	RunFixture(t, HotAllocAnalyzer, "hotalloc")
}
