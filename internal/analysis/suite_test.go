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

// TestIgnoreUnknownAnalyzerIsReported: a directive naming an analyzer the
// suite does not have suppresses nothing, so it is a diagnostic — the fate
// of a //lint:ignore left behind when its analyzer is deleted.
func TestIgnoreUnknownAnalyzerIsReported(t *testing.T) {
	t.Parallel()
	diags := checkSource(t, `package p

func f() int {
	//lint:ignore nosuchcheck its analyzer is gone
	return 0
}

func g() int {
	//lint:ignore * every analyzer, by design
	return 0
}
`, All())
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if diags[0].Analyzer != "ignore" || !strings.Contains(diags[0].Message, `unknown analyzer "nosuchcheck"`) {
		t.Fatalf("unexpected diagnostic: %s: %s", diags[0].Analyzer, diags[0].Message)
	}
}

// TestByName pins the suite to its three analyzers: the two that police
// the paper's §III properties and ctxflow.
func TestByName(t *testing.T) {
	t.Parallel()
	want := []string{"singlewriter", "snapshotmut", "ctxflow"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("suite has %d analyzers, want %v", len(all), want)
	}
	for i, a := range all {
		if a.Name != want[i] || ByName(a.Name) != a {
			t.Errorf("analyzer %d is %q (ByName ok: %v), want %q", i, a.Name, ByName(a.Name) == a, want[i])
		}
	}
	for _, gone := range []string{"nosuch", "goroleak", "hotalloc", "budgetflow"} {
		if ByName(gone) != nil {
			t.Errorf("ByName(%q) must be nil", gone)
		}
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

// TestSuppressionCollection: CollectSuppressions inventories every ignore
// directive, bare and unknown-analyzer ones flagged.
func TestSuppressionCollection(t *testing.T) {
	t.Parallel()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", `package p

func a() {
	//lint:ignore ctxflow deliberate root context
	_ = 1 + 1
	//lint:ignore singlewriter
	_ = 2 + 2
	//lint:ignore goroleak its analyzer is gone
	_ = 3 + 3
}
`, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	sups := CollectSuppressions(fset, []*ast.File{f})
	if len(sups) != 3 {
		t.Fatalf("got %d suppressions, want 3: %v", len(sups), sups)
	}
	if sups[0].Analyzer != "ctxflow" || sups[0].Bare() || sups[0].Unknown() {
		t.Errorf("first suppression misread: %+v", sups[0])
	}
	if sups[1].Analyzer != "singlewriter" || !sups[1].Bare() {
		t.Errorf("bare suppression not flagged: %+v", sups[1])
	}
	if sups[2].Analyzer != "goroleak" || !sups[2].Unknown() {
		t.Errorf("unknown-analyzer suppression not flagged: %+v", sups[2])
	}
}
