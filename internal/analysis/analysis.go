// Package analysis is anytimevet's static-analysis suite: a set of
// go/analysis-style analyzers that prove the automaton discipline of the
// paper's §III invariants at compile time, on every build, with zero
// schedules run. Where the conformance harness (internal/conform) catches a
// violation only when a seeded schedule happens to trip it, these analyzers
// convict the misuse pattern itself — a second goroutine publishing to a
// single-writer buffer, a reader mutating a published snapshot — before the
// code ever runs. (By-value copies of atomic-bearing structs are left to
// stock go vet: copylocks convicts them through sync/atomic's noCopy.)
//
// The framework mirrors the API shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) so the suite can be rebased onto the real
// module mechanically if the dependency is ever vendored; this repo builds
// with a zero-dependency go.mod, so the driver (package loading, want-file
// testing, the vet-tool protocol) is implemented here on the standard
// library alone.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check: a name usable in -<name>=false
// driver flags and //lint:ignore directives, documentation, and the
// function that runs the check over a single package.
type Analyzer struct {
	// Name is the analyzer's unique short name ([a-z]+).
	Name string
	// Doc is the one-paragraph description printed by `anytimevet help`.
	Doc string
	// Run inspects the package in pass and reports diagnostics through
	// pass.Report. The interface{} result mirrors x/tools' signature; the
	// suite's analyzers all return (nil, nil).
	Run func(pass *Pass) (interface{}, error)
}

// Pass is the unit of work handed to an Analyzer: one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. The driver installs it; analyzers
	// normally use Reportf.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a message. Analyzer is filled
// in by the driver.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// All returns the suite, in stable order. Each analyzer encodes one
// contract of the automaton model; see their Doc strings and DESIGN.md §7.
func All() []*Analyzer {
	return []*Analyzer{
		SingleWriterAnalyzer,
		SnapshotMutAnalyzer,
		CtxFlowAnalyzer,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// ---- shared AST / types helpers ----

// walkStack traverses every file of the pass in source order, invoking fn
// with each node and the stack of its ancestors (outermost first, not
// including n itself). Returning false from fn prunes the subtree.
func walkStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			descend := fn(n, stack)
			if descend {
				stack = append(stack, n)
			}
			return descend
		})
	}
}

// deref unwraps one level of pointer and any alias chains.
func deref(t types.Type) types.Type {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	return t
}

// namedName reports the declared name of t's (possibly pointer-wrapped,
// possibly instantiated-generic) named type, or "".
func namedName(t types.Type) string {
	if t == nil {
		return ""
	}
	n, ok := deref(t).(*types.Named)
	if !ok {
		return ""
	}
	return n.Obj().Name()
}

// calleeMethod resolves call to the *types.Func it invokes through a
// selector (method value calls included), or nil.
func calleeMethod(info *types.Info, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	return fn
}

// isBufferMethod reports whether call invokes a method with one of the
// given names on a named type called "Buffer" (the core.Buffer shape; the
// name-based match keeps analyzer fixtures self-contained while convicting
// the real type everywhere it is aliased or re-exported).
func isBufferMethod(info *types.Info, call *ast.CallExpr, names ...string) bool {
	fn := calleeMethod(info, call)
	if fn == nil {
		return false
	}
	recv := fn.Signature().Recv()
	if recv == nil || namedName(recv.Type()) != "Buffer" {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// receiverObject resolves the object that identifies the receiver of a
// method call for grouping purposes: the variable for `b.Publish(..)`, the
// field for `s.out.Publish(..)`. Returns nil when the receiver is not a
// plain identifier/selector chain (e.g. a call result).
func receiverObject(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	expr := ast.Unparen(sel.X)
	for {
		switch x := expr.(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			if obj := info.Uses[x.Sel]; obj != nil {
				return obj
			}
			return nil
		case *ast.ParenExpr:
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X
		default:
			return nil
		}
	}
}

// typeOf returns the type recorded for expression e, or nil.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	tv, ok := info.Types[e]
	if !ok {
		return nil
	}
	return tv.Type
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// sortDiagnostics orders diagnostics by file position for stable output.
func sortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return ds[i].Message < ds[j].Message
	})
}
