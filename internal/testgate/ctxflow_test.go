package testgate

// The serving tier's cancellability, syntactically: every request-path
// operation must run under the request's context (DESIGN.md §7, serving
// contract). The per-subsystem cancel tests prove the paths they drive;
// this test convicts the patterns that detach a path they do not drive.
// `go vet` owns the other two ways to drop a cancel: lostcancel (a cancel
// assigned to _) and unusedresult (a discarded context.WithCancel).

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// requestPath names the packages whose every function runs on behalf of a
// request, or of fleet machinery an operator must be able to stop.
var requestPath = []string{"serve", "cluster", "daemon", "reqtrace"}

// TestRequestPathContexts runs the checks over the non-test files of the
// request-path packages. Functions taking a ctx are collected from core
// too, which the request path calls into, so a nil passed to them counts.
func TestRequestPathContexts(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(dir string) []*ast.File {
		paths, err := filepath.Glob(filepath.Join("..", dir, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no sources in %s: %v", dir, err)
		}
		var files []*ast.File
		for _, p := range paths {
			if strings.HasSuffix(p, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, p, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		return files
	}
	var scanned []*ast.File
	for _, dir := range requestPath {
		scanned = append(scanned, parse(dir)...)
	}
	ctxFuncs := ctxParamIndex(append(parse("core"), scanned...))
	for _, f := range ctxFindings(fset, scanned, ctxFuncs) {
		t.Error(f)
	}
}

// TestRequestPathContextPlants proves the checks can fail: each planted
// snippet carries one class and must be convicted of it, and the idioms
// the request path is written in must pass.
func TestRequestPathContextPlants(t *testing.T) {
	const header = `package serve

import (
	"context"
	"net/http"
	"time"
)

func do(ctx context.Context) { _ = ctx }

`
	cases := []struct {
		name, src, want string // want "" means no finding
	}{
		{"background", `func h() { do(context.Background()) }`, "root"},
		{"todo", `func h() { do(context.TODO()) }`, "root"},
		{"struct field", `type holder struct{ ctx context.Context }`, "stored"},
		{"package var", `var saved context.Context`, "stored"},
		{"local var", `func h() { var saved context.Context; do(saved) }`, "stored"},
		{"new request", `func h() { req, _ := http.NewRequest(http.MethodGet, "/", nil); _ = req }`, "newrequest"},
		{"cancel never called", `func h(ctx context.Context) {
	child, cancel := context.WithDeadline(ctx, time.Now())
	do(child)
	_ = cancel
}`, "cancel"},
		{"nil ctx", `func h() { do(nil) }`, "nil"},
		{"nil ctx to method", `type c struct{}
func (c) probe(ctx context.Context, n int) { _, _ = ctx, n }
func h(x c) { x.probe(nil, 1) }`, "nil"},
		{"defer cancel", `func h(ctx context.Context) {
	child, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	do(child)
}`, ""},
		{"cancel handed off", `func h(ctx context.Context) (context.Context, context.CancelFunc) {
	child, cancel := context.WithCancel(ctx)
	return child, cancel
}`, ""},
		{"param ctx", `func h(ctx context.Context) { do(ctx) }`, ""},
		{"request ctx", `func h(w http.ResponseWriter, r *http.Request) { do(r.Context()) }`, ""},
		{"request with ctx", `func h(ctx context.Context) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "/", nil)
	_ = req
}`, ""},
		{"nil non-ctx arg", `func h(f func(*int)) { f(nil) }`, ""},
	}
	for _, tc := range cases {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, tc.name+".go", header+tc.src, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		files := []*ast.File{f}
		got := ctxFindings(fset, files, ctxParamIndex(files))
		switch {
		case tc.want == "" && len(got) > 0:
			t.Errorf("%s: clean idiom convicted: %v", tc.name, got)
		case tc.want != "" && (len(got) != 1 || !strings.Contains(got[0], ": "+tc.want+": ")):
			t.Errorf("%s: want one %q finding, got %v", tc.name, tc.want, got)
		}
	}
}

// ctxParamIndex maps each function and method name declared in files to
// the positions of its context.Context parameters.
func ctxParamIndex(files []*ast.File) map[string][]int {
	idx := make(map[string][]int)
	for _, f := range files {
		pkg := importName(f, "context")
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			i := 0
			for _, field := range fd.Type.Params.List {
				n := max(len(field.Names), 1)
				if isCtxType(field.Type, pkg) {
					for k := 0; k < n; k++ {
						idx[fd.Name.Name] = append(idx[fd.Name.Name], i+k)
					}
				}
				i += n
			}
		}
	}
	return idx
}

// ctxFindings reports, as "file:line: class: message":
//   - root: context.Background() or context.TODO(), which sever the
//     caller's deadline;
//   - stored: a context-typed struct field or variable declaration, which
//     outlives or stands in for the request's context;
//   - newrequest: http.NewRequest, whose context can never be cancelled;
//   - cancel: a cancel from context.With* that is bound but never used,
//     `_ = cancel` aside;
//   - nil: nil passed where a function in ctxFuncs takes its context.
func ctxFindings(fset *token.FileSet, files []*ast.File, ctxFuncs map[string][]int) []string {
	var out []string
	report := func(n ast.Node, class, format string, args ...any) {
		out = append(out, fmt.Sprintf("%s: %s: %s", fset.Position(n.Pos()), class, fmt.Sprintf(format, args...)))
	}
	for _, f := range files {
		ctxPkg, httpPkg := importName(f, "context"), importName(f, "net/http")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if isCtxType(field.Type, ctxPkg) {
						report(field, "stored", "struct field of type context.Context outlives its request; pass ctx as a parameter")
					}
				}
			case *ast.ValueSpec:
				if isCtxType(n.Type, ctxPkg) {
					report(n, "stored", "variable %s of type context.Context is not the caller's ctx; pass ctx as a parameter", n.Names[0].Name)
				}
			case *ast.CallExpr:
				if name, ok := pkgCall(n, ctxPkg); ok && (name == "Background" || name == "TODO") {
					report(n, "root", "context.%s() severs the caller's deadline and cancellation", name)
				}
				if name, ok := pkgCall(n, httpPkg); ok && name == "NewRequest" {
					report(n, "newrequest", "http.NewRequest builds an uncancellable request; use http.NewRequestWithContext")
				}
				for _, i := range ctxFuncs[calleeName(n)] {
					if i < len(n.Args) && isIdent(n.Args[i], "nil") {
						report(n.Args[i], "nil", "nil context passed to %s", calleeName(n))
					}
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					for _, id := range unusedCancels(n.Body, ctxPkg) {
						report(id, "cancel", "%s, the cancel func of a context.With* call, is never called or handed on; the child context leaks until its parent ends", id.Name)
					}
				}
			}
			return true
		})
	}
	return out
}

// unusedCancels returns the cancel functions bound from context.With*
// calls in body that no statement other than `_ = cancel` refers to.
func unusedCancels(body *ast.BlockStmt, ctxPkg string) []*ast.Ident {
	var bound []*ast.Ident
	uses := make(map[string]int)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == 2 && len(n.Rhs) == 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
					if name, ok := pkgCall(call, ctxPkg); ok && strings.HasPrefix(name, "With") {
						if id, ok := n.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
							bound = append(bound, id)
							uses[id.Name]--
						}
					}
				}
			}
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 && isIdent(n.Lhs[0], "_") {
				if id, ok := n.Rhs[0].(*ast.Ident); ok {
					uses[id.Name]--
				}
			}
		case *ast.Ident:
			uses[n.Name]++
		}
		return true
	})
	var unused []*ast.Ident
	for _, id := range bound {
		if uses[id.Name] <= 0 {
			unused = append(unused, id)
		}
	}
	return unused
}

// importName is the name file f refers to the import path by, or "" when
// f does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return path[strings.LastIndexByte(path, '/')+1:]
	}
	return ""
}

func isCtxType(e ast.Expr, ctxPkg string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && ctxPkg != "" && isIdent(sel.X, ctxPkg) && sel.Sel.Name == "Context"
}

// pkgCall returns the function name of a call pkg.Name(...).
func pkgCall(call *ast.CallExpr, pkg string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || pkg == "" || !isIdent(sel.X, pkg) {
		return "", false
	}
	return sel.Sel.Name, true
}

func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
