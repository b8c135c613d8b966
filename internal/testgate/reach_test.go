package testgate

// What only tests reach goes: every exported name an internal package
// declares must be reached by a program — some non-test code anywhere in
// the module or in the benchmark runner's — or by another package's tests,
// which stand in for a caller. Being under internal/, nothing outside the
// module can call it, so a name only its own package's tests use is a model
// no program runs. The census is by name, without types: a method counts as
// reached when any selector of its name is, so a collision only ever lets a
// name through, never convicts one.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// module is the import path of the repository root.
const module = "anytime"

// stdMethods names the methods a standard interface calls without a
// selector in this module: fmt's Stringer and error, sort and heap,
// net/http's Handler and RoundTripper, io's Writer/Reader/Closer family,
// and encoding's marshalers.
var stdMethods = []string{
	"String", "Error", "Unwrap", "Len", "Less", "Swap", "Push", "Pop",
	"ServeHTTP", "RoundTrip", "Write", "Read", "Close", "WriteTo",
	"ReadFrom", "MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
}

// srcFile is one parsed Go file and the module-relative directory it
// lives in.
type srcFile struct {
	dir  string
	test bool
	f    *ast.File
}

// ownTest reports whether sf is a test of the package it sits beside. An
// external test package (package x_test) is another package: it reaches
// only what a caller could.
func (sf srcFile) ownTest() bool {
	return sf.test && !strings.HasSuffix(sf.f.Name.Name, "_test")
}

// TestInternalNamesReached runs the census over the whole repository.
func TestInternalNamesReached(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var files []srcFile
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		files = append(files, srcFile{dir: filepath.ToSlash(rel), test: strings.HasSuffix(p, "_test.go"), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 100 {
		t.Fatalf("parsed only %d files under %s", len(files), root)
	}
	for _, name := range unreached(files) {
		t.Errorf("%s is exported from internal/ but no program and no other package's test reaches it: delete it, or unexport it if its own package still uses it", name)
	}
}

// TestInternalNamesReachedPlants proves the census can fail: a planted
// exported function, method and var that only their own package's test
// uses are convicted, and the ways a name is legitimately reached all
// pass.
func TestInternalNamesReachedPlants(t *testing.T) {
	tree := map[string]string{
		"internal/a/a.go": `package a
import "fmt"
type T struct{}
func (T) String() string { return "t" }      // fmt calls it
func (T) Used() int { return helper() }       // called from cmd
func (T) Planted() {}                         // own test only
func (*F) Aliased() {}                        // the facade aliases F
type F struct{}
const Limit = 3                               // used below
func helper() int { fmt.Println(Limit); return 0 }
func Reached() T { return T{} }               // called from cmd
func ForTests() int { return 1 }              // another package's test
func External() int { return 5 }              // an external test package
func Planted() int { return 2 }               // own test only
var PlantedVar = 4                            // own test only
`,
		"internal/a/a_test.go": `package a
func useAll() { _ = Planted() + PlantedVar; T{}.Planted() }
`,
		"internal/a/ext_test.go": `package a_test
import "anytime/internal/a"
var _ = a.External()
`,
		"internal/b/b_test.go": `package b
import "anytime/internal/a"
var _ = a.ForTests()
`,
		"cmd/c/main.go": `package main
import alias "anytime/internal/a"
func main() { alias.Reached().Used() }
`,
		"facade.go": `package anytime
import "anytime/internal/a"
type F = a.F
`,
	}
	fset := token.NewFileSet()
	var files []srcFile
	for p, src := range tree {
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, srcFile{dir: path.Dir(p), test: strings.HasSuffix(p, "_test.go"), f: f})
	}
	got := unreached(files)
	want := []string{"internal/a.Planted", "internal/a.PlantedVar", "internal/a.T.Planted"}
	if !slices.Equal(got, want) {
		t.Errorf("convicted %v, want %v", got, want)
	}
}

// unreached returns, sorted, the exported functions, methods, types, vars
// and consts declared in non-test files under internal/ that neither a
// non-test file nor a test of another package refers to, as "dir.Name" or
// "dir.Type.Method". Methods a standard interface calls, and methods on a
// type the root package aliases, are callers' API and exempt.
func unreached(files []srcFile) []string {
	type decl struct{ dir, recv, name string }
	var decls []decl
	aliased := map[string]bool{}         // "dir.Type" the root package re-exports
	reached := map[string]bool{}         // "dir.Name" of package-level names
	selected := map[string]bool{}        // method names another package selects
	ownSelected := map[string][]string{} // method name -> dirs whose own tests select it
	for _, sf := range files {
		imports := map[string]string{} // local name -> internal dir
		for _, imp := range sf.f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if !strings.HasPrefix(p, module+"/internal/") {
				continue
			}
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = strings.TrimPrefix(p, module+"/")
		}
		declares := !sf.test && strings.HasPrefix(sf.dir, "internal/")
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if declares && d.Name.IsExported() {
					decls = append(decls, decl{sf.dir, recvType(d), d.Name.Name})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if sf.dir == "." && !sf.test && s.Assign.IsValid() {
							if sel, ok := unindex(s.Type).(*ast.SelectorExpr); ok {
								if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
									aliased[imports[x.Name]+"."+sel.Sel.Name] = true
								}
							}
						}
						if declares && s.Name.IsExported() {
							decls = append(decls, decl{sf.dir, "", s.Name.Name})
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if declares && id.IsExported() {
								decls = append(decls, decl{sf.dir, "", id.Name})
							}
						}
					}
				}
			}
		}
		// Walk every use: a qualified pkg.Name from another directory, a
		// bare Name from a non-test file of the declaring one, and method
		// selectors. Declaring identifiers are not uses.
		var walk func(ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					if imports[x.Name] != sf.dir || !sf.ownTest() {
						reached[imports[x.Name]+"."+n.Sel.Name] = true
					}
					return false
				}
				if sf.ownTest() {
					ownSelected[n.Sel.Name] = append(ownSelected[n.Sel.Name], sf.dir)
				} else {
					selected[n.Sel.Name] = true
				}
				ast.Inspect(n.X, walk)
				return false
			case *ast.FuncDecl:
				if n.Recv != nil {
					ast.Inspect(n.Recv, walk)
				}
				ast.Inspect(n.Type, walk)
				if n.Body != nil {
					ast.Inspect(n.Body, walk)
				}
				return false
			case *ast.TypeSpec:
				ast.Inspect(n.Type, walk)
				if n.TypeParams != nil {
					ast.Inspect(n.TypeParams, walk)
				}
				return false
			case *ast.ValueSpec:
				if n.Type != nil {
					ast.Inspect(n.Type, walk)
				}
				for _, v := range n.Values {
					ast.Inspect(v, walk)
				}
				return false
			case *ast.Ident:
				if !sf.test {
					reached[sf.dir+"."+n.Name] = true
				}
			}
			return true
		}
		for _, d := range sf.f.Decls {
			ast.Inspect(d, walk)
		}
	}

	var out []string
	for _, d := range decls {
		if d.recv == "" {
			if !reached[d.dir+"."+d.name] {
				out = append(out, d.dir+"."+d.name)
			}
			continue
		}
		if slices.Contains(stdMethods, d.name) || aliased[d.dir+"."+d.recv] || selected[d.name] ||
			slices.ContainsFunc(ownSelected[d.name], func(dir string) bool { return dir != d.dir }) {
			continue
		}
		out = append(out, d.dir+"."+d.recv+"."+d.name)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// recvType is the name of a method's receiver type, "" for a function.
func recvType(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := unindex(typ).(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// unindex strips the type arguments from a generic type expression.
func unindex(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.IndexExpr:
		return x.X
	case *ast.IndexListExpr:
		return x.X
	}
	return e
}
