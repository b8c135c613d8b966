package testgate

// What only tests reach goes: every exported name an internal package
// declares must be reached by a program — some non-test code anywhere in
// the module or in the benchmark runner's — or by another package's tests,
// which stand in for a caller. Being under internal/, nothing outside the
// module can call it, so a name only its own package's tests use is a model
// no program runs. The census is by name, without types: a method counts as
// reached when any selector of its name is, so a collision only ever lets a
// name through, never convicts one.
//
// Its bench-only class is what the frozen benchmark runner (cmd/anytimebench)
// alone reaches. Each package keeps that surface in one benchcompat.go,
// which no program file calls into, so that the file can go whole once the
// benchmark stops calling it.

import (
	"fmt"
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
	base string
	test bool
	f    *ast.File
}

// benchDir is the frozen benchmark runner's directory, and shimFile the
// file each package keeps the names only it reaches in.
const (
	benchDir = "cmd/anytimebench"
	shimFile = "benchcompat.go"
)

// inBench reports whether sf is part of the benchmark runner.
func (sf srcFile) inBench() bool {
	return sf.dir == benchDir || strings.HasPrefix(sf.dir, benchDir+"/")
}

// ownTest reports whether sf is a test of the package it sits beside. An
// external test package (package x_test) is another package: it reaches
// only what a caller could.
func (sf srcFile) ownTest() bool {
	return sf.test && !strings.HasSuffix(sf.f.Name.Name, "_test")
}

// TestInternalNamesReached runs the census over the whole repository.
func TestInternalNamesReached(t *testing.T) {
	for _, name := range unreached(parseRepo(t)) {
		t.Errorf("%s is exported from internal/ but no program and no other package's test reaches it: delete it, or unexport it if its own package still uses it", name)
	}
}

// TestInternalNamesReachedBenchOnly runs the bench-only census over the
// whole repository.
func TestInternalNamesReachedBenchOnly(t *testing.T) {
	for _, fault := range benchOnlyFaults(parseRepo(t)) {
		t.Error(fault)
	}
}

// parseRepo parses every Go file of the repository, the benchmark
// runner's included.
func parseRepo(t *testing.T) []srcFile {
	t.Helper()
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
		files = append(files, srcFile{dir: filepath.ToSlash(rel), base: filepath.Base(p), test: strings.HasSuffix(p, "_test.go"), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 100 {
		t.Fatalf("parsed only %d files under %s", len(files), root)
	}
	return files
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
	got := unreached(parseTree(t, tree))
	want := []string{"internal/a.Planted", "internal/a.PlantedVar", "internal/a.T.Planted"}
	if !slices.Equal(got, want) {
		t.Errorf("convicted %v, want %v", got, want)
	}
}

// TestInternalNamesReachedBenchOnlyPlants proves the bench-only census can
// fail: a name only the benchmark calls, declared outside benchcompat.go,
// and a program file that calls into one are convicted. A benchcompat.go
// that only the benchmark and its own package's tests call passes, and so
// does one that calls its package's other files.
func TestInternalNamesReachedBenchOnlyPlants(t *testing.T) {
	tree := map[string]string{
		"internal/a/a.go": `package a
func Program() int { return Shared() }        // called from cmd/c
func Shared() int { return 1 }                // benchcompat.go calls it too
func Planted() int { return 2 }               // the benchmark only
func Leaky() int { return Leaked() }          // a program file calls a shim
`,
		"internal/a/benchcompat.go": `package a
type Probe struct{}
func (Probe) Run() int { return Shared() }    // the benchmark only
func NewProbe() Probe { return Probe{} }      // the benchmark only
func Leaked() int { return 3 }
`,
		"internal/a/a_test.go": `package a
var _ = NewProbe().Run() + Planted()
`,
		"cmd/c/main.go": `package main
import "anytime/internal/a"
func main() { a.Program(); a.Leaky() }
`,
		"cmd/anytimebench/main.go": `package main
import "anytime/internal/a"
func main() { a.NewProbe().Run(); a.Planted() }
`,
	}
	got := benchOnlyFaults(parseTree(t, tree))
	want := []string{
		"cmd/anytimebench alone reaches internal/a.Planted, declared in a.go: move it to internal/a/benchcompat.go",
		"internal/a/a.go refers to internal/a.Leaked, which only the benchmark may call: it is declared in internal/a/benchcompat.go",
	}
	if !slices.Equal(got, want) {
		t.Errorf("convicted\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// parseTree parses an in-memory tree of module-relative paths to sources.
func parseTree(t *testing.T, tree map[string]string) []srcFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []srcFile
	for p, src := range tree {
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, srcFile{dir: path.Dir(p), base: path.Base(p), test: strings.HasSuffix(p, "_test.go"), f: f})
	}
	return files
}

// decl is one exported name a non-test file under internal/ declares.
type decl struct{ dir, file, recv, name string }

// String is the census's name for d: "dir.Name" or "dir.Type.Method".
func (d decl) String() string {
	if d.recv == "" {
		return d.dir + "." + d.name
	}
	return d.dir + "." + d.recv + "." + d.name
}

// unreached returns, sorted, the exported functions, methods, types, vars
// and consts declared in non-test files under internal/ that neither a
// non-test file nor a test of another package refers to, as "dir.Name" or
// "dir.Type.Method". Methods a standard interface calls, and methods on a
// type the root package aliases, are callers' API and exempt.
func unreached(files []srcFile) []string {
	var out []string
	for _, d := range unreachedDecls(files) {
		out = append(out, d.String())
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// unreachedDecls is unreached's census, declaration by declaration.
func unreachedDecls(files []srcFile) []decl {
	var decls []decl
	aliased := map[string]bool{}         // "dir.Type" the root package re-exports
	reached := map[string]bool{}         // "dir.Name" of package-level names
	selected := map[string]bool{}        // method names another package selects
	ownSelected := map[string][]string{} // method name -> dirs whose own tests select it
	for _, sf := range files {
		imports := internalImports(sf.f)
		declares := !sf.test && strings.HasPrefix(sf.dir, "internal/")
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if declares && d.Name.IsExported() {
					decls = append(decls, decl{sf.dir, sf.base, recvType(d), d.Name.Name})
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
							decls = append(decls, decl{sf.dir, sf.base, "", s.Name.Name})
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if declares && id.IsExported() {
								decls = append(decls, decl{sf.dir, sf.base, "", id.Name})
							}
						}
					}
				}
			}
		}
		walkUses(sf, imports, func(dir, name string) {
			if dir != sf.dir || !sf.ownTest() {
				reached[dir+"."+name] = true
			}
		}, func(name string) {
			if sf.ownTest() {
				ownSelected[name] = append(ownSelected[name], sf.dir)
			} else {
				selected[name] = true
			}
		})
	}

	var out []decl
	for _, d := range decls {
		if d.recv == "" {
			if !reached[d.dir+"."+d.name] {
				out = append(out, d)
			}
			continue
		}
		if slices.Contains(stdMethods, d.name) || aliased[d.dir+"."+d.recv] || selected[d.name] ||
			slices.ContainsFunc(ownSelected[d.name], func(dir string) bool { return dir != d.dir }) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// benchOnlyFaults returns, sorted, the bench-only census's convictions:
// (a) every name the census convicts once the benchmark runner is left out
// must be declared in its package's benchcompat.go, and (b) no non-test
// file outside a benchcompat.go may refer to a package-level name declared
// in one.
func benchOnlyFaults(files []srcFile) []string {
	var out []string
	var program []srcFile
	for _, sf := range files {
		if !sf.inBench() {
			program = append(program, sf)
		}
	}
	for _, d := range unreachedDecls(program) {
		if d.file != shimFile {
			out = append(out, fmt.Sprintf("%s alone reaches %s, declared in %s: move it to %s/%s", benchDir, d, d.file, d.dir, shimFile))
		}
	}

	shims := map[string]bool{} // "dir.Name" declared at package level in a benchcompat.go
	for _, sf := range program {
		if sf.test || sf.base != shimFile {
			continue
		}
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					shims[sf.dir+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						shims[sf.dir+"."+s.Name.Name] = true
					case *ast.ValueSpec:
						for _, id := range s.Names {
							shims[sf.dir+"."+id.Name] = true
						}
					}
				}
			}
		}
	}
	for _, sf := range program {
		if sf.test || sf.base == shimFile {
			continue
		}
		walkUses(sf, internalImports(sf.f), func(dir, name string) {
			if shims[dir+"."+name] {
				out = append(out, fmt.Sprintf("%s/%s refers to %s.%s, which only the benchmark may call: it is declared in %s/%s", sf.dir, sf.base, dir, name, dir, shimFile))
			}
		}, func(string) {})
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// internalImports maps the local name of each internal/ package f imports
// to its module-relative directory.
func internalImports(f *ast.File) map[string]string {
	imports := map[string]string{}
	for _, imp := range f.Imports {
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
	return imports
}

// walkUses walks every use in sf: name is a qualified pkg.Name (dir is
// the package's) or a bare Name (dir is sf's own), and sel a method or
// field selector. Declaring identifiers are not uses; a bare name in a
// test file is not reported, as a test reaches its own package's names
// only through the census's own-test rule.
func walkUses(sf srcFile, imports map[string]string, name func(dir, name string), sel func(name string)) {
	var walk func(ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				name(imports[x.Name], n.Sel.Name)
				return false
			}
			sel(n.Sel.Name)
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
				name(sf.dir, n.Name)
			}
		}
		return true
	}
	for _, d := range sf.f.Decls {
		ast.Inspect(d, walk)
	}
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
