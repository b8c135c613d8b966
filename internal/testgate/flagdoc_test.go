package testgate

// The operator's handbook gives each serving binary's flags one table.
// Each table is diffed against the flag.* calls in its binary's main.go,
// both ways: a removed flag's row cannot stay behind, and a new flag
// cannot go undocumented.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// flagTables names each binary and the heading its table follows in
// docs/OPERATIONS.md: the first table after the heading is the binary's.
var flagTables = []struct{ bin, heading string }{
	{"anytimed", "### Flags"},
	{"anytimerouter", "### Router flags"},
	{"anytimeload", "### Load-testing a topology"},
}

func TestOperationsFlagTables(t *testing.T) {
	root := filepath.Join("..", "..")
	doc, err := os.ReadFile(filepath.Join(root, "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ft := range flagTables {
		defined, err := definedFlags(filepath.Join(root, "cmd", ft.bin, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(defined) == 0 {
			t.Fatalf("%s: no flag.* definitions found", ft.bin)
		}
		documented, err := documentedFlags(string(doc), ft.heading)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range flagDiff(ft.bin, defined, documented) {
			t.Error(d)
		}
	}
}

// TestOperationsFlagTablesPlants: a stale row and a missing row in a
// planted table are both convicted, and the unplanted table is not.
func TestOperationsFlagTablesPlants(t *testing.T) {
	const doc = "## Other\n\n| Flag | Default | Meaning |\n|---|---|---|\n| `-other` | `1` | x |\n\n" +
		"### Flags\n\nText.\n\n| Flag | Default | Meaning |\n|---|---|---|\n" +
		"| `-addr` | `:8080` | Listen address. |\n| `-cache-size` | `64` | Stale. |\n\nAfter.\n\n| `-later` | | |\n"
	documented, err := documentedFlags(doc, "### Flags")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"addr", "cache-size"}; !slices.Equal(documented, want) {
		t.Fatalf("table parsed as %v, want %v", documented, want)
	}
	got := flagDiff("anytimed", []string{"addr", "slots"}, documented)
	want := []string{
		"anytimed: -slots is defined but docs/OPERATIONS.md's table does not list it",
		"anytimed: docs/OPERATIONS.md's table lists -cache-size, which the binary does not define",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("diff = %q, want %q", got, want)
	}
	if d := flagDiff("anytimed", []string{"addr", "cache-size"}, documented); len(d) != 0 {
		t.Fatalf("matching table convicted: %q", d)
	}

	src := `package main

import "flag"

func main() {
	a := flag.String("addr", ":1", "")
	var n int
	flag.IntVar(&n, "slots", 8, "")
	flag.Parse()
	_ = a
}
`
	path := filepath.Join(t.TempDir(), "main.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	defined, err := definedFlags(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"addr", "slots"}; !slices.Equal(defined, want) {
		t.Fatalf("flags defined = %v, want %v", defined, want)
	}
}

// definedFlags returns the names of the flags main.go at path defines
// through the flag package's functions, sorted.
func definedFlags(path string) ([]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		return nil, err
	}
	pkg := importName(f, "flag")
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := pkgCall(call, pkg)
		if !ok {
			return true
		}
		arg := 0 // flag.String(name, …); flag.StringVar(&v, name, …)
		if strings.HasSuffix(fn, "Var") {
			arg = 1
		}
		if len(call.Args) <= arg {
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names = append(names, name)
			}
		}
		return true
	})
	slices.Sort(names)
	return names, nil
}

var flagRow = regexp.MustCompile("^\\| `-([a-z0-9-]+)` \\|")

// documentedFlags returns the flag names in the first table after heading,
// sorted.
func documentedFlags(doc, heading string) ([]string, error) {
	i := strings.Index(doc, "\n"+heading+"\n")
	if i < 0 {
		return nil, fmt.Errorf("docs/OPERATIONS.md: heading %q not found", heading)
	}
	var names []string
	inTable := false
	for _, line := range strings.Split(doc[i+len(heading)+2:], "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		if m := flagRow.FindStringSubmatch(line); m != nil {
			names = append(names, m[1])
		}
	}
	slices.Sort(names)
	return names, nil
}

// flagDiff reports each flag bin defines that the table does not list, then
// each row that names a flag bin does not define.
func flagDiff(bin string, defined, documented []string) []string {
	var out []string
	for _, name := range defined {
		if !slices.Contains(documented, name) {
			out = append(out, fmt.Sprintf("%s: -%s is defined but docs/OPERATIONS.md's table does not list it", bin, name))
		}
	}
	for _, name := range documented {
		if !slices.Contains(defined, name) {
			out = append(out, fmt.Sprintf("%s: docs/OPERATIONS.md's table lists -%s, which the binary does not define", bin, name))
		}
	}
	return out
}
