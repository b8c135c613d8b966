package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// ignoreDirective is the suppression marker: a comment of the form
//
//	//lint:ignore <analyzer> <one-line justification>
//
// on the flagged line or the line immediately above it silences that
// analyzer there. The justification is mandatory — a bare ignore is itself
// reported — so every suppression in the tree documents why the convicted
// pattern is intentional (the conformance self-tests plant violations on
// purpose, for example). So is a directive naming an analyzer the suite
// does not have ("*" aside): it suppresses nothing, and left alone it would
// read as a reviewed suppression long after its analyzer was deleted.
const ignorePrefix = "//lint:ignore "

// ignoreIndex records, per file line, which analyzers are suppressed.
type ignoreIndex struct {
	fset *token.FileSet
	// byLine maps filename → line → analyzer names suppressed there
	// ("*" suppresses all).
	byLine map[string]map[int][]string
	// malformed collects ignore directives missing a justification or
	// naming an unknown analyzer.
	malformed []Diagnostic
}

// buildIgnoreIndex scans the files' comments for ignore directives. A
// directive covers its own line and the line below it (the usual
// line-above placement).
func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) *ignoreIndex {
	idx := &ignoreIndex{fset: fset, byLine: make(map[string]map[int][]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, ignorePrefix)
				if !ok {
					continue
				}
				name, reason, _ := strings.Cut(strings.TrimSpace(text), " ")
				if name == "" || strings.TrimSpace(reason) == "" {
					idx.malformed = append(idx.malformed, Diagnostic{
						Pos:      c.Pos(),
						Message:  "lint:ignore directive needs an analyzer name and a justification",
						Analyzer: "ignore",
					})
					continue
				}
				if !knownAnalyzer(name) {
					idx.malformed = append(idx.malformed, Diagnostic{
						Pos:      c.Pos(),
						Message:  fmt.Sprintf("lint:ignore names unknown analyzer %q: it suppresses nothing", name),
						Analyzer: "ignore",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				lines := idx.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					idx.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], name)
				lines[pos.Line+1] = append(lines[pos.Line+1], name)
			}
		}
	}
	return idx
}

// knownAnalyzer reports whether a directive may name name: a suite
// analyzer, or "*" for all of them.
func knownAnalyzer(name string) bool {
	return name == "*" || ByName(name) != nil
}

// suppressed reports whether d is covered by an ignore directive.
func (idx *ignoreIndex) suppressed(d Diagnostic) bool {
	pos := idx.fset.Position(d.Pos)
	for _, name := range idx.byLine[pos.Filename][pos.Line] {
		if name == d.Analyzer || name == "*" {
			return true
		}
	}
	return false
}

// RunPackage executes the analyzers over pkg, applying ignore directives,
// and returns the surviving diagnostics in source order.
func RunPackage(fset *token.FileSet, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	idx := buildIgnoreIndex(fset, pkg.Files)
	diags := append([]Diagnostic(nil), idx.malformed...)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		pass.Report = func(d Diagnostic) {
			d.Analyzer = a.Name
			if !idx.suppressed(d) {
				diags = append(diags, d)
			}
		}
		if _, err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	sortDiagnostics(fset, diags)
	return diags, nil
}
