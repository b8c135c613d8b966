// Command anytimevet runs the repo's automaton-discipline analyzers
// (internal/analysis): static proofs of the paper's §III invariants —
// single-writer buffers, immutable snapshots, deterministic replay packages
// — plus the serving tier's context threading.
//
// Two modes:
//
//	go run ./cmd/anytimevet ./...           # standalone multichecker
//	go vet -vettool=$(which anytimevet) ./... # unitchecker, driven by cmd/go
//
// Standalone mode loads, type-checks, and analyzes the named packages
// (tests included; -tests=false excludes them) and exits 1 if any
// diagnostic survives its //lint:ignore filter. Vet-tool mode speaks
// cmd/go's unitchecker protocol: -V=full, -flags, and per-package .cfg
// files with pre-built export data. The analyzers are intraprocedural, so
// the protocol's .vetx fact files are written empty and never read.
//
// Each analyzer can be disabled with -<name>=false, or the run restricted
// by setting only some to true (go vet's multichecker convention).
// -format selects the output: text (one finding per line, the problem-
// matcher shape), json (an array document), or sarif (SARIF 2.1.0 for
// code-scanning upload). -audit lists every //lint:ignore suppression with
// its justification and fails on bare ones and on ones naming an analyzer
// the suite does not have.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"strings"

	"anytime/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr *os.File) int {
	// cmd/go probes the tool's identity and flag set before any package.
	if len(args) == 1 {
		switch {
		case strings.HasPrefix(args[0], "-V"):
			fmt.Println("anytimevet version v2 (anytime automaton discipline suite)")
			return 0
		case args[0] == "-flags":
			printFlagDefs(os.Stdout)
			return 0
		}
	}

	fs := flag.NewFlagSet("anytimevet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tests   = fs.Bool("tests", true, "also analyze test files (standalone mode)")
		format  = fs.String("format", "text", "output format: text, json, or sarif")
		jsonOut = fs.Bool("json", false, "emit diagnostics as JSON (alias for -format=json)")
		audit   = fs.Bool("audit", false, "list every //lint:ignore suppression and fail on bare or unknown-analyzer ones")
		_       = fs.Int("c", -1, "(ignored; accepted for cmd/go compatibility)")
		enables = make(map[string]*bool)
	)
	for _, a := range analysis.All() {
		enables[a.Name] = fs.Bool(a.Name, false, "enable only "+a.Name+" (default: all)")
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *jsonOut && *format == "text" {
		*format = "json"
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "anytimevet: unknown -format %q (want text, json, or sarif)\n", *format)
		return 1
	}

	// Multichecker flag convention: explicitly-true flags select a subset;
	// explicitly-false flags subtract from the full suite.
	explicitTrue, explicitFalse := map[string]bool{}, map[string]bool{}
	fs.Visit(func(f *flag.Flag) {
		if _, ok := enables[f.Name]; !ok {
			return
		}
		if f.Value.String() == "true" {
			explicitTrue[f.Name] = true
		} else {
			explicitFalse[f.Name] = true
		}
	})
	var analyzers []*analysis.Analyzer
	for _, a := range analysis.All() {
		if len(explicitTrue) > 0 && !explicitTrue[a.Name] {
			continue
		}
		if explicitFalse[a.Name] {
			continue
		}
		analyzers = append(analyzers, a)
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return unitcheck(rest[0], analyzers, *format, stderr)
	}
	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	if *audit {
		return auditSuppressions(rest, *tests, stderr)
	}
	return standalone(rest, analyzers, *tests, *format, stderr)
}

func standalone(patterns []string, analyzers []*analysis.Analyzer, tests bool, format string, stderr *os.File) int {
	fset := token.NewFileSet()
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "anytimevet:", err)
		return 1
	}
	pkgs, err := analysis.Load(fset, wd, patterns, tests)
	if err != nil {
		fmt.Fprintln(stderr, "anytimevet:", err)
		return 1
	}
	var all []analysis.Diagnostic
	// The same file can be analyzed under its base package and its test
	// variant when both are targets (the loader prevents the common case,
	// but patterns can name both); dedupe on position+analyzer+message.
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		diags, err := analysis.RunPackage(fset, pkg, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "anytimevet: %s: %v\n", pkg.ID, err)
			return 1
		}
		for _, d := range diags {
			key := fmt.Sprintf("%s|%s|%s", fset.Position(d.Pos), d.Analyzer, d.Message)
			if seen[key] {
				continue
			}
			seen[key] = true
			all = append(all, d)
			if format == "text" {
				printDiag(stderr, fset, d)
			}
		}
	}
	emitDocument(fset, analyzers, all, format, wd)
	if len(all) > 0 {
		return 1
	}
	return 0
}

// emitDocument writes the whole-run json/sarif document to stdout; text
// mode already streamed line by line.
func emitDocument(fset *token.FileSet, analyzers []*analysis.Analyzer, diags []analysis.Diagnostic, format, root string) {
	switch format {
	case "json":
		os.Stdout.Write(analysis.FormatJSON(fset, diags))
	case "sarif":
		os.Stdout.Write(analysis.FormatSARIF(fset, analyzers, diags, root))
	}
}

// auditSuppressions loads the tree and prints every lint:ignore directive
// with its justification: the reviewed inventory CI keeps. Bare ignores
// (no justification) and ignores naming an unknown analyzer (they suppress
// nothing) fail the audit.
func auditSuppressions(patterns []string, tests bool, stderr *os.File) int {
	fset := token.NewFileSet()
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "anytimevet:", err)
		return 1
	}
	pkgs, err := analysis.Load(fset, wd, patterns, tests)
	if err != nil {
		fmt.Fprintln(stderr, "anytimevet:", err)
		return 1
	}
	bare, unknown, total := 0, 0, 0
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, s := range analysis.CollectSuppressions(fset, pkg.Files) {
			if seen[s.Posn] {
				continue
			}
			seen[s.Posn] = true
			total++
			if s.Bare() {
				bare++
				fmt.Printf("%s: BARE //lint:ignore %s — justification required\n", s.Posn, s.Analyzer)
				continue
			}
			if s.Unknown() {
				unknown++
				fmt.Printf("%s: UNKNOWN //lint:ignore %s — no such analyzer, nothing is suppressed\n", s.Posn, s.Analyzer)
				continue
			}
			fmt.Printf("%s: //lint:ignore %s — %s\n", s.Posn, s.Analyzer, s.Justification)
		}
	}
	fmt.Printf("anytimevet audit: %d suppression(s), %d bare, %d unknown\n", total, bare, unknown)
	if bare+unknown > 0 {
		return 1
	}
	return 0
}

func printDiag(stderr *os.File, fset *token.FileSet, d analysis.Diagnostic) {
	fmt.Fprintf(stderr, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
}

// printFlagDefs answers cmd/go's -flags probe: a JSON array describing the
// flags a `go vet -vettool` invocation may pass through.
func printFlagDefs(w io.Writer) {
	type flagDef struct {
		Name  string `json:"Name"`
		Bool  bool   `json:"Bool"`
		Usage string `json:"Usage"`
	}
	defs := []flagDef{{Name: "tests", Bool: true, Usage: "analyze test files"}}
	for _, a := range analysis.All() {
		defs = append(defs, flagDef{Name: a.Name, Bool: true, Usage: a.Doc})
	}
	fmt.Fprint(w, "[")
	for i, d := range defs {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "{\"Name\":%q,\"Bool\":%v,\"Usage\":%q}", d.Name, d.Bool, d.Usage)
	}
	fmt.Fprintln(w, "]")
}
