package main

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"

	"anytime/internal/analysis"
)

// vetConfig is the per-package configuration file cmd/go hands a
// -vettool: the package's sources plus pre-built export data for every
// dependency. The field set mirrors x/tools' unitchecker.Config (the
// protocol is defined by cmd/go, not by x/tools).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes one package under cmd/go's vet protocol. Exit codes
// follow the vet convention: 0 clean, 1 tool failure, 2 diagnostics.
//
// The analyzers keep no cross-package facts, so the protocol's vetx channel
// is satisfied with an empty VetxOutput and PackageVetx is never read.
// VetxOnly packages (dependencies cmd/go runs the tool on purely for their
// facts) are done once that file exists.
func unitcheck(cfgFile string, analyzers []*analysis.Analyzer, format string, stderr *os.File) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(stderr, "anytimevet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "anytimevet: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	// cmd/go requires the facts ("vetx") output to exist; written first, it
	// satisfies the build cache on every exit below.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(stderr, "anytimevet:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	if cfg.Compiler != "" && cfg.Compiler != "gc" {
		fmt.Fprintf(stderr, "anytimevet: unsupported compiler %q\n", cfg.Compiler)
		return 1
	}

	fset := token.NewFileSet()
	files, err := analysis.ParseFiles(fset, cfg.Dir, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(stderr, "anytimevet:", err)
		return 1
	}
	pkg, err := analysis.CheckFiles(fset, cfg.ImportPath, cfg.GoVersion, files, cfg.PackageFile, cfg.ImportMap)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(stderr, "anytimevet: type-checking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	diags, err := analysis.RunPackage(fset, pkg, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "anytimevet: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	if format == "text" {
		for _, d := range diags {
			printDiag(stderr, fset, d)
		}
	} else {
		emitDocument(fset, analyzers, diags, format, cfg.Dir)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
