package analysis

// format.go renders a run's diagnostics as machine-readable documents: a
// JSON array for scripting and SARIF 2.1.0 for code-scanning UIs (GitHub
// uploads a SARIF artifact and annotates the PR inline). Both formats are
// whole-document — the driver collects every diagnostic first — because
// SARIF has no streaming form and CI consumes the file atomically.

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"strings"
)

// JSONDiagnostic is one finding in -format=json output.
type JSONDiagnostic struct {
	Posn     string `json:"posn"` // file:line:col
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// FormatJSON renders diagnostics as an indented JSON array (empty slice,
// not null, when clean — consumers index without a nil check).
func FormatJSON(fset *token.FileSet, diags []Diagnostic) []byte {
	out := make([]JSONDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, JSONDiagnostic{
			Posn:     fset.Position(d.Pos).String(),
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return []byte("[]")
	}
	return append(data, '\n')
}

// sarif* mirror the minimal subset of the SARIF 2.1.0 schema that GitHub
// code scanning consumes: one run, one driver, rules keyed by analyzer
// name, results with a physical location each.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// FormatSARIF renders diagnostics as a SARIF 2.1.0 log. Every analyzer in
// the run is listed as a rule (so a clean run still documents what was
// checked); file paths are made repo-relative against root when possible,
// which is what GitHub's upload action expects.
func FormatSARIF(fset *token.FileSet, analyzers []*Analyzer, diags []Diagnostic, root string) []byte {
	driver := sarifDriver{
		Name:           "anytimevet",
		InformationURI: "https://example.invalid/anytime/cmd/anytimevet",
	}
	for _, a := range analyzers {
		driver.Rules = append(driver.Rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: a.Doc},
		})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		uri := pos.Filename
		if root != "" {
			if rel, ok := strings.CutPrefix(uri, strings.TrimSuffix(root, "/")+"/"); ok {
				uri = rel
			}
		}
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: uri},
					Region:           sarifRegion{StartLine: pos.Line, StartColumn: pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: driver}, Results: results}},
	}
	data, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return nil
	}
	return append(data, '\n')
}

// Suppression is one //lint:ignore directive found in a tree: where, which
// analyzer it silences, and the justification (empty = bare, a finding in
// itself, as is an analyzer the suite does not have). The CI
// suppression-audit step prints every suppression and fails on those two
// kinds, so the ignore inventory stays reviewed.
type Suppression struct {
	Posn          string `json:"posn"`
	Analyzer      string `json:"analyzer"`
	Justification string `json:"justification"`
}

// Bare reports whether the suppression lacks a justification.
func (s Suppression) Bare() bool { return strings.TrimSpace(s.Justification) == "" }

// Unknown reports whether the suppression names no analyzer of the suite,
// and so silences nothing.
func (s Suppression) Unknown() bool { return !knownAnalyzer(s.Analyzer) }

// CollectSuppressions scans the files' comments for every lint:ignore
// directive, in source order.
func CollectSuppressions(fset *token.FileSet, files []*ast.File) []Suppression {
	var out []Suppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, strings.TrimSuffix(ignorePrefix, " "))
				if !ok {
					continue
				}
				name, reason, _ := strings.Cut(strings.TrimSpace(text), " ")
				out = append(out, Suppression{
					Posn:          fset.Position(c.Pos()).String(),
					Analyzer:      name,
					Justification: strings.TrimSpace(reason),
				})
			}
		}
	}
	return out
}
