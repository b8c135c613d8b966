package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// devNull gives the runs under test a sink for their diagnostics so the
// test log stays readable.
func devNull(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestProbes covers the two queries cmd/go issues before handing over any
// package: the version string and the flag definitions, which are `tests`
// plus exactly the three analyzers.
func TestProbes(t *testing.T) {
	if got := run([]string{"-V=full"}, devNull(t)); got != 0 {
		t.Errorf("-V=full exited %d, want 0", got)
	}
	if got := run([]string{"-flags"}, devNull(t)); got != 0 {
		t.Errorf("-flags exited %d, want 0", got)
	}
	var out bytes.Buffer
	printFlagDefs(&out)
	var defs []struct{ Name string }
	if err := json.Unmarshal(out.Bytes(), &defs); err != nil {
		t.Fatalf("-flags output is not JSON: %v\n%s", err, out.String())
	}
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	if want := []string{"tests", "singlewriter", "snapshotmut", "ctxflow"}; !slices.Equal(names, want) {
		t.Errorf("-flags lists %v, want %v", names, want)
	}
}

// writeCfg materializes a unitchecker config for a single-file package with
// no imports (so no export data is needed) and returns the cfg path and the
// vetx path cmd/go would expect to appear.
func writeCfg(t *testing.T, src string, vetxOnly bool) (cfgPath, vetxPath string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	vetxPath = filepath.Join(dir, "p.vetx")
	cfg := vetConfig{
		ID:         "p",
		Compiler:   "gc",
		Dir:        dir,
		ImportPath: "p",
		GoFiles:    []string{"p.go"},
		VetxOnly:   vetxOnly,
		VetxOutput: vetxPath,
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath = filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return cfgPath, vetxPath
}

// bufferSrc stands in for core.Buffer: singlewriter matches the type and
// method by name, so the snippets need no imports.
const bufferSrc = `package p

type Buffer[T any] struct{ cur T }

func (b *Buffer[T]) Publish(v T, final bool) { b.cur = v }
`

// dirtySrc publishes to one buffer from the spawning goroutine and a
// spawned one — the singlewriter fixture's first case.
const dirtySrc = bufferSrc + `
func twoWriters() {
	buf := &Buffer[int]{}
	done := make(chan struct{})
	go func() {
		buf.Publish(1, false)
		close(done)
	}()
	<-done
	buf.Publish(2, true)
}
`

const cleanSrc = bufferSrc + `
func oneWriter() {
	buf := &Buffer[int]{}
	done := make(chan struct{})
	go func() {
		buf.Publish(1, true)
		close(done)
	}()
	<-done
}
`

// TestUnitcheckConvicts drives the full vettool path on a planted
// singlewriter violation: exit code 2 (the vet diagnostics convention) and a vetx file
// written for the build cache.
func TestUnitcheckConvicts(t *testing.T) {
	cfgPath, vetxPath := writeCfg(t, dirtySrc, false)
	if got := run([]string{cfgPath}, devNull(t)); got != 2 {
		t.Errorf("dirty package exited %d, want 2", got)
	}
	if _, err := os.Stat(vetxPath); err != nil {
		t.Errorf("vetx output not written: %v", err)
	}
}

// TestUnitcheckClean passes a guarded package through the same path.
func TestUnitcheckClean(t *testing.T) {
	cfgPath, vetxPath := writeCfg(t, cleanSrc, false)
	if got := run([]string{cfgPath}, devNull(t)); got != 0 {
		t.Errorf("clean package exited %d, want 0", got)
	}
	if _, err := os.Stat(vetxPath); err != nil {
		t.Errorf("vetx output not written: %v", err)
	}
}

// TestUnitcheckVetxOnly: when cmd/go only needs facts for a dependency, the
// tool must write the (empty) vetx file and stay silent even about
// violations.
func TestUnitcheckVetxOnly(t *testing.T) {
	cfgPath, vetxPath := writeCfg(t, dirtySrc, true)
	if got := run([]string{cfgPath}, devNull(t)); got != 0 {
		t.Errorf("VetxOnly exited %d, want 0", got)
	}
	if fi, err := os.Stat(vetxPath); err != nil || fi.Size() != 0 {
		t.Errorf("vetx output not written empty: %v, %v", fi, err)
	}
}

// TestAnalyzerSelection: disabling singlewriter must let the dirty package
// pass, and selecting only an unrelated analyzer must too; each of the three
// analyzers is a flag, and the four deleted ones are refused as unknown.
func TestAnalyzerSelection(t *testing.T) {
	for name, want := range map[string]int{
		"singlewriter": 2, "snapshotmut": 0, "ctxflow": 0,
		"goroleak": 1, "hotalloc": 1, "budgetflow": 1, "detnondet": 1,
	} {
		cfgPath, _ := writeCfg(t, dirtySrc, false)
		if got := run([]string{"-" + name, cfgPath}, devNull(t)); got != want {
			t.Errorf("-%s exited %d, want %d", name, got, want)
		}
	}
	cfgPath, _ := writeCfg(t, dirtySrc, false)
	if got := run([]string{"-singlewriter=false", cfgPath}, devNull(t)); got != 0 {
		t.Errorf("-singlewriter=false exited %d, want 0", got)
	}
}
