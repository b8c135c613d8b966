package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// provenance says where and on what a result was measured.
type provenance struct {
	// Commit is empty when the tree is dirty or is not a git checkout: a
	// result must not carry the name of code it was not measured on.
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Date       string  `json:"date"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Short      bool    `json:"short"`
}

func gatherProvenance(o options) provenance {
	p := provenance{
		Date:       time.Now().UTC().Format(time.RFC3339),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Short:      o.short,
	}
	p.Commit, p.Dirty = gitState()
	return p
}

// gitState reports HEAD and whether the working tree differs from it. Outside
// a git checkout (the acceptance driver's copy is one) both are zero.
func gitState() (commit string, dirty bool) {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "", false
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	if err != nil || len(strings.TrimSpace(string(status))) > 0 {
		return "", true
	}
	return strings.TrimSpace(string(head)), false
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
