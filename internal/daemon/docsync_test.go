package daemon

import (
	"bufio"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var metricToken = regexp.MustCompile(`anytimed?_[a-z_]+`)

// liveServer drives a server through the traffic that registers every
// family anytimed can expose: a precise request, a deadline request, an
// interrupted deadline run (a delivered approximation), and a refusal with
// the single slot held.
//
// A run this small can finish before a 1ns timer is seen on a loaded
// machine, so the interrupted run is retried until one delivers an
// approximation.
func liveServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(64, 2, Config{Slots: 1, QueueLen: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/blur", "/blur?deadline=2s"} {
		if rec := get(t, s, path); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body.String())
		}
	}
	for try := 0; ; try++ {
		if try == 47 {
			t.Fatal("no 1ns deadline run delivered an approximation")
		}
		const path = "/blur?deadline=1ns"
		rec := get(t, s, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body.String())
		}
		if rec.Header().Get("X-Anytime-Final") == "false" {
			break
		}
	}
	if err := s.queue.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rec := get(t, s, "/blur"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request with the slot held: %d, want 503", rec.Code)
	}
	s.queue.Release()
	return s
}

// liveFamilies returns the family names s's /metrics lists.
func liveFamilies(t *testing.T, s *Server) map[string]bool {
	t.Helper()
	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	live := map[string]bool{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[1] == "TYPE" {
			live[f[2]] = true
		}
	}
	return live
}

// documentedFamilies returns the family names README's anytimed metrics
// table lists, between the metrics:begin/end markers.
func documentedFamilies(t *testing.T) map[string]bool {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- metrics:begin -->", "<!-- metrics:end -->"
	text := string(readme)
	i, j := strings.Index(text, begin), strings.Index(text, end)
	if i < 0 || j < i {
		t.Fatalf("README.md: markers %q/%q not found", begin, end)
	}
	documented := map[string]bool{}
	for _, name := range metricToken.FindAllString(text[i+len(begin):j], -1) {
		documented[name] = true
	}
	return documented
}

// TestMetricsTableMatchesRegistry is the doc-sync test: the live registry
// is the metric inventory. The family set /metrics exposes after
// liveServer's traffic must equal README's anytimed table in both
// directions.
func TestMetricsTableMatchesRegistry(t *testing.T) {
	live := liveFamilies(t, liveServer(t))
	documented := documentedFamilies(t)
	for _, fam := range slices.Sorted(maps.Keys(live)) {
		if !documented[fam] {
			t.Errorf("README metrics table is missing %s", fam)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(documented)) {
		if !live[name] {
			t.Errorf("README metrics table lists %s, which /metrics does not expose", name)
		}
	}
}

// TestOperationsCoversAllFamilies asserts the operator's handbook
// mentions every family a live server exposes. (The reverse check is
// README-only: OPERATIONS.md also documents the router's own
// anytime_router_* families and the library-only stream families.)
func TestOperationsCoversAllFamilies(t *testing.T) {
	live := liveFamilies(t, liveServer(t))
	ops, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range slices.Sorted(maps.Keys(live)) {
		if !strings.Contains(string(ops), fam) {
			t.Errorf("docs/OPERATIONS.md does not document %s", fam)
		}
	}
}

// TestDebugVarsWithinInventory asserts /debug/vars, the expvar view of
// the registry, exposes exactly the families /metrics does after the same
// traffic, each of them documented in README's table, the families only
// an approximate delivery and a refusal register among them.
func TestDebugVarsWithinInventory(t *testing.T) {
	s := liveServer(t)
	rec := get(t, s, "/debug/vars")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/vars: %d", rec.Code)
	}
	var vars struct {
		Anytime map[string]json.RawMessage `json:"anytime"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("decoding /debug/vars: %v", err)
	}
	if len(vars.Anytime) == 0 {
		t.Fatal("/debug/vars exposed no registry families")
	}
	live := liveFamilies(t, s)
	documented := documentedFamilies(t)
	for _, fam := range slices.Sorted(maps.Keys(vars.Anytime)) {
		if !live[fam] {
			t.Errorf("/debug/vars exposes %s, which /metrics does not", fam)
		}
		if !documented[fam] {
			t.Errorf("/debug/vars exposes %s, which README's metrics table does not list", fam)
		}
	}
	for _, fam := range slices.Sorted(maps.Keys(live)) {
		if _, ok := vars.Anytime[fam]; !ok {
			t.Errorf("/metrics exposes %s, which /debug/vars does not", fam)
		}
	}
	for _, fam := range []string{metricDeliveredSNR, metricSlotsRejected} {
		if _, ok := vars.Anytime[fam]; !ok {
			t.Errorf("expected %s to be live after liveServer's traffic", fam)
		}
	}
}
