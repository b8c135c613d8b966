package daemon

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"anytime/internal/serve"
)

// getWithBudget is get() plus the router's budget header.
func getWithBudget(t *testing.T, s *Server, path, budget string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if budget != "" {
		req.Header.Set(serve.BudgetHeader, budget)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestBudgetCapsDeadline is the regression for the fleet's core invariant:
// a backend never runs longer than the budget it was handed. The client
// asks for a 5-second deadline but the router's budget says 30ms — the
// response must come back on the budget's clock (±one automaton round),
// not the deadline's.
func TestBudgetCapsDeadline(t *testing.T) {
	s := testServer(t)
	start := time.Now()
	rec := getWithBudget(t, s, "/blur?deadline=5s", "30ms")
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	// The effective deadline the server granted is the budget, not the
	// requested deadline.
	eff, err := time.ParseDuration(rec.Header().Get("X-Anytime-Effective-Deadline"))
	if err != nil || eff > 30*time.Millisecond {
		t.Fatalf("effective deadline %q, want <= 30ms", rec.Header().Get("X-Anytime-Effective-Deadline"))
	}
	// Wall time: budget plus generous slack for one automaton round and
	// scheduler noise — nowhere near the 5s deadline.
	if elapsed > 2*time.Second {
		t.Fatalf("budgeted request ran %v against a 30ms budget", elapsed)
	}
	// The contract still holds: a snapshot was delivered.
	if v := rec.Header().Get("X-Anytime-Version"); v == "" || v == "0" {
		t.Fatalf("version %q, want >= 1", v)
	}
	// The granted budget is echoed for observability.
	if rec.Header().Get(serve.BudgetHeader) != "30ms" {
		t.Errorf("budget echo %q, want 30ms", rec.Header().Get(serve.BudgetHeader))
	}
}

// TestBudgetExhaustedStillDelivers: a zero budget (the fleet spent the
// whole deadline) degrades to best-effort minimum — one snapshot, never an
// empty response.
func TestBudgetExhaustedStillDelivers(t *testing.T) {
	s := testServer(t)
	rec := getWithBudget(t, s, "/blur?deadline=1s", "0s")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if v := rec.Header().Get("X-Anytime-Version"); v == "" || v == "0" {
		t.Fatalf("version %q, want >= 1 even with an exhausted budget", v)
	}
}

// TestBudgetIgnoredOutsideDeadline: precise requests never consult
// the budget header — only the deadline knob participates in the fleet
// budget protocol.
func TestBudgetIgnoredOutsideDeadline(t *testing.T) {
	s := testServer(t)
	rec := getWithBudget(t, s, "/blur", "1ns")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Anytime-Final") != "true" {
		t.Fatalf("precise request with budget header: %d final=%q", rec.Code, rec.Header().Get("X-Anytime-Final"))
	}
	if rec.Header().Get(serve.BudgetHeader) != "" {
		t.Error("precise response echoed a budget")
	}
}

// TestBudgetAboveDeadlineNotEchoed: a budget looser than the deadline
// doesn't change the contract and isn't echoed as if it had.
func TestBudgetAboveDeadlineNotEchoed(t *testing.T) {
	s := testServer(t)
	rec := getWithBudget(t, s, "/blur?deadline=20ms", "10s")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get(serve.BudgetHeader); got != "" {
		t.Errorf("uncapping budget echoed as %q", got)
	}
}

// TestBudgetMalformedRejected: garbage in the header is a 400, same as a
// garbage knob.
func TestBudgetMalformedRejected(t *testing.T) {
	s := testServer(t)
	rec := getWithBudget(t, s, "/blur?deadline=20ms", "not-a-duration")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed budget: status %d", rec.Code)
	}
}

// TestDrainLifecycle: POST /drain flips healthz to 503 "draining" (what a
// router's checker keys on), requests still serve (with the draining
// marker), and DELETE /drain restores service.
func TestDrainLifecycle(t *testing.T) {
	s := testServer(t)
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", rec.Code)
	}

	req := httptest.NewRequest(http.MethodPost, "/drain", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("POST /drain: %d %q", rec.Code, rec.Body.String())
	}

	rec = get(t, s, "/healthz")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("healthz while draining: %d %q", rec.Code, rec.Body.String())
	}

	// The last requests still serve — the contract holds to the end — and
	// carry the draining marker.
	rec = get(t, s, "/blur?deadline=30ms")
	if rec.Code != http.StatusOK {
		t.Fatalf("request while draining: %d", rec.Code)
	}
	if rec.Header().Get("X-Anytime-Draining") != "true" {
		t.Error("draining response not marked")
	}

	req = httptest.NewRequest(http.MethodDelete, "/drain", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "serving") {
		t.Fatalf("DELETE /drain: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz after rejoin: %d", rec.Code)
	}
	rec = get(t, s, "/blur?deadline=30ms")
	if rec.Header().Get("X-Anytime-Draining") != "" {
		t.Error("rejoined response still marked draining")
	}
}

// TestBudgetTraced: a budgeted request's trace carries the budget span, so
// /debug/requests shows the fleet's arithmetic next to the local spans.
func TestBudgetTraced(t *testing.T) {
	s := testServer(t)
	rec := getWithBudget(t, s, "/blur?deadline=1s", "25ms")
	id := rec.Header().Get("X-Anytime-Trace")
	if id == "" {
		t.Fatal("no trace ID")
	}
	detail := get(t, s, "/debug/requests?id="+id)
	if detail.Code == http.StatusOK && !strings.Contains(detail.Body.String(), "budget") {
		t.Errorf("trace detail missing budget span:\n%s", detail.Body.String())
	}
}
