package daemon

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"anytime/internal/serve"
)

// FuzzParseKnobs hardens the request's outside input — the query string and
// the router's budget header: parsing never panics; an accepted request
// sets at most one stopping knob, within knobCap; and whatever parseKnobs
// refuses, the handler answers with a 400 before admitting the request.
func FuzzParseKnobs(f *testing.F) {
	f.Add("", "")
	f.Add("deadline=50ms", "37ms")
	f.Add("accept=25", "")
	f.Add("hold=5ms", "")
	f.Add("deadline=11s", "")
	f.Add("accept=-1", "")
	f.Add("accept=NaN", "")
	f.Add("deadline=5ms&accept=10", "0s")
	f.Add("deadline=5ms", "soon")
	f.Add("deadline=1e3s&;%zz", "-4ms")
	s := testServer(f)
	f.Fuzz(func(t *testing.T, query, budget string) {
		r := httptest.NewRequest(http.MethodGet, "/blur", nil)
		r.URL.RawQuery = query
		if budget != "" {
			r.Header.Set(serve.BudgetHeader, budget)
		}
		k, err := parseKnobs(r)
		if err != nil {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, r)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("parseKnobs refused %q / %q (%v) but the handler answered %d", query, budget, err, rec.Code)
			}
			return
		}
		if k.deadline > 0 && k.accept > 0 {
			t.Fatalf("%q set both knobs: %+v", query, k)
		}
		if k.deadline < 0 || k.deadline > knobCap || !(k.accept >= 0) {
			t.Fatalf("%q parsed out of range: %+v", query, k)
		}
		if r.URL.Query().Has("hold") {
			t.Fatalf("%q carries the removed hold knob and was accepted: %+v", query, k)
		}
	})
}
