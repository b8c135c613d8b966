package daemon

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"anytime/internal/serve"
)

// knobs are one request's stopping controls. At most one is set.
type knobs struct {
	// deadline is the serving contract: the best published snapshot when
	// the deadline, counted from arrival, fires; never empty-handed.
	deadline time.Duration
	// accept stops at the first output reaching this SNR (dB).
	accept float64
	// budget is the remaining deadline budget a routing tier handed this
	// backend (serve.BudgetHeader); budgetSet reports whether the header
	// was present. It caps the deadline knob and is ignored by the
	// precise/accept paths — zero-deadline precise requests are never
	// budgeted.
	budget    time.Duration
	budgetSet bool
}

// knobCap bounds the deadline knob so a stray client cannot park on an
// execution slot indefinitely.
const knobCap = 10 * time.Second

// parseKnobs extracts the deadline/accept stopping knobs from a request,
// plus the router-propagated deadline budget header. The removed hold knob
// is refused by name: falling through to a precise run would silently
// change what the client asked for.
func parseKnobs(r *http.Request) (knobs, error) {
	var k knobs
	var err error
	q := r.URL.Query()
	if q.Has("hold") {
		return knobs{}, fmt.Errorf("the hold knob was removed: use deadline (never empty-handed, never 504)")
	}
	if d := q.Get("deadline"); d != "" {
		k.deadline, err = time.ParseDuration(d)
		if err != nil || k.deadline <= 0 {
			return knobs{}, fmt.Errorf("bad deadline %q", d)
		}
	}
	if a := q.Get("accept"); a != "" {
		k.accept, err = strconv.ParseFloat(a, 64)
		if err != nil || !(k.accept > 0) { // NaN parses, and must not fall through to a precise run
			return knobs{}, fmt.Errorf("bad accept threshold %q", a)
		}
	}
	if k.deadline > 0 && k.accept > 0 {
		return knobs{}, fmt.Errorf("deadline and accept are mutually exclusive")
	}
	if k.deadline > knobCap {
		return knobs{}, fmt.Errorf("deadline capped at %v", knobCap)
	}
	if k.budget, k.budgetSet, err = serve.ParseBudget(r.Header.Get(serve.BudgetHeader)); err != nil {
		return knobs{}, err
	}
	return k, nil
}
