package reqtrace

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"anytime/internal/core"
	"anytime/internal/trace"
)

// View is a trace's JSON shape — the /debug/requests.json payload tooling
// joins against load-test output by ID.
type View struct {
	ID       string        `json:"id"`
	Route    string        `json:"route"`
	Category Category      `json:"category"`
	Status   int           `json:"status,omitempty"`
	Start    time.Time     `json:"start"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	Events   []Event       `json:"events"`
}

// View returns the trace's exported shape. Safe on nil (zero View).
func (t *Trace) View() View {
	if t == nil {
		return View{}
	}
	return View{
		ID:       t.ID(),
		Route:    t.Route(),
		Category: t.Category(),
		Status:   t.Status(),
		Start:    t.Start(),
		Elapsed:  t.Elapsed(),
		Events:   t.Events(),
	}
}

// MarshalJSON renders the trace as its View.
func (t *Trace) MarshalJSON() ([]byte, error) { return json.Marshal(t.View()) }

// WriteList renders a one-line-per-trace summary table: ID, category,
// route, status, elapsed, publish count, and the delivered snapshot (or the
// terminal event when nothing was delivered). This is the /debug/requests
// index view.
func WriteList(w io.Writer, traces []*Trace) error {
	if len(traces) == 0 {
		_, err := fmt.Fprintln(w, "(no traces recorded)")
		return err
	}
	if _, err := fmt.Fprintf(w, "%-32s  %-13s  %-10s  %-4s  %-10s  %-9s  %s\n",
		"ID", "CATEGORY", "ROUTE", "CODE", "ELAPSED", "PUBLISHES", "DELIVERED"); err != nil {
		return err
	}
	for _, t := range traces {
		v := t.View()
		publishes := 0
		delivered := "-"
		for _, e := range v.Events {
			switch e.Kind {
			case KindPublish:
				publishes++
			case KindDeliver:
				delivered = fmt.Sprintf("v%d", e.Version)
				if e.Flag {
					delivered += " final"
				} else if e.Val > 0 {
					delivered += fmt.Sprintf(" %.1fdB", e.Val)
				}
			case KindQueueReject:
				if delivered == "-" {
					delivered = "rejected"
				}
			case KindError:
				if delivered == "-" {
					delivered = "error"
				}
			}
		}
		if _, err := fmt.Fprintf(w, "%-32s  %-13s  %-10s  %-4d  %-10s  %-9d  %s\n",
			v.ID, v.Category, v.Route, v.Status, v.Elapsed.Round(time.Microsecond), publishes, delivered); err != nil {
			return err
		}
	}
	return nil
}

// WriteDetail renders one trace in full: a header line, the span tree (one
// line per event, indented by phase), and — when the trace saw publishes —
// the publish timeline in internal/trace's Figure 2 ASCII layout, so a
// single request's accuracy ramp reads exactly like the paper's.
func (t *Trace) WriteDetail(w io.Writer, width int) error {
	v := t.View()
	if v.ID == "" {
		_, err := fmt.Fprintln(w, "(no trace)")
		return err
	}
	if _, err := fmt.Fprintf(w, "trace %s  route=%s  category=%s  status=%d  elapsed=%v  start=%s\n",
		v.ID, v.Route, v.Category, v.Status, v.Elapsed.Round(time.Microsecond),
		v.Start.Format(time.RFC3339Nano)); err != nil {
		return err
	}
	var publishes []trace.Event
	for _, e := range v.Events {
		if _, err := fmt.Fprintf(w, "  %10v  %s%s\n",
			e.At.Round(time.Microsecond), indentFor(e.Kind), describe(e)); err != nil {
			return err
		}
		if e.Kind == KindPublish {
			publishes = append(publishes, trace.Event{
				Buffer:  e.Name,
				At:      e.At,
				Version: core.Version(e.Version),
				Final:   e.Flag,
			})
		}
	}
	if len(publishes) > 0 {
		if _, err := fmt.Fprint(w, "publish "); err != nil {
			return err
		}
		return trace.RenderTimeline(w, publishes, width)
	}
	return nil
}

// indentFor nests the span tree: queue/pool/delivery events at request
// level, run lifecycle one level in, publishes (which happen inside the
// run) two levels in.
func indentFor(k Kind) string {
	switch k {
	case KindRunStart, KindRunFinish, KindDeadline, KindReset:
		return "  "
	case KindPublish:
		return "    "
	default:
		return ""
	}
}

// describe renders one event's kind-specific fields as key=value text.
func describe(e Event) string {
	switch e.Kind {
	case KindQueueEnter:
		return fmt.Sprintf("queue.enter depth=%d", e.N)
	case KindQueueGrant:
		return fmt.Sprintf("queue.grant wait=%v", e.Dur.Round(time.Microsecond))
	case KindQueueReject:
		if e.Dur > 0 {
			return fmt.Sprintf("queue.reject depth=%d projected_wait=%v", e.N, e.Dur)
		}
		return fmt.Sprintf("queue.reject depth=%d", e.N)
	case KindPoolGet:
		return fmt.Sprintf("pool.get pool=%s warm=%v", e.Name, e.Flag)
	case KindPoolPut:
		return fmt.Sprintf("pool.put pool=%s retained=%v", e.Name, e.Flag)
	case KindRunStart:
		if e.Dur > 0 {
			return fmt.Sprintf("run.start deadline=%v", e.Dur)
		}
		return "run.start deadline=none (precise)"
	case KindRunFinish:
		return fmt.Sprintf("run.finish outcome=%s elapsed=%v", e.Note, e.Dur.Round(time.Microsecond))
	case KindReset:
		return "reset"
	case KindPublish:
		final := ""
		if e.Flag {
			final = " final"
		}
		return fmt.Sprintf("publish buffer=%s v%d bytes=%d%s", e.Name, e.Version, e.N, final)
	case KindDeadline:
		return fmt.Sprintf("deadline fired after=%v", e.Dur)
	case KindDeliver:
		s := fmt.Sprintf("deliver v%d final=%v elapsed=%v", e.Version, e.Flag, e.Dur.Round(time.Microsecond))
		if e.Val > 0 {
			s += fmt.Sprintf(" snr=%.1fdB", e.Val)
		}
		if e.Name != "" {
			s += " member=" + e.Name
		}
		if e.Note != "" {
			s += " " + e.Note
		}
		return s
	case KindError:
		return "error: " + e.Note
	case KindRoute:
		return fmt.Sprintf("route.pick member=%s key=%s rank=%d", e.Name, e.Note, e.N)
	case KindBudget:
		if e.Flag {
			return fmt.Sprintf("budget granted=%v (floored: best-effort)", e.Dur)
		}
		return fmt.Sprintf("budget granted=%v", e.Dur)
	case KindForward:
		return fmt.Sprintf("forward member=%s role=%s", e.Name, e.Note)
	case KindForwardDone:
		return fmt.Sprintf("forward.done member=%s role=%s rtt=%v usable=%v",
			e.Name, e.Note, e.Dur.Round(time.Microsecond), e.Flag)
	case KindHedgeFire:
		return fmt.Sprintf("hedge.fire after=%v", e.Dur)
	case KindHedgeCancel:
		return fmt.Sprintf("hedge.cancel member=%s role=%s", e.Name, e.Note)
	case KindHedgeWin:
		return fmt.Sprintf("hedge.win member=%s role=%s", e.Name, e.Note)
	default:
		return e.Kind.String()
	}
}
