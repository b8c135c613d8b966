package serve

import (
	"context"
	"fmt"
	"time"

	"anytime/internal/reqtrace"
)

// Controller is the load-adaptive accuracy policy: it maps admission-queue
// depth to a shed factor in [MinFactor, 1] that the caller applies to each
// request's contract — typically by scaling the deadline, so under load
// every request finishes sooner at lower accuracy instead of a few
// finishing precisely while the rest starve. This is the anytime analogue
// of significance-driven runtimes: the quality knob moves, availability
// does not.
//
// The policy is a pure piecewise-linear ramp:
//
//	depth <= ShedStart             factor = 1 (no shedding)
//	ShedStart < depth < ShedFull   factor falls linearly
//	depth >= ShedFull              factor = MinFactor
//
// Shedding begins only once requests are actually waiting, and backs off
// automatically as the queue drains — no state, no oscillation damping
// needed beyond the width of the ramp.
type Controller struct {
	// ShedStart is the queue depth at which shedding begins.
	ShedStart int
	// ShedFull is the queue depth at which shedding saturates at
	// MinFactor. Must exceed ShedStart.
	ShedFull int
	// MinFactor is the smallest factor applied, in (0, 1].
	MinFactor float64
	// Sink observes every shed decision (Scale applying a factor below 1);
	// may be nil.
	Sink reqtrace.Sink
}

// Validate checks the controller's configuration.
func (c Controller) Validate() error {
	if c.ShedStart < 0 {
		return fmt.Errorf("serve: controller ShedStart %d must not be negative", c.ShedStart)
	}
	if c.ShedFull <= c.ShedStart {
		return fmt.Errorf("serve: controller ShedFull %d must exceed ShedStart %d", c.ShedFull, c.ShedStart)
	}
	if c.MinFactor <= 0 || c.MinFactor > 1 {
		return fmt.Errorf("serve: controller MinFactor %v out of range (0, 1]", c.MinFactor)
	}
	return nil
}

// Factor returns the shed factor for the given queue depth.
func (c Controller) Factor(depth int) float64 {
	if depth <= c.ShedStart {
		return 1
	}
	if depth >= c.ShedFull {
		return c.MinFactor
	}
	frac := float64(depth-c.ShedStart) / float64(c.ShedFull-c.ShedStart)
	return 1 - frac*(1-c.MinFactor)
}

// Scale applies the shed factor for the given queue depth to a deadline:
// the effective deadline a loaded server grants the request. A zero
// deadline (run to precision) is never scaled — precision was an explicit
// contract, and shedding it would break the bit-exactness promise; under
// overload such requests are bounded by admission control instead.
//
// Whenever a factor below 1 is applied, the shed decision (factor and
// effective deadline) is reported to the request trace bound into ctx and
// to Sink.
func (c Controller) Scale(ctx context.Context, deadline time.Duration, depth int) time.Duration {
	if deadline <= 0 {
		return deadline
	}
	f := c.Factor(depth)
	if f >= 1 {
		return deadline
	}
	effective := time.Duration(float64(deadline) * f)
	c.Sink.Send(reqtrace.FromContext(ctx).Shed(f, effective))
	return effective
}
