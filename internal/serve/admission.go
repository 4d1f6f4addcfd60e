package serve

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// ErrInvalidInput reports a frame rejected at admission, before any worker
// touched it: nil/empty/oversized clouds, inconsistent feature/label shapes,
// non-finite coordinates or features, and degenerate (zero-extent) bounding
// boxes. Wrapped errors carry the specific cause; match with
// errors.Is(err, ErrInvalidInput).
var ErrInvalidInput = errors.New("serve: invalid input")

// DefaultMaxPoints is the admission cap on points per frame — far above
// every Table 1 workload (≤ 8192) but low enough to stop a malformed length
// from committing gigabytes of workspace.
const DefaultMaxPoints = 1 << 20

// validateFrame is the admission gate: every check a worker would otherwise
// trip over (NaN poisoning the Morton encoder and every distance compare,
// zero-extent boxes degenerating the structurizer grid, shape mismatches
// indexing out of bounds) runs here on the submitter's goroutine, so a bad
// frame costs its caller a scan instead of burning a worker replica. The
// valid path allocates nothing.
func validateFrame(c *geom.Cloud) error {
	if c == nil {
		return fmt.Errorf("%w: nil cloud", ErrInvalidInput)
	}
	n := c.Len()
	if n == 0 {
		return fmt.Errorf("%w: empty cloud", ErrInvalidInput)
	}
	if n > DefaultMaxPoints {
		return fmt.Errorf("%w: %d points exceeds cap %d", ErrInvalidInput, n, DefaultMaxPoints)
	}
	if err := c.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	// Non-finite coordinates, and a cloud so wide that its distances reach
	// the searches' "nothing found" sentinel: the planner's own check.
	box, err := geom.CheckSpan(c.Points)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	if min, max := box.Min, box.Max; n > 1 && !(max.X > min.X || max.Y > min.Y || max.Z > min.Z) {
		return fmt.Errorf("%w: degenerate bounding box (%d coincident points)", ErrInvalidInput, n)
	}
	for i, f := range c.Feat {
		v := float64(f)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite feature value at index %d", ErrInvalidInput, i)
		}
	}
	return nil
}
