package serve

import "errors"

// Cross-engine load shedding (DESIGN.md §13): a hysteresis controller over
// *fleet* queue pressure that drops whole priority classes, lowest first,
// before any engine's degradation ladder has to cheapen high-priority
// traffic. The two mechanisms are kept from fighting by construction:
//
//   - the shed high watermark (0.55) sits well below the ladder's (0.75),
//     so as load rises the fleet sheds low-priority frames first and only
//     degrades if pressure keeps climbing;
//   - both controllers carry their own hysteresis (consecutive-calm
//     requirements against watermarks separated by a wide gap), so neither
//     oscillates when load hovers near a threshold, and a shed step-down
//     does not immediately re-trigger a ladder step-up or vice versa.
//
// The controller is a pure state machine over observed fill fractions — no
// clock, no goroutines — so the fleet router and the loadgen simulator
// drive the identical code, and it shares its hysteresis machine with the
// engine ladder.

// ErrShed reports a frame dropped by the fleet shed controller: its
// priority class is currently shed under overload. Match with errors.Is.
var ErrShed = errors.New("serve: load shed")

// The shed controller's thresholds, as fleet mean queue-fill fractions:
// at or past shedHigh it sheds one more priority class at once;
// shedHysteresis consecutive observations at or below shedLow un-shed one.
// shedHigh sits deliberately below the engine ladder's ladderHigh so
// shedding engages first.
const (
	shedHigh       = 0.55
	shedLow        = shedHigh / 4
	shedHysteresis = 8
)

// maxShedLevel caps the shed depth at NumPriorities-1: the top class is never
// shed — overload degrades it via the ladder instead of dropping it.
const maxShedLevel = NumPriorities - 1

// ShedController is the fleet-level shed state machine. Level 0 sheds
// nothing; level L sheds the L lowest priority classes. Safe for concurrent
// use: it runs on the engine ladder's hysteresis machine.
type ShedController struct {
	h hysteresis
}

// NewShedController builds a controller at level 0.
func NewShedController() *ShedController {
	s := &ShedController{}
	s.h.top, s.h.hyst = maxShedLevel, shedHysteresis
	return s
}

// Observe feeds one fleet fill sample (mean queued/capacity over healthy
// engines, in [0,1]) into the state machine. Crossing the high watermark
// raises the shed level one class immediately; shedHysteresis consecutive
// samples at or below the low watermark lower it one class.
func (s *ShedController) Observe(fill float64) {
	switch {
	case fill >= shedHigh:
		s.h.busy()
		s.h.raise()
	case fill > shedLow:
		s.h.busy()
	default:
		s.h.calm()
	}
}

// Level returns the current shed depth: the number of priority classes,
// lowest first, currently being dropped.
func (s *ShedController) Level() int { return int(s.h.level.Load()) }

// Sheds reports whether priority class p is dropped at the current level.
// Classes are shed lowest-priority-first: level 1 sheds PriorityLow, level
// 2 adds PriorityNormal; PriorityHigh is never shed (maxShedLevel).
func (s *ShedController) Sheds(p Priority) bool {
	return int(p) >= NumPriorities-s.Level()
}

// ShedStats snapshots the controller.
type ShedStats struct {
	Level  int    // current shed depth in classes
	Raises uint64 // level increments (shed onset events)
	Drops  uint64 // level decrements (recovery events)
}

// Stats snapshots the controller's counters.
func (s *ShedController) Stats() ShedStats {
	return ShedStats{Level: s.Level(), Raises: s.h.raises.Load(), Drops: s.h.drops.Load()}
}
