package serve

import (
	"errors"
	"sync/atomic"
)

// Cross-engine load shedding (DESIGN.md §13): a hysteresis controller over
// *fleet* queue pressure that drops whole priority classes, lowest first,
// before any engine's degradation ladder has to cheapen high-priority
// traffic. The two mechanisms are kept from fighting by construction:
//
//   - the shed high watermark (default 0.55) sits well below the ladder's
//     (default 0.75), so as load rises the fleet sheds low-priority frames
//     first and only degrades if pressure keeps climbing;
//   - both controllers carry their own hysteresis (consecutive-calm
//     requirements against watermarks separated by a wide gap), so neither
//     oscillates when load hovers near a threshold, and a shed step-down
//     does not immediately re-trigger a ladder step-up or vice versa.
//
// The controller is a pure state machine over observed fill fractions — no
// clock, no goroutines — so the fleet router and the loadgen simulator
// drive the identical code.

// ErrShed reports a frame dropped by the fleet shed controller: its
// priority class is currently shed under overload. Match with errors.Is.
var ErrShed = errors.New("serve: load shed")

// ShedConfig tunes the fleet shed controller. The zero value selects the
// defaults documented on each field.
type ShedConfig struct {
	// HighWatermark is the fleet mean queue-fill fraction at which the
	// controller sheds one more priority class. Default 0.55 — deliberately
	// below the engine ladder's 0.75 so shedding engages first.
	HighWatermark float64
	// LowWatermark is the fill fraction at or below which an observation
	// counts as calm. Default HighWatermark/4.
	LowWatermark float64
	// Hysteresis is the number of consecutive calm observations required to
	// un-shed one class. Default 8.
	Hysteresis int
}

// maxShedLevel caps the shed depth at NumPriorities-1: the top class is never
// shed — overload degrades it via the ladder instead of dropping it.
const maxShedLevel = NumPriorities - 1

func (c *ShedConfig) defaults() {
	if c.HighWatermark <= 0 || c.HighWatermark > 1 {
		c.HighWatermark = 0.55
	}
	if c.LowWatermark <= 0 || c.LowWatermark >= c.HighWatermark {
		c.LowWatermark = c.HighWatermark / 4
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 8
	}
}

// ShedController is the fleet-level shed state machine. Level 0 sheds
// nothing; level L sheds the L lowest priority classes. Safe for concurrent
// use (atomic level/calm state, same CAS discipline as the engine ladder).
type ShedController struct {
	cfg   ShedConfig
	level atomic.Int32
	calm  atomic.Int32

	raises atomic.Uint64
	drops  atomic.Uint64
}

// NewShedController builds a controller; zero config selects defaults.
func NewShedController(cfg ShedConfig) *ShedController {
	cfg.defaults()
	return &ShedController{cfg: cfg}
}

// Observe feeds one fleet fill sample (mean queued/capacity over healthy
// engines, in [0,1]) into the state machine. Crossing the high watermark
// raises the shed level one class immediately; Hysteresis consecutive
// samples at or below the low watermark lower it one class.
func (s *ShedController) Observe(fill float64) {
	if fill >= s.cfg.HighWatermark {
		s.calm.Store(0)
		l := s.level.Load()
		if l >= maxShedLevel {
			return
		}
		if s.level.CompareAndSwap(l, l+1) {
			s.raises.Add(1)
		}
		return
	}
	if fill > s.cfg.LowWatermark {
		s.calm.Store(0)
		return
	}
	l := s.level.Load()
	if l == 0 {
		return
	}
	if int(s.calm.Add(1)) < s.cfg.Hysteresis {
		return
	}
	if s.level.CompareAndSwap(l, l-1) {
		s.drops.Add(1)
	}
	s.calm.Store(0)
}

// Level returns the current shed depth: the number of priority classes,
// lowest first, currently being dropped.
func (s *ShedController) Level() int { return int(s.level.Load()) }

// Sheds reports whether priority class p is dropped at the current level.
// Classes are shed lowest-priority-first: level 1 sheds PriorityLow, level
// 2 adds PriorityNormal; PriorityHigh is never shed (maxShedLevel).
func (s *ShedController) Sheds(p Priority) bool {
	return int(p) >= NumPriorities-int(s.level.Load())
}

// ShedStats snapshots the controller.
type ShedStats struct {
	Level  int    // current shed depth in classes
	Raises uint64 // level increments (shed onset events)
	Drops  uint64 // level decrements (recovery events)
}

// Stats snapshots the controller's counters.
func (s *ShedController) Stats() ShedStats {
	return ShedStats{Level: int(s.level.Load()), Raises: s.raises.Load(), Drops: s.drops.Load()}
}
