package serve

import "testing"

// Shed controller state-machine tests: exact level transitions for exact
// observation sequences. Pure virtual — the controller has no clock.

func TestShedLevelsDropLowestFirst(t *testing.T) {
	s := NewShedController(ShedConfig{})
	if s.Level() != 0 || s.Sheds(PriorityLow) {
		t.Fatal("fresh controller sheds")
	}
	s.Observe(0.6) // above the 0.55 default high watermark
	if s.Level() != 1 {
		t.Fatalf("level = %d after one hot sample, want 1", s.Level())
	}
	if !s.Sheds(PriorityLow) || s.Sheds(PriorityNormal) || s.Sheds(PriorityHigh) {
		t.Fatal("level 1 must shed exactly the low class")
	}
	s.Observe(0.9)
	if s.Level() != 2 {
		t.Fatalf("level = %d, want 2", s.Level())
	}
	if !s.Sheds(PriorityLow) || !s.Sheds(PriorityNormal) || s.Sheds(PriorityHigh) {
		t.Fatal("level 2 must shed low+normal, never high")
	}
	// maxShedLevel is NumPriorities-1: further pressure cannot shed high.
	for i := 0; i < 10; i++ {
		s.Observe(1.0)
	}
	if s.Level() != 2 || s.Sheds(PriorityHigh) {
		t.Fatalf("level = %d sheds-high=%v; high must never shed", s.Level(), s.Sheds(PriorityHigh))
	}
	if st := s.Stats(); st.Raises != 2 || st.Drops != 0 {
		t.Fatalf("stats = %+v, want 2 raises 0 drops", st)
	}
}

func TestShedHysteresisRecovery(t *testing.T) {
	s := NewShedController(ShedConfig{HighWatermark: 0.5, LowWatermark: 0.1, Hysteresis: 3})
	s.Observe(0.6)
	s.Observe(0.6)
	if s.Level() != 2 {
		t.Fatalf("level = %d, want 2", s.Level())
	}
	// Mid-band samples (above low, below high) are neither hot nor calm:
	// they reset the calm streak and hold the level.
	s.Observe(0.05)
	s.Observe(0.05)
	s.Observe(0.3) // resets calm
	s.Observe(0.05)
	s.Observe(0.05)
	if s.Level() != 2 {
		t.Fatalf("level dropped after interrupted calm streak: %d", s.Level())
	}
	s.Observe(0.05) // third consecutive calm sample: drop one class
	if s.Level() != 1 {
		t.Fatalf("level = %d after full calm streak, want 1", s.Level())
	}
	s.Observe(0.0)
	s.Observe(0.0)
	s.Observe(0.0)
	if s.Level() != 0 {
		t.Fatalf("level = %d, want full recovery", s.Level())
	}
	s.Observe(0.0) // already at 0: calm samples are no-ops
	if st := s.Stats(); st.Raises != 2 || st.Drops != 2 {
		t.Fatalf("stats = %+v, want 2 raises 2 drops", st)
	}
}

func TestShedEngagesBelowLadderWatermark(t *testing.T) {
	// The non-fighting invariant (DESIGN.md §13): the default shed high
	// watermark sits below the engine ladder's 0.75 step-down watermark, so
	// fleet shedding of low classes engages before any engine degrades
	// high-priority work.
	s := NewShedController(ShedConfig{})
	s.Observe(0.6) // hot for the shed controller...
	if s.Level() != 1 {
		t.Fatal("0.6 fill must engage shedding")
	}
	l := NewLadder(2, 100, 0, 0, 0) // default watermarks
	l.Enqueued(60)                  // ...but not for the ladder
	if l.Tier() != 0 {
		t.Fatal("default ladder steps down at the shed onset 0.6; mechanisms would fight")
	}
}
