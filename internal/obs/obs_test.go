package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// A nil *Metrics must accept every call without panicking and report zeros.
func TestNilMetricsNoOp(t *testing.T) {
	var m *Metrics
	if m.Enabled() {
		t.Fatal("nil Metrics reports Enabled")
	}
	m.Add(TokensLexed, 5)
	m.AddPhase(PhaseParse, time.Second)
	m.AddTotal(time.Second)
	stop := m.StartPhase(PhaseCheck)
	stop()
	if got := m.Get(TokensLexed); got != 0 {
		t.Fatalf("nil Get = %d, want 0", got)
	}
	if got := m.PhaseDuration(PhaseParse); got != 0 {
		t.Fatalf("nil PhaseDuration = %v, want 0", got)
	}
	if got := m.Total(); got != 0 {
		t.Fatalf("nil Total = %v, want 0", got)
	}
	s := m.Snapshot()
	if s.TotalNS != 0 || len(s.PhasesNS) != int(NumPhases) || len(s.Counters) != int(NumCounters) {
		t.Fatalf("nil Snapshot = %+v", s)
	}
	for name, v := range s.Counters {
		if v != 0 {
			t.Fatalf("nil snapshot counter %s = %d", name, v)
		}
	}
}

// Out-of-range phases and counters are ignored, not a panic or a write
// past the array.
func TestOutOfRangeIgnored(t *testing.T) {
	m := New()
	m.Add(Counter(-1), 1)
	m.Add(NumCounters, 1)
	m.AddPhase(Phase(-1), time.Second)
	m.AddPhase(NumPhases, time.Second)
	if m.Get(Counter(-1)) != 0 || m.Get(NumCounters) != 0 {
		t.Fatal("out-of-range Get nonzero")
	}
	if got := Counter(99).String(); got != "counter(99)" {
		t.Fatalf("Counter(99).String() = %q", got)
	}
	if got := Phase(99).String(); got != "phase(99)" {
		t.Fatalf("Phase(99).String() = %q", got)
	}
}

// Concurrent increments must not lose updates.
func TestConcurrentAdd(t *testing.T) {
	m := New()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				m.Add(ConfluenceMerges, 1)
				m.AddPhase(PhaseCheck, time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if got := m.Get(ConfluenceMerges); got != goroutines*perG {
		t.Fatalf("merges = %d, want %d", got, goroutines*perG)
	}
	if got := m.PhaseDuration(PhaseCheck); got != goroutines*perG {
		t.Fatalf("check phase = %d ns, want %d", got, goroutines*perG)
	}
}

func TestStartPhaseAccumulates(t *testing.T) {
	m := New()
	stop := m.StartPhase(PhaseParse)
	time.Sleep(time.Millisecond)
	stop()
	first := m.PhaseDuration(PhaseParse)
	if first <= 0 {
		t.Fatalf("phase duration = %v, want > 0", first)
	}
	stop = m.StartPhase(PhaseParse)
	stop()
	if m.PhaseDuration(PhaseParse) < first {
		t.Fatal("second interval did not accumulate")
	}
}

func TestSnapshotNames(t *testing.T) {
	m := New()
	m.Add(TokensLexed, 7)
	m.AddPhase(PhaseSema, 3*time.Millisecond)
	m.AddTotal(10 * time.Millisecond)
	s := m.Snapshot()
	if s.Counters["tokens_lexed"] != 7 {
		t.Fatalf("tokens_lexed = %d", s.Counters["tokens_lexed"])
	}
	if s.PhasesNS["sema"] != int64(3*time.Millisecond) {
		t.Fatalf("sema = %d", s.PhasesNS["sema"])
	}
	if s.TotalNS != int64(10*time.Millisecond) {
		t.Fatalf("total = %d", s.TotalNS)
	}
	// The snapshot must serialize cleanly.
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
}

// The check-wall clock and jobs gauge: nil-safe, atomic, and visible in
// snapshots (the wall-vs-CPU split the parallel engine reports).
func TestCheckWallAndJobs(t *testing.T) {
	var nilM *Metrics
	nilM.AddPhaseWall(PhaseCheck, time.Second) // no-op, no panic
	nilM.SetJobs(4)
	nilM.StartPhaseWall(PhaseCheck)()
	if nilM.PhaseWall(PhaseCheck) != 0 || nilM.Jobs() != 0 {
		t.Fatal("nil metrics not zero")
	}

	m := New()
	m.AddPhaseWall(PhaseCheck, 3*time.Millisecond)
	m.AddPhaseWall(PhaseCheck, 2*time.Millisecond)
	if got := m.PhaseWall(PhaseCheck); got != 5*time.Millisecond {
		t.Fatalf("check wall = %v, want 5ms", got)
	}
	m.SetJobs(8)
	if m.Jobs() != 8 {
		t.Fatalf("jobs = %d", m.Jobs())
	}
	stop := m.StartPhaseWall(PhaseCheck)
	stop()
	if m.PhaseWall(PhaseCheck) < 5*time.Millisecond {
		t.Fatal("StartPhaseWall lost accumulated time")
	}
	snap := m.Snapshot()
	if snap.CheckWallNS < int64(5*time.Millisecond) || snap.Jobs != 8 {
		t.Fatalf("snapshot: check_wall_ns=%d jobs=%d", snap.CheckWallNS, snap.Jobs)
	}
}

// Concurrent workers hammering the wall clock alongside phase timers and
// counters (run under -race).
func TestConcurrentCheckWall(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.AddPhaseWall(PhaseCheck, time.Microsecond)
				m.AddPhase(PhaseCheck, time.Microsecond)
				m.Add(FunctionsChecked, 1)
			}
		}()
	}
	wg.Wait()
	if got := m.PhaseWall(PhaseCheck); got != 1600*time.Microsecond {
		t.Fatalf("check wall = %v, want 1.6ms", got)
	}
	if got := m.Get(FunctionsChecked); got != 1600 {
		t.Fatalf("functions = %d, want 1600", got)
	}
}

// Per-phase wall timers: each fan-out region accumulates independently,
// and the slots surface in the snapshot as preprocess_wall_ns,
// parse_wall_ns and check_wall_ns.
func TestPhaseWall(t *testing.T) {
	var nilM *Metrics
	nilM.AddPhaseWall(PhasePreprocess, time.Second) // no-op, no panic
	nilM.StartPhaseWall(PhaseParse)()
	if nilM.PhaseWall(PhasePreprocess) != 0 {
		t.Fatal("nil metrics not zero")
	}

	m := New()
	m.AddPhaseWall(Phase(-1), time.Second) // out of range: ignored
	m.AddPhaseWall(NumPhases, time.Second)
	m.AddPhaseWall(PhasePreprocess, 2*time.Millisecond)
	m.AddPhaseWall(PhaseParse, 3*time.Millisecond)
	m.AddPhaseWall(PhaseCheck, 5*time.Millisecond)
	if got := m.PhaseWall(PhasePreprocess); got != 2*time.Millisecond {
		t.Errorf("preprocess wall = %v, want 2ms", got)
	}
	if got := m.PhaseWall(PhaseParse); got != 3*time.Millisecond {
		t.Errorf("parse wall = %v, want 3ms", got)
	}
	if got := m.PhaseWall(PhaseCheck); got != 5*time.Millisecond {
		t.Errorf("check wall = %v, want 5ms", got)
	}
	stop := m.StartPhaseWall(PhaseParse)
	stop()
	if m.PhaseWall(PhaseParse) < 3*time.Millisecond {
		t.Error("StartPhaseWall lost accumulated time")
	}
	snap := m.Snapshot()
	if snap.PreprocessWallNS != int64(2*time.Millisecond) {
		t.Errorf("preprocess_wall_ns = %d", snap.PreprocessWallNS)
	}
	if snap.ParseWallNS < int64(3*time.Millisecond) {
		t.Errorf("parse_wall_ns = %d", snap.ParseWallNS)
	}
	if snap.CheckWallNS != int64(5*time.Millisecond) {
		t.Errorf("check_wall_ns = %d", snap.CheckWallNS)
	}
}
