package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// A nil *Metrics must accept every call without panicking and report zeros.
func TestNilMetricsNoOp(t *testing.T) {
	var m *Metrics
	if m.Enabled() {
		t.Fatal("nil Metrics reports Enabled")
	}
	m.Add(TokensLexed, 5)
	m.SetJobs(4)
	m.EndSpan(m.StartSpan(SpanModule, "mod", 0, 0))
	if got := m.Get(TokensLexed); got != 0 {
		t.Fatalf("nil Get = %d, want 0", got)
	}
	s := m.Snapshot()
	if s.TotalNS != 0 || s.Jobs != 0 || len(s.PhasesNS) != int(NumPhases) || len(s.Counters) != int(NumCounters) {
		t.Fatalf("nil Snapshot = %+v", s)
	}
	for name, v := range s.Counters {
		if v != 0 {
			t.Fatalf("nil snapshot counter %s = %d", name, v)
		}
	}
	for name, v := range s.PhasesNS {
		if v != 0 {
			t.Fatalf("nil snapshot phase %s = %d", name, v)
		}
	}
}

// Out-of-range counters are ignored, not a panic or a write past the
// array, and out-of-range names render as such.
func TestOutOfRangeIgnored(t *testing.T) {
	m := New()
	m.Add(Counter(-1), 1)
	m.Add(NumCounters, 1)
	if m.Get(Counter(-1)) != 0 || m.Get(NumCounters) != 0 {
		t.Fatal("out-of-range Get nonzero")
	}
	if got := Counter(99).String(); got != "counter(99)" {
		t.Fatalf("Counter(99).String() = %q", got)
	}
	if got := Phase(99).String(); got != "phase(99)" {
		t.Fatalf("Phase(99).String() = %q", got)
	}
	if got := phaseNamed("phase(99)"); got != NumPhases {
		t.Fatalf("phaseNamed(phase(99)) = %d, want NumPhases", got)
	}
}

// spanTree is a hand-built recording: two modules checked on two workers,
// each function with its cfg child, and a cache-hit module that only
// preprocessed. IDs are creation order, as StartSpan assigns them.
var spanTree = []Span{
	{ID: 1, Kind: SpanRun, Name: "golclint", Dur: 1000},
	{ID: 2, Parent: 1, Kind: SpanModule, Name: "a.c (+1 files)", Dur: 500},
	{ID: 3, Parent: 2, Kind: SpanPhase, Name: "preprocess", Dur: 60},
	{ID: 4, Parent: 3, Kind: SpanFile, Name: "a.c", Dur: 40},
	{ID: 5, Parent: 3, Kind: SpanFile, Name: "b.c", TID: 1, Dur: 50},
	{ID: 6, Parent: 2, Kind: SpanPhase, Name: "parse", Dur: 80},
	{ID: 7, Parent: 6, Kind: SpanFile, Name: "a.c", Dur: 70},
	{ID: 8, Parent: 6, Kind: SpanFile, Name: "b.c", TID: 1, Dur: 30},
	{ID: 9, Parent: 2, Kind: SpanPhase, Name: "sema", Dur: 25},
	{ID: 10, Parent: 2, Kind: SpanPhase, Name: "check", Dur: 200},
	{ID: 11, Parent: 10, Kind: SpanFunction, Name: "f", Dur: 150},
	{ID: 12, Parent: 11, Kind: SpanPhase, Name: "cfg", Dur: 20},
	{ID: 13, Parent: 10, Kind: SpanFunction, Name: "g", TID: 1, Index: 1, Dur: 90},
	{ID: 14, Parent: 13, Kind: SpanPhase, Name: "cfg", TID: 1, Dur: 10},
	{ID: 15, Parent: 1, Kind: SpanModule, Name: "c.c", Dur: 100},
	{ID: 16, Parent: 15, Kind: SpanPhase, Name: "preprocess", Dur: 12},
	{ID: 17, Parent: 16, Kind: SpanFile, Name: "c.c", Dur: 11},
}

// Every timing field of the snapshot is a sum over the span tree: files
// per frontend phase, sema and cfg spans, function self time for check,
// fan-out phase spans for the walls and module spans for the total.
func TestSnapshotFromSpans(t *testing.T) {
	m := New()
	m.spans.spans = append([]Span(nil), spanTree...)
	m.SetJobs(2)
	s := m.Snapshot()
	wantPhases := map[string]int64{
		"preprocess": 40 + 50 + 11,
		"parse":      70 + 30,
		"sema":       25,
		"cfg":        20 + 10,
		"check":      (150 - 20) + (90 - 10),
	}
	if fmt.Sprint(s.PhasesNS) != fmt.Sprint(wantPhases) {
		t.Errorf("phases_ns = %v, want %v", s.PhasesNS, wantPhases)
	}
	if s.PreprocessWallNS != 60+12 || s.ParseWallNS != 80 || s.CheckWallNS != 200 {
		t.Errorf("walls = preprocess %d, parse %d, check %d; want 72, 80, 200",
			s.PreprocessWallNS, s.ParseWallNS, s.CheckWallNS)
	}
	if s.TotalNS != 500+100 {
		t.Errorf("total_ns = %d, want 600", s.TotalNS)
	}
	if s.Jobs != 2 {
		t.Errorf("jobs = %d, want 2", s.Jobs)
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
			}
		}()
	}
	wg.Wait()
	if got := m.Get(ConfluenceMerges); got != goroutines*perG {
		t.Fatalf("merges = %d, want %d", got, goroutines*perG)
	}
}

func TestSnapshotNames(t *testing.T) {
	m := New()
	m.Add(TokensLexed, 7)
	m.spans.spans = []Span{
		{ID: 1, Kind: SpanModule, Name: "m.c", Dur: 10},
		{ID: 2, Parent: 1, Kind: SpanPhase, Name: "sema", Dur: 3},
	}
	s := m.Snapshot()
	if s.Counters["tokens_lexed"] != 7 {
		t.Fatalf("tokens_lexed = %d", s.Counters["tokens_lexed"])
	}
	if s.PhasesNS["sema"] != 3 {
		t.Fatalf("sema = %d", s.PhasesNS["sema"])
	}
	if s.TotalNS != 10 {
		t.Fatalf("total = %d", s.TotalNS)
	}
	// The snapshot must serialize cleanly, under the stable key names.
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"total_ns", "phases_ns", "preprocess_wall_ns", "parse_wall_ns", "check_wall_ns", "jobs", "counters"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("snapshot JSON lacks %q: %s", k, b)
		}
	}
}

// The check wall and the jobs gauge: nil-safe, and visible in snapshots
// (the wall-vs-CPU split the parallel engine reports). Each check fan-out
// adds its phase span to the wall.
func TestCheckWallAndJobs(t *testing.T) {
	var nilM *Metrics
	nilM.SetJobs(4)
	if nilM.Snapshot().CheckWallNS != 0 || nilM.Jobs() != 0 {
		t.Fatal("nil metrics not zero")
	}

	m := New()
	m.spans.spans = []Span{
		{ID: 1, Kind: SpanPhase, Name: "check", Dur: 3},
		{ID: 2, Kind: SpanPhase, Name: "check", Dur: 2},
	}
	m.SetJobs(8)
	if m.Jobs() != 8 {
		t.Fatalf("jobs = %d", m.Jobs())
	}
	snap := m.Snapshot()
	if snap.CheckWallNS != 5 || snap.Jobs != 8 {
		t.Fatalf("snapshot: check_wall_ns=%d jobs=%d", snap.CheckWallNS, snap.Jobs)
	}
}

// Concurrent workers recording function spans and counters under one
// check fan-out (run under -race): the wall is the fan-out span, the check
// phase the sum of the function spans.
func TestConcurrentCheckWall(t *testing.T) {
	m := New()
	check := m.StartSpan(SpanPhase, PhaseCheck.String(), 0, 0)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.EndFuncSpan(m.StartSpan(SpanFunction, "f", check, i), j, "f.c", 1, 1, 0, 0, 0)
				m.Add(FunctionsChecked, 1)
			}
		}()
	}
	wg.Wait()
	m.EndSpan(check)
	if got := m.Get(FunctionsChecked); got != 1600 {
		t.Fatalf("functions = %d, want 1600", got)
	}
	var fnSum, wall int64
	for _, sp := range m.Spans() {
		switch sp.Kind {
		case SpanFunction:
			fnSum += sp.Dur
		case SpanPhase:
			wall = sp.Dur
		}
	}
	snap := m.Snapshot()
	if snap.CheckWallNS != wall || snap.PhasesNS["check"] != fnSum {
		t.Fatalf("check wall %d (span %d), check phase %d (function spans %d)",
			snap.CheckWallNS, wall, snap.PhasesNS["check"], fnSum)
	}
}

// Per-phase walls: each fan-out region accumulates independently into
// preprocess_wall_ns, parse_wall_ns and check_wall_ns; sema and cfg spans,
// which are not fan-outs, add to no wall.
func TestPhaseWall(t *testing.T) {
	m := New()
	m.spans.spans = []Span{
		{ID: 1, Kind: SpanPhase, Name: "preprocess", Dur: 2},
		{ID: 2, Kind: SpanPhase, Name: "parse", Dur: 3},
		{ID: 3, Kind: SpanPhase, Name: "parse", Dur: 4},
		{ID: 4, Kind: SpanPhase, Name: "sema", Dur: 100},
		{ID: 5, Kind: SpanPhase, Name: "check", Dur: 5},
		{ID: 6, Parent: 5, Kind: SpanFunction, Name: "f", Dur: 150},
		{ID: 7, Parent: 6, Kind: SpanPhase, Name: "cfg", Dur: 100},
	}
	snap := m.Snapshot()
	if snap.PreprocessWallNS != 2 {
		t.Errorf("preprocess_wall_ns = %d", snap.PreprocessWallNS)
	}
	if snap.ParseWallNS != 7 {
		t.Errorf("parse_wall_ns = %d", snap.ParseWallNS)
	}
	if snap.CheckWallNS != 5 {
		t.Errorf("check_wall_ns = %d", snap.CheckWallNS)
	}
}
