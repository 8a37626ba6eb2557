package core

import (
	"testing"

	"golclint/internal/cpp"
	"golclint/internal/obs"
	"golclint/internal/testgen"
)

// metricsSrc exercises loops, branches (merges), annotations, and a leak so
// every counter family moves.
const metricsSrc = `extern /*@only@*/ void *malloc(unsigned long);

void leaky (int n)
{
	char *p;
	int i;
	p = (char *) malloc (10);
	i = 0;
	while (i < n)
	{
		if (n > 2) { i = i + 1; } else { i = i + 2; }
	}
}
`

func TestCheckSourcesPopulatesMetrics(t *testing.T) {
	m := obs.New()
	res := CheckSource("m.c", metricsSrc, Options{Metrics: m})
	if len(res.Diags) == 0 {
		t.Fatal("expected a leak diagnostic")
	}

	s := m.Snapshot()
	for _, c := range []obs.Counter{
		obs.TokensLexed, obs.ASTNodes, obs.CFGBlocks, obs.CFGEdges,
		obs.ConfluenceMerges, obs.LoopUnrollings, obs.AnnotationsConsumed,
		obs.DiagnosticsEmitted, obs.FunctionsChecked,
	} {
		if m.Get(c) <= 0 {
			t.Errorf("counter %s = %d, want > 0", c, m.Get(c))
		}
	}
	if got := m.Get(obs.FunctionsChecked); got != 1 {
		t.Errorf("functions_checked = %d, want 1", got)
	}
	if got := m.Get(obs.DiagnosticsEmitted); got != int64(len(res.Diags)) {
		t.Errorf("diagnostics_emitted = %d, want %d", got, len(res.Diags))
	}

	// Phase durations are non-negative and disjoint: their sum cannot
	// exceed the end-to-end total.
	var sum int64
	for name, ns := range s.PhasesNS {
		if ns < 0 {
			t.Errorf("phase %s = %d ns, want >= 0", name, ns)
		}
		sum += ns
	}
	if sum > s.TotalNS {
		t.Errorf("phase sum %d ns exceeds total %d ns", sum, s.TotalNS)
	}
	if s.TotalNS <= 0 {
		t.Errorf("total = %d ns, want > 0", s.TotalNS)
	}

	// The function span carries what -trace and -hot render.
	var fns []obs.Span
	for _, sp := range m.Spans() {
		if sp.Kind == obs.SpanFunction {
			fns = append(fns, sp)
		}
	}
	if len(fns) != 1 {
		t.Fatalf("function spans = %d, want 1", len(fns))
	}
	sp := fns[0]
	if sp.Name != "leaky" || sp.File != "m.c" || sp.Index != 0 {
		t.Errorf("span identity = %q %q #%d", sp.Name, sp.File, sp.Index)
	}
	if sp.Blocks <= 0 || sp.Edges <= 0 || sp.Merges <= 0 || sp.Dur < 0 {
		t.Errorf("span not populated: %+v", sp)
	}
}

// The same run with a nil Metrics must behave identically (diagnostics
// unchanged), proving the instrumentation has no observable effect.
func TestNilMetricsSameDiagnostics(t *testing.T) {
	with := CheckSource("m.c", metricsSrc, Options{Metrics: obs.New()})
	without := CheckSource("m.c", metricsSrc, Options{})
	if with.Messages() != without.Messages() {
		t.Fatalf("messages differ:\n%q\nvs\n%q", with.Messages(), without.Messages())
	}
}

// At -jobs 1 every span nests inside its parent, so the span-derived
// snapshot is bounded from above: the phases are disjoint parts of the
// module spans, and each fan-out wall contains its file or function spans.
func TestSnapshotNestsAtOneJob(t *testing.T) {
	p := testgen.Generate(testgen.Config{Seed: 4, Modules: 4, FuncsPer: 3, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: 1}})
	m := obs.New()
	CheckSources(p.Files, Options{Includes: cpp.MapIncluder(p.Headers), Metrics: m, Jobs: 1})
	s := m.Snapshot()
	var sum int64
	for name, ns := range s.PhasesNS {
		if ns <= 0 {
			t.Errorf("phase %s = %d ns, want > 0", name, ns)
		}
		sum += ns
	}
	if sum > s.TotalNS {
		t.Errorf("phase sum %d ns exceeds total %d ns", sum, s.TotalNS)
	}
	if s.PreprocessWallNS < s.PhasesNS["preprocess"] {
		t.Errorf("preprocess wall %d < file spans %d", s.PreprocessWallNS, s.PhasesNS["preprocess"])
	}
	if s.ParseWallNS < s.PhasesNS["parse"] {
		t.Errorf("parse wall %d < file spans %d", s.ParseWallNS, s.PhasesNS["parse"])
	}
	if fns := s.PhasesNS["cfg"] + s.PhasesNS["check"]; s.CheckWallNS < fns {
		t.Errorf("check wall %d < function spans %d", s.CheckWallNS, fns)
	}
	if s.Jobs != 1 {
		t.Errorf("jobs = %d, want 1", s.Jobs)
	}
}
