package ercdb

// Cross-validation between the static checker and the run-time baseline:
// the final (statically clean) database must also execute without any
// instrumented-heap errors or leaks, and the pre-fix driver must actually
// leak at run time (the six §6 leaks are real bugs, not checker artifacts).

import (
	"strings"
	"testing"

	"golclint/internal/core"
	"golclint/internal/cpp"
	"golclint/internal/interp"
)

func loadStage(t *testing.T, st Stage) *core.Result {
	t.Helper()
	res := core.CheckSources(CSources(st), core.Options{
		Includes: cpp.MapIncluder(Headers(st)),
	})
	for _, e := range res.ParseErrors {
		t.Fatalf("parse: %v", e)
	}
	return res
}

func TestFinalStageRunsClean(t *testing.T) {
	res := loadStage(t, Final)
	run := interp.New(res.Program, interp.Options{}).Run("main")
	if len(run.Errors) != 0 {
		t.Fatalf("runtime errors in final stage: %v\noutput: %q", run.Errors, run.Output)
	}
	// The paper's §7 residue, reproduced: after static checking, run-time
	// tools still find "storage reachable from global and static
	// variables that was not deallocated. Since LCLint does not do
	// interprocedural program flow analysis, it cannot detect failures to
	// free global storage before execution terminates." Our two residual
	// leaks are exactly the eref pool's arrays (reachable from the static
	// eref_pool).
	if len(run.Leaks) != 2 {
		t.Fatalf("residual leaks = %v, want exactly the 2 pool arrays", run.Leaks)
	}
	for _, lk := range run.Leaks {
		if lk.AllocPos.File.String() != "eref.c" {
			t.Fatalf("unexpected residual leak: %v", lk)
		}
	}
	if run.ExitCode != 0 {
		t.Fatalf("exit = %d", run.ExitCode)
	}
	if !strings.Contains(run.Output, "0") {
		t.Fatalf("unexpected driver output %q", run.Output)
	}
}

// The driver leaks the checker reports before the fixes are real: the
// run-time baseline observes them on the same execution.
func TestUnfixedDriverLeaksAtRuntime(t *testing.T) {
	res := loadStage(t, AllocAnnotated)
	run := interp.New(res.Program, interp.Options{}).Run("main")
	if len(run.Errors) != 0 {
		t.Fatalf("unexpected runtime errors: %v", run.Errors)
	}
	// The six reported reassignment sites lose eight blocks at run time
	// (each leaked set drags its element node along), plus the two
	// global-reachable pool arrays the static checker cannot see (§7).
	if len(run.Leaks) != 10 {
		t.Fatalf("runtime leaks = %d, want 10: %v", len(run.Leaks), run.Leaks)
	}
	fixed := loadStage(t, Final)
	runFixed := interp.New(fixed.Program, interp.Options{}).Run("main")
	if len(run.Leaks)-len(runFixed.Leaks) != 8 {
		t.Fatalf("driver fixes should remove 8 runtime leaks: %d -> %d",
			len(run.Leaks), len(runFixed.Leaks))
	}
}

// Every stage executes (the seeded anomalies are interface-level, not
// crashes) — except that pre-assertion stages still run because the
// driver's data never hits the empty-collection edge.
func TestAllStagesExecute(t *testing.T) {
	for _, st := range Stages() {
		res := loadStage(t, st)
		run := interp.New(res.Program, interp.Options{}).Run("main")
		if run.ExitCode != 0 {
			t.Errorf("stage %s exit = %d (errors %v)", st, run.ExitCode, run.Errors)
		}
		for _, e := range run.Errors {
			t.Errorf("stage %s runtime error: %v", st, e)
		}
	}
}
