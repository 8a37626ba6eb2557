package ercdb

// Experiments E5-E8 (DESIGN.md): the Section 6 annotation walkthrough on
// the employee database. Each test pins one claim from the paper's
// narrative against the checker's actual output.

import (
	"strings"
	"testing"

	"golclint/internal/core"
	"golclint/internal/cpp"
	"golclint/internal/diag"
	"golclint/internal/flags"
)

func checkStage(t *testing.T, st Stage, fl *flags.Flags) *core.Result {
	t.Helper()
	res := core.CheckSources(CSources(st), core.Options{
		Flags:    fl,
		Includes: cpp.MapIncluder(Headers(st)),
	})
	for _, e := range res.ParseErrors {
		t.Fatalf("stage %s parse error: %v", st, e)
	}
	for _, e := range res.SemaErrors {
		t.Fatalf("stage %s sema error: %v", st, e)
	}
	return res
}

func countCode(res *core.Result, code diag.Code) int {
	n := 0
	for _, d := range res.Diags {
		if d.Code == code {
			n++
		}
	}
	return n
}

func hasDiag(res *core.Result, code diag.Code, substr string) bool {
	for _, d := range res.Diags {
		if d.Code == code && strings.Contains(d.Msg, substr) {
			return true
		}
	}
	return false
}

// E5a — §6: "One anomaly involving null pointers is reported for the
// function erc_create", with the paper's exact shape: the message points at
// the return, the note at the NULL assignment.
func TestErcCreateNullAnomaly(t *testing.T) {
	res := checkStage(t, Bare, nil)
	found := false
	for _, d := range res.Diags {
		if d.Code == diag.NullReturn && strings.Contains(d.Msg, "Null storage c->vals derivable from return value: c") {
			found = true
			if d.Pos.File.String() != "erc.c" {
				t.Errorf("anomaly in %s, want erc.c", d.Pos.File)
			}
			if len(d.Notes) != 1 || !strings.Contains(d.Notes[0].Msg, "c->vals becomes null") {
				t.Errorf("note wrong: %v", d)
			}
		}
	}
	if !found {
		t.Fatalf("missing erc_create anomaly; got:\n%s", res.Messages())
	}
	// It is the only null-return anomaly at this stage.
	if n := countCode(res, diag.NullReturn); n != 1 {
		t.Errorf("NullReturn count = %d, want 1", n)
	}
}

// E5b — adding the null annotation resolves erc_create and surfaces three
// arrow-access anomalies (the erc_choose macro and the two requires-clause
// sites).
func TestNullFieldArrowAnomalies(t *testing.T) {
	res := checkStage(t, NullField, nil)
	if hasDiag(res, diag.NullReturn, "derivable from return value") {
		t.Fatalf("erc_create anomaly should be fixed:\n%s", res.Messages())
	}
	if n := countCode(res, diag.NullDeref); n != 3 {
		t.Fatalf("arrow anomalies = %d, want 3:\n%s", n, res.Messages())
	}
	// One comes from the erc_choose macro expansion in empset.c.
	if !hasDiag(res, diag.NullDeref, "s->vals") {
		t.Fatalf("missing macro-site anomaly:\n%s", res.Messages())
	}
}

// E5c — the assertions remove all arrow-access anomalies ("The checking has
// directed us to places where adding assertion checks would be good
// defensive programming practice").
func TestAssertionsResolveArrows(t *testing.T) {
	res := checkStage(t, Asserted, nil)
	if n := countCode(res, diag.NullDeref); n != 0 {
		t.Fatalf("arrow anomalies remain:\n%s", res.Messages())
	}
}

// E6a — the allocation pass with -allimponly: every anomaly is in the
// missing-only family, covering the paper's sites: the function returns,
// the static pool fields, and the call to free in erc_final.
func TestAllocPassAnomalies(t *testing.T) {
	fl := flags.Default()
	fl.ImplicitOnly = false
	res := checkStage(t, Asserted, fl)

	wants := []struct {
		code   diag.Code
		substr string
	}{
		// Returns of fresh storage without only (paper: erc_create,
		// erc_sprint; ours adds employee_sprint).
		{diag.LeakReturn, "erc.c:16"},
		{diag.LeakReturn, "erc.c:124"},
		{diag.LeakReturn, "employee.c:53"},
		// Fields of the static pool.
		{diag.Leak, "eref_pool.conts"},
		{diag.Leak, "eref_pool.status"},
		// The call to free in erc_final: "Implicitly temp storage c
		// passed as only param: free (c)".
		{diag.AliasTransfer, "storage c passed as only param: free(c)"},
	}
	for _, w := range wants {
		found := false
		for _, d := range res.Diags {
			if d.Code == w.code && (strings.Contains(d.Msg, w.substr) || strings.Contains(d.Pos.String(), w.substr)) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing %v anomaly matching %q; got:\n%s", w.code, w.substr, res.Messages())
		}
	}
	// Every anomaly is allocation- or definition-related (no null
	// anomalies remain).
	if n := countCode(res, diag.NullDeref) + countCode(res, diag.NullReturn); n != 0 {
		t.Errorf("unexpected null anomalies:\n%s", res.Messages())
	}
}

// E6b — the out annotation is discovered through complete-definition
// checking at the employee_init call site.
func TestOutDiscovery(t *testing.T) {
	res := checkStage(t, Asserted, nil)
	if !hasDiag(res, diag.IncompleteDef, "employee_init") {
		t.Fatalf("missing incomplete-definition anomaly at employee_init call:\n%s", res.Messages())
	}
	// Adding /*@out@*/ resolves it.
	res = checkStage(t, AllocAnnotated, nil)
	if hasDiag(res, diag.IncompleteDef, "employee_init") {
		t.Fatalf("out annotation did not resolve the anomaly:\n%s", res.Messages())
	}
}

// E6c — with the only annotations in place, the six driver leaks surface
// ("Six memory leaks are detected in the test driver code where variables
// referencing allocated storage are assigned to new values before the old
// storage is released").
func TestSixDriverLeaks(t *testing.T) {
	res := checkStage(t, AllocAnnotated, nil)
	leaks := 0
	for _, d := range res.Diags {
		if d.Code == diag.Leak && d.Pos.File.String() == "drive.c" &&
			strings.Contains(d.Msg, "not released before assignment") {
			leaks++
		}
	}
	if leaks != 6 {
		t.Fatalf("driver leaks = %d, want 6:\n%s", leaks, res.Messages())
	}
}

// E7 — the unique aliasing anomaly in employee_setName (Figure 8): the
// exact message shape from the paper.
func TestUniqueAnomaly(t *testing.T) {
	res := checkStage(t, AllocAnnotated, nil)
	want := "Parameter 1 (e->name) to function strcpy is declared unique but may be aliased externally by parameter 2 (na)"
	if !hasDiag(res, diag.UniqueAliased, want) {
		t.Fatalf("missing unique anomaly; got:\n%s", res.Messages())
	}
	// Documenting the constraint with unique on the parameter resolves it.
	res = checkStage(t, Final, nil)
	if n := countCode(res, diag.UniqueAliased); n != 0 {
		t.Fatalf("unique anomaly remains at Final:\n%s", res.Messages())
	}
}

// E8 — the final program checks clean under both default flags and
// -allimponly, and the annotation tally is in the paper's ballpark
// (paper: 15 = 1 null + 1 out + 13 only; ours counts every annotation
// marker added across the iterations).
func TestFinalClean(t *testing.T) {
	res := checkStage(t, Final, nil)
	if len(res.Diags) != 0 {
		t.Fatalf("final stage not clean:\n%s", res.Messages())
	}
	fl := flags.Default()
	fl.ImplicitOnly = false
	res = checkStage(t, Final, fl)
	if len(res.Diags) != 0 {
		t.Fatalf("final stage not clean under -allimponly:\n%s", res.Messages())
	}
}

func TestAnnotationTally(t *testing.T) {
	n := AnnotationCount(Final)
	// Paper: 15 annotations. Our reproduction lands within a small
	// neighborhood (the exact split depends on code-shape differences
	// documented in EXPERIMENTS.md).
	if n < 12 || n > 20 {
		t.Fatalf("annotation count = %d, outside the paper's neighborhood", n)
	}
	if AnnotationCount(Bare) != 0 {
		t.Fatal("bare stage should have no annotations")
	}
	if AnnotationCount(NullField) != 2 {
		// The null annotation appears on the two list fields.
		t.Fatalf("null stage annotations = %d", AnnotationCount(NullField))
	}
}

// Anomaly counts decrease monotonically through the workflow's second half
// and the workflow terminates at zero (the paper's "with each iteration
// ... anomalies are added or discovered bugs are fixed").
func TestWorkflowConverges(t *testing.T) {
	var counts []int
	for _, st := range Stages() {
		res := checkStage(t, st, nil)
		counts = append(counts, len(res.Diags))
	}
	if counts[len(counts)-1] != 0 {
		t.Fatalf("did not converge: %v", counts)
	}
	if !(counts[3] < counts[2] && counts[4] < counts[3]) {
		t.Fatalf("not converging: %v", counts)
	}
}

// The program is self-consistent: every stage parses and analyzes without
// frontend errors, and its size is in the paper's ballpark (the paper's
// database is 1000 lines plus 300 lines of specifications).
func TestStagesWellFormed(t *testing.T) {
	for _, st := range Stages() {
		res := checkStage(t, st, nil)
		if res.Program == nil || len(res.Units) != 6 {
			t.Fatalf("stage %s: units = %d", st, len(res.Units))
		}
		for _, fn := range []string{"erc_create", "empset_insert", "employee_setName", "dbase_hire", "main"} {
			if _, ok := res.Program.Lookup(fn); !ok {
				t.Errorf("stage %s: function %s missing", st, fn)
			}
		}
	}
	if n := TotalLines(Final); n < 400 || n > 1500 {
		t.Fatalf("db size = %d lines, want a few hundred", n)
	}
}

// Stage names are stable (used in reports).
func TestStageNames(t *testing.T) {
	want := []string{"bare", "nullfield", "asserted", "allocannotated", "final"}
	for i, st := range Stages() {
		if st.String() != want[i] {
			t.Errorf("stage %d name = %q", i, st.String())
		}
	}
}
