package paritytest

import (
	"testing"

	"golclint/internal/testgen"
)

// Each input is checked in its own parallel subtest: most of a cell's time
// goes to writing cache entries, so inputs overlap each other's waits.

// TestEditMatrix checks edit scripts: each state is checked against a
// cache warmed on the states before it, and must match an uncached run.
// The golden corpus's one-function edits are goldentest's edit-parity rows.
func TestEditMatrix(t *testing.T) {
	t.Parallel()
	// A generated corpus takes a one-function body edit, which re-checks
	// that function alone and replays others, then returns to the original
	// body with an annotation edited in the same module's header, which
	// re-checks 78 functions and replays none.
	base := testgen.Generate(testgen.Config{Seed: 11, Modules: 6, FuncsPer: 4, StmtsPer: 8, Annotate: true, Bugs: AllBugs(2)})
	body, err := base.EditBody("mod3.c", "mod3_calc1")
	if err != nil {
		t.Fatal(err)
	}
	annot, err := base.EditAnnot("mod3")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("seed11", func(t *testing.T) {
		t.Parallel()
		Check(t, &Input{Name: "seed11", Steps: []Source{Generated(base), Generated(body), Generated(annot)},
			Dirty: map[int]int64{1: 1, 2: 78}}, []Config{{Cache: DiskEdit}, {Cache: DiskCold, NoFnCache: true}, {Cache: DiskWarm, NoFnCache: true}})
	})
}

// TestGeneratedMatrix checks generated multi-module programs: repeated
// parallel runs; entries stored at -jobs 1 replayed at -jobs 4 and 8;
// reversed argument order, which changes the order file IDs are handed out
// in; and a remote store under the disk layer. Shard fleets are cli's
// TestShardParity rows.
func TestGeneratedMatrix(t *testing.T) {
	t.Parallel()
	t.Run("seed500", func(t *testing.T) {
		t.Parallel()
		p := testgen.Generate(testgen.Config{Seed: 500, Modules: 8, FuncsPer: 6, Annotate: true, Bugs: AllBugs(3)})
		Check(t, &Input{Name: "seed500", Steps: []Source{Generated(p)}},
			[]Config{{Jobs: 2}, {Jobs: 8}, {Jobs: 8}, {Jobs: 8}, {Jobs: 8}})
	})
	t.Run("seed503", func(t *testing.T) {
		t.Parallel()
		p := testgen.Generate(testgen.Config{Seed: 503, Modules: 8, FuncsPer: 6, Annotate: true,
			Bugs: map[testgen.BugKind]int{testgen.BugLeak: 3, testgen.BugUseAfterFree: 2, testgen.BugNullDeref: 2}})
		Check(t, &Input{Name: "seed503", Steps: []Source{Generated(p)}}, []Config{
			{Cache: DiskCold, Jobs: 1}, {Cache: DiskCold, Jobs: 4}, {Cache: DiskCold, Jobs: 8},
			{Cache: DiskWarm, Jobs: 1}, {Cache: DiskWarm, Jobs: 4}, {Cache: DiskWarm, Jobs: 8},
		})
	})
	t.Run("seed3", func(t *testing.T) {
		t.Parallel()
		p := testgen.Generate(testgen.Config{Seed: 3, Modules: 24, FuncsPer: 4, StmtsPer: 10, Annotate: true, Bugs: AllBugs(4)})
		Check(t, &Input{Name: "seed3", Steps: []Source{Generated(p)}}, []Config{{Jobs: 8, Reverse: true}})
	})
	t.Run("fixture", func(t *testing.T) {
		t.Parallel()
		const src = "extern /*@only@*/ void *malloc(unsigned long);\n\nint leaky (int n)\n{\n\tchar *p;\n" +
			"\tp = (char *) malloc (10);\n\tif (n > 0) { p = (char *) 0; }\n\treturn n;\n}\n"
		Check(t, &Input{Name: "fixture", Steps: []Source{{Files: map[string]string{"fixture.c": src}}}},
			[]Config{{Cache: DiskWarm, Jobs: 1}, {Cache: DiskWarm, Jobs: 8}, {Cache: Remote, Jobs: 1}, {Cache: Remote, Jobs: 8}})
	})
}
