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

// TestHeaderEditMatrix checks edit scripts that change no byte of a .c
// file, only what its #include closure resolves to: a nested header's
// bytes, a header deleted and then created again, a local header
// shadowing a builtin one, a header named only inside #if 0, and the -I
// directories. Module entries are keyed on the sources and the includer's
// answers for their closure, so every state must miss every other state's
// entries. The inputs share their stores and one source, so an entry that
// answers for the wrong headers fails the warm, remote and resident cells
// as well as the edit cells.
func TestHeaderEditMatrix(t *testing.T) {
	t.Parallel()
	const src = "#include <stdlib.h>\n#include \"a.h\"\n#include \"opt.h\"\n#if 0\n#include \"dead.h\"\n#endif\n\n" +
		"int f(int n)\n{\n\tchar *p;\n\tchar *q;\n" +
		"\tp = (char *) malloc(10);\n\tq = (char *) malloc(10);\n\tDROP(p);\n" +
		"#ifdef LOCAL_STDLIB\n\tfree(q);\n#endif\n\treturn n;\n}\n"
	const (
		freeing = "#define DROP(p) free(p)\n"
		leaky   = "#define DROP(p)\n"
	)
	// state is the base headers (q leaks, p is freed) with the given
	// changes; a nil value deletes the header.
	state := func(changes map[string]*string, dirs map[string]map[string]string, incs ...string) Source {
		hdrs := map[string]string{
			"a.h":    "#include \"b.h\"\nextern /*@only@*/ void *malloc(size_t);\nextern void free(/*@only@*/ void *p);\n",
			"b.h":    freeing,
			"opt.h":  "",
			"dead.h": "int dead;\n",
		}
		for name, text := range changes {
			if text == nil {
				delete(hdrs, name)
			} else {
				hdrs[name] = *text
			}
		}
		return Source{Files: map[string]string{"hdr.c": src}, Headers: hdrs, Dirs: dirs, I: incs}
	}
	text := func(s string) *string { return &s }
	base := state(nil, nil)
	incDirs := map[string]map[string]string{
		"inc1": {"b.h": "#define DROP(p) free(p) /* inc1 */\n"},
		"inc2": {"b.h": "#define DROP(p) /* inc2 */\n"},
	}
	fromDirs := func(incs ...string) Source {
		return state(map[string]*string{"b.h": nil}, incDirs, incs...)
	}
	ins := []*Input{
		{Name: "nested", Steps: []Source{base, state(map[string]*string{"b.h": text(leaky)}, nil)}},
		{Name: "deleted", Steps: []Source{base, state(map[string]*string{"opt.h": nil}, nil), base}},
		{Name: "shadowed", Steps: []Source{base,
			state(map[string]*string{"stdlib.h": text("typedef unsigned long size_t;\n#define LOCAL_STDLIB 1\n")}, nil)}},
		{Name: "dead", Steps: []Source{base, state(map[string]*string{"dead.h": text("int dead2;\n")}, nil),
			state(map[string]*string{"dead.h": nil}, nil)}},
		{Name: "include-dirs", Steps: []Source{fromDirs("inc1"), fromDirs("inc2"), fromDirs("inc2", "inc1"),
			fromDirs("inc1", "inc2"), fromDirs("inc2")}},
	}
	Corpus(t, ins, func(*Input) []Config {
		return []Config{{Cache: DiskEdit}, {Cache: DiskEdit, NoFnCache: true}, {Cache: DiskWarm}, {Cache: DiskWarm, Jobs: 4},
			{Cache: Remote}, {Cache: Resident}, {Cache: Resident, Mode: Explain}}
	})
}
