package testgen

import (
	"strings"
	"testing"

	"golclint/internal/core"
	"golclint/internal/cpp"
	"golclint/internal/diag"
	"golclint/internal/interp"
)

func gen(t *testing.T, cfg Config) *Program {
	t.Helper()
	return Generate(cfg)
}

func checkProg(t *testing.T, p *Program) *core.Result {
	t.Helper()
	res := core.CheckSources(p.Files, core.Options{Includes: cpp.MapIncluder(p.Headers)})
	for _, e := range res.ParseErrors {
		t.Fatalf("parse error in generated program: %v", e)
	}
	for _, e := range res.SemaErrors {
		t.Fatalf("sema error in generated program: %v", e)
	}
	return res
}

func TestDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Modules: 3, FuncsPer: 4, Bugs: map[BugKind]int{BugLeak: 2}}
	a := Generate(cfg)
	b := Generate(cfg)
	for name := range a.Files {
		if a.Files[name] != b.Files[name] {
			t.Fatalf("file %s differs between runs", name)
		}
	}
	c := Generate(Config{Seed: 8, Modules: 3, FuncsPer: 4, Bugs: map[BugKind]int{BugLeak: 2}})
	same := true
	for name := range a.Files {
		if a.Files[name] != c.Files[name] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical programs")
	}
}

func TestGeneratedProgramParses(t *testing.T) {
	p := gen(t, Config{Seed: 1, Modules: 4, FuncsPer: 6, WithDriver: true,
		Bugs: map[BugKind]int{BugLeak: 2, BugUseAfterFree: 2, BugNullDeref: 1, BugUninit: 1, BugDoubleFree: 1, BugCondLeak: 1}})
	checkProg(t, p)
	if p.Lines < 200 {
		t.Fatalf("program too small: %d lines", p.Lines)
	}
	if len(p.Bugs) != 8 {
		t.Fatalf("bugs = %d", len(p.Bugs))
	}
}

func TestSizeScalesLinearly(t *testing.T) {
	small := gen(t, Config{Seed: 2, Modules: 2, FuncsPer: 5})
	big := gen(t, Config{Seed: 2, Modules: 20, FuncsPer: 5})
	ratio := float64(big.Lines) / float64(small.Lines)
	if ratio < 5 || ratio > 15 {
		t.Fatalf("scaling off: %d -> %d lines (ratio %.1f)", small.Lines, big.Lines, ratio)
	}
}

// The annotated, bug-free program checks clean: the generator's clean
// templates model post-annotation code.
func TestCleanAnnotatedProgramIsQuiet(t *testing.T) {
	p := gen(t, Config{Seed: 3, Modules: 3, FuncsPer: 5, Annotate: true})
	res := checkProg(t, p)
	if len(res.Diags) != 0 {
		t.Fatalf("clean program produced messages:\n%s", res.Messages())
	}
}

// Every seeded bug kind is detected by the static checker in the function
// it was planted in (ground-truth recall = 1 for this mix).
func TestSeededBugsDetectedStatically(t *testing.T) {
	p := gen(t, Config{Seed: 4, Modules: 3, FuncsPer: 3, Annotate: true,
		Bugs: map[BugKind]int{BugLeak: 1, BugCondLeak: 1, BugUseAfterFree: 1, BugDoubleFree: 1, BugNullDeref: 1, BugUninit: 1}})
	res := checkProg(t, p)
	found := detectedBugs(res, p)
	for i, b := range p.Bugs {
		if !found[i] {
			t.Errorf("seeded %v in %s/%s not detected; messages:\n%s", b.Kind, b.File, b.Func, res.Messages())
		}
	}
}

// detectedBugs maps seeded-bug index -> whether some diagnostic of a
// matching class landed in the bug's function body (located by file).
func detectedBugs(res *core.Result, p *Program) map[int]bool {
	found := map[int]bool{}
	// Locate each bug function's line range by scanning the source.
	type span struct {
		file string
		from int
		to   int
	}
	spans := map[int]span{}
	for i, b := range p.Bugs {
		src := p.Files[b.File]
		lines := strings.Split(src, "\n")
		from, to := -1, -1
		for ln, text := range lines {
			if strings.HasPrefix(text, "int "+b.Func+" ") {
				from = ln + 1
			} else if from > 0 && to < 0 && text == "}" {
				to = ln + 1
			}
		}
		spans[i] = span{file: b.File, from: from, to: to}
	}
	match := func(kind BugKind, code diag.Code) bool {
		switch kind {
		case BugLeak, BugCondLeak:
			return code == diag.Leak || code == diag.LeakReturn
		case BugUseAfterFree:
			return code == diag.UseDead
		case BugDoubleFree:
			return code == diag.UseDead || code == diag.DoubleRelease
		case BugNullDeref:
			return code == diag.NullDeref
		case BugUninit:
			return code == diag.UseUndef
		}
		return false
	}
	for _, d := range res.Diags {
		for i, b := range p.Bugs {
			s := spans[i]
			if d.Pos.File.String() == s.file && int(d.Pos.Line) >= s.from && int(d.Pos.Line) <= s.to && match(b.Kind, d.Code) {
				found[i] = true
			}
		}
	}
	return found
}

// The clean program (no bugs) runs under the interpreter with no runtime
// errors and no leaks.
func TestCleanProgramRuns(t *testing.T) {
	p := gen(t, Config{Seed: 5, Modules: 2, FuncsPer: 4, WithDriver: true})
	res := core.CheckSources(p.Files, core.Options{Includes: cpp.MapIncluder(p.Headers)})
	if len(res.ParseErrors) > 0 {
		t.Fatal(res.ParseErrors)
	}
	run := interp.New(res.Program, interp.Options{}).Run("main")
	if len(run.Errors) != 0 || len(run.Leaks) != 0 {
		t.Fatalf("runtime errors %v leaks %v output %q", run.Errors, run.Leaks, run.Output)
	}
	if run.Output == "" {
		t.Fatal("driver produced no output")
	}
}

// E13's mechanism: the interpreter sees a seeded bug only when the driver
// covers it.
func TestCoverageControlsDynamicDetection(t *testing.T) {
	p := gen(t, Config{Seed: 6, Modules: 2, FuncsPer: 2, WithDriver: true,
		Bugs: map[BugKind]int{BugLeak: 2}})
	// No coverage: no runtime leaks.
	res := core.CheckSources(p.Files, core.Options{Includes: cpp.MapIncluder(p.Headers)})
	run := interp.New(res.Program, interp.Options{}).Run("main")
	if len(run.Leaks) != 0 {
		t.Fatalf("uncovered bugs leaked: %v", run.Leaks)
	}
	// Cover bug 0 only: exactly one leak.
	p1 := p.SetCoverage([]int{0})
	res1 := core.CheckSources(p1.Files, core.Options{Includes: cpp.MapIncluder(p1.Headers)})
	run1 := interp.New(res1.Program, interp.Options{}).Run("main")
	if len(run1.Leaks) != 1 {
		t.Fatalf("covered-bug leaks = %v (errors %v)", run1.Leaks, run1.Errors)
	}
}

func TestBugKindNames(t *testing.T) {
	for _, k := range AllBugKinds() {
		if k.String() == "" {
			t.Errorf("kind %d unnamed", k)
		}
	}
	if len(AllBugKinds()) != 6 {
		t.Fatalf("kinds = %d", len(AllBugKinds()))
	}
}
