package sema

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"golclint/internal/annot"
	"golclint/internal/cast"
	"golclint/internal/cparse"
	"golclint/internal/cpp"
	"golclint/internal/flags"
	"golclint/internal/testgen"
)

func analyze(t *testing.T, srcs ...string) *Program {
	t.Helper()
	var units []*cast.Unit
	for i, src := range srcs {
		r := cparse.Parse("t.c", src)
		if len(r.Errors) > 0 {
			t.Fatalf("parse errors in src %d: %v", i, r.Errors)
		}
		units = append(units, r.Unit)
	}
	return Analyze(units)
}

func TestStdlibRegistered(t *testing.T) {
	p := analyze(t)
	m, ok := p.Lookup("malloc")
	if !ok || !m.Builtin {
		t.Fatal("malloc missing")
	}
	res := m.EffectiveResult(flags.Default())
	if !res.Has(annot.Null) || !res.Has(annot.Out) || !res.Has(annot.Only) {
		t.Fatalf("malloc result = %v", res)
	}
	f, _ := p.Lookup("free")
	pa := f.EffectiveParam(0)
	if !pa.Has(annot.Null) || !pa.Has(annot.Out) || !pa.Has(annot.Only) {
		t.Fatalf("free param = %v", pa)
	}
	sc, _ := p.Lookup("strcpy")
	p0 := sc.EffectiveParam(0)
	if !p0.Has(annot.Out) || !p0.Has(annot.Returned) || !p0.Has(annot.Unique) {
		t.Fatalf("strcpy s1 = %v", p0)
	}
	// Unannotated param defaults: temp, notnull, in.
	p1 := sc.EffectiveParam(1)
	if !p1.Has(annot.Temp) || !p1.Has(annot.NotNull) || !p1.Has(annot.In) {
		t.Fatalf("strcpy s2 = %v", p1)
	}
	e, _ := p.Lookup("exit")
	if !e.NoReturn {
		t.Fatal("exit not noreturn")
	}
}

func TestGlobalRegistration(t *testing.T) {
	p := analyze(t, "extern char *gname;\nstatic int counter;\nint answer = 42;\n")
	g, ok := p.Global("gname")
	if !ok || g.Static || g.HasInit {
		t.Fatalf("gname = %+v", g)
	}
	c, _ := p.Global("counter")
	if !c.Static {
		t.Fatal("counter not static")
	}
	a, _ := p.Global("answer")
	if !a.HasInit {
		t.Fatal("answer has init")
	}
}

func TestGlobalEffectiveAnnots(t *testing.T) {
	p := analyze(t, "extern /*@null@*/ /*@only@*/ char *gname;\nextern char *plain;\nextern int scalar;\n")
	fl := flags.Default()
	g, _ := p.Global("gname")
	eff := g.Effective(fl)
	if !eff.Has(annot.Null) || !eff.Has(annot.Only) {
		t.Fatalf("gname eff = %v", eff)
	}
	// Unannotated pointer globals are shared (no implicit only; the
	// paper's Figure 2 reports exactly the null anomaly).
	plain, _ := p.Global("plain")
	eff = plain.Effective(fl)
	if eff.Has(annot.Only) || !eff.Has(annot.Shared) || !eff.Has(annot.NotNull) {
		t.Fatalf("plain eff = %v", eff)
	}
}

func TestPrototypeThenDefinition(t *testing.T) {
	src := `extern /*@only@*/ char *mkname(/*@temp@*/ char *base);
char *mkname(char *base) { return base; }
`
	p := analyze(t, src)
	sig, _ := p.Lookup("mkname")
	if !sig.HasBody {
		t.Fatal("definition lost")
	}
	if !sig.ResultAnnots.Has(annot.Only) {
		t.Fatalf("result annots not merged: %v", sig.ResultAnnots)
	}
	if !sig.Params[0].Annots.Has(annot.Temp) {
		t.Fatalf("param annots not merged: %v", sig.Params[0].Annots)
	}
}

func TestDefinitionThenPrototype(t *testing.T) {
	src := `char *mkname(char *base) { return base; }
extern /*@only@*/ char *mkname(/*@temp@*/ char *base);
`
	p := analyze(t, src)
	sig, _ := p.Lookup("mkname")
	if !sig.HasBody || !sig.ResultAnnots.Has(annot.Only) {
		t.Fatalf("sig = %+v", sig)
	}
}

func TestSignatureConflict(t *testing.T) {
	p := analyze(t, "int f(int a);\nint f(int a, int b);\n")
	if len(p.Errors) == 0 {
		t.Fatal("want conflicting-declaration error")
	}
	if !strings.Contains(p.Errors[0].Msg, "conflicting") {
		t.Fatalf("msg = %q", p.Errors[0].Msg)
	}
}

func TestReturnTypeConflict(t *testing.T) {
	p := analyze(t, "int f(int a);\nchar *f(int a);\n")
	if len(p.Errors) == 0 {
		t.Fatal("want return-type conflict")
	}
}

func TestRedefinition(t *testing.T) {
	p := analyze(t, "int f(void) { return 1; }\nint f(void) { return 2; }\n")
	if len(p.Errors) == 0 {
		t.Fatal("want redefinition error")
	}
}

func TestPlacementErrors(t *testing.T) {
	// temp is parameters-only; using it on a global is an error.
	p := analyze(t, "extern /*@temp@*/ char *g;\n")
	if len(p.Errors) == 0 {
		t.Fatal("want placement error")
	}
	// observer is results-only; on a parameter it is an error.
	p = analyze(t, "void f(/*@observer@*/ char *p);\n")
	if len(p.Errors) == 0 {
		t.Fatal("want observer placement error")
	}
}

func TestTrueNullFalseNull(t *testing.T) {
	p := analyze(t, "extern /*@truenull@*/ int isNull(/*@null@*/ char *x);\nextern /*@falsenull@*/ int nonNull(/*@null@*/ char *x);\n")
	a, _ := p.Lookup("isNull")
	b, _ := p.Lookup("nonNull")
	if !a.IsTrueNull() || a.IsFalseNull() || !b.IsFalseNull() || b.IsTrueNull() {
		t.Fatal("truenull/falsenull wrong")
	}
}

func TestGlobalsUsed(t *testing.T) {
	src := `extern char *gname;
extern int count;
void touch(char *pname) { gname = pname; }
void local(void) { int gname; gname = 1; }
void both(void) { count++; gname = 0; }
`
	p := analyze(t, src)
	tch, _ := p.Lookup("touch")
	if len(tch.GlobalsUsed) != 1 || tch.GlobalsUsed[0] != "gname" {
		t.Fatalf("touch globals = %v", tch.GlobalsUsed)
	}
	loc, _ := p.Lookup("local")
	if len(loc.GlobalsUsed) != 0 {
		t.Fatalf("local globals = %v (shadowed)", loc.GlobalsUsed)
	}
	b, _ := p.Lookup("both")
	if len(b.GlobalsUsed) != 2 {
		t.Fatalf("both globals = %v", b.GlobalsUsed)
	}
}

// A global is left out of GlobalsUsed when the function declares the same
// name as a parameter or as a local anywhere in its body, before or after
// the use and at any block depth.
func TestGlobalsUsedShadowing(t *testing.T) {
	src := `extern char *gname;
extern int count;
int total;
void param(int count) { count = 1; gname = 0; }
void after(void) { count++; total = 2; int count; }
void nested(void) { gname = 0; total++; if (total) { char *gname; gname = 0; } }
void deep(void) { while (total) { { int total; total = count; } } }
void none(int x) { int y; y = x; }
void allshadowed(char *gname) { int count; int total; count = total; gname = 0; }
void repeat(void) { total = count + count * total; count = total; }
`
	p := analyze(t, src)
	want := map[string][]string{
		"param":       {"gname"},
		"after":       {"total"},
		"nested":      {"total"},
		"deep":        {"count"},
		"none":        nil,
		"allshadowed": nil,
		"repeat":      {"count", "total"},
	}
	for name, w := range want {
		sig, _ := p.Lookup(name)
		if !reflect.DeepEqual(sig.GlobalsUsed, w) {
			t.Errorf("%s: GlobalsUsed = %#v, want %#v", name, sig.GlobalsUsed, w)
		}
	}
}

// globalsUsedTwoWalk is the reference GlobalsUsed: one walk collects the
// shadowing declarations, a second the global references.
func globalsUsedTwoWalk(p *Program, f *cast.FuncDef) []string {
	shadow := map[string]bool{}
	for _, prm := range f.Params {
		shadow[prm.Name] = true
	}
	cast.Inspect(f.Body, func(n cast.Node) bool {
		if ds, ok := n.(*cast.DeclStmt); ok {
			for _, d := range ds.Decls {
				if vd, ok := d.(*cast.VarDecl); ok {
					shadow[vd.Name] = true
				}
			}
		}
		return true
	})
	seen := map[string]bool{}
	cast.Inspect(f.Body, func(n cast.Node) bool {
		if id, ok := n.(*cast.Ident); ok && !shadow[id.Name] {
			if _, isGlobal := p.Globals[id.Name]; isGlobal {
				seen[id.Name] = true
			}
		}
		return true
	})
	var names []string
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GlobalsUsed feeds library fingerprints, so on real programs it must equal
// the reference exactly: same names, same order, nil when empty.
func TestGlobalsUsedMatchesReference(t *testing.T) {
	bugs := map[testgen.BugKind]int{}
	for _, k := range testgen.AllBugKinds() {
		bugs[k] = 1
	}
	gen := testgen.Generate(testgen.Config{Seed: 5, Modules: 6, FuncsPer: 4, StmtsPer: 12, Annotate: true, Bugs: bugs})
	files := map[string]string{}
	for name, src := range gen.Files {
		files[name] = src
	}
	corpus, _ := filepath.Glob("../../testdata/corpus/*.c")
	for _, path := range corpus {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[path] = string(b)
	}
	var units []*cast.Unit
	for name, src := range files {
		pp := cpp.New(cpp.MapIncluder(gen.Headers))
		pp.Define("NULL", "((void*)0)")
		units = append(units, cparse.Parse(name, pp.Process(name, src)).Unit)
	}
	p := Analyze(units)
	withGlobals := 0
	for _, u := range units {
		for _, f := range u.Funcs() {
			sig := p.Funcs[f.Name]
			if sig.Pos != f.Pos() {
				continue // a later definition of the same name won
			}
			want := globalsUsedTwoWalk(p, f)
			if !reflect.DeepEqual(sig.GlobalsUsed, want) {
				t.Errorf("%s: GlobalsUsed = %#v, want %#v", f.Name, sig.GlobalsUsed, want)
			}
			if len(want) > 0 {
				withGlobals++
			}
		}
	}
	if withGlobals == 0 {
		t.Fatal("no function uses a global: the comparison checked nothing")
	}
}

func TestEnumsCollected(t *testing.T) {
	p := analyze(t, "enum color { RED, GREEN = 5 };\ntypedef enum { A = 1, B } letter;\n")
	if p.Enums["GREEN"] != 5 || p.Enums["RED"] != 0 || p.Enums["B"] != 2 {
		t.Fatalf("enums = %v", p.Enums)
	}
}

func TestUserOverridesBuiltin(t *testing.T) {
	// A user prototype for malloc replaces the builtin (no conflict
	// errors against builtins).
	p := analyze(t, "/*@only@*/ void *malloc(unsigned long size);\n")
	if len(p.Errors) != 0 {
		t.Fatalf("errors: %v", p.Errors)
	}
	m, _ := p.Lookup("malloc")
	if m.Builtin {
		t.Fatal("user decl should replace builtin")
	}
	res := m.EffectiveResult(flags.Default())
	if res.Has(annot.Null) || !res.Has(annot.Only) {
		t.Fatalf("overridden malloc result = %v", res)
	}
}

func TestFuncNames(t *testing.T) {
	p := analyze(t, "void zzz(void){}\nvoid aaa(void){}\n")
	ns := p.FuncNames()
	// Sorted, and includes builtins.
	found := map[string]bool{}
	for i := 1; i < len(ns); i++ {
		if ns[i-1] > ns[i] {
			t.Fatal("not sorted")
		}
	}
	for _, n := range ns {
		found[n] = true
	}
	if !found["aaa"] || !found["zzz"] || !found["malloc"] {
		t.Fatalf("names = %v", ns)
	}
}

func TestEffectiveParamOutOfRange(t *testing.T) {
	p := analyze(t)
	m, _ := p.Lookup("malloc")
	eff := m.EffectiveParam(5)
	if !eff.Has(annot.Temp) || !eff.Has(annot.NotNull) {
		t.Fatalf("fallback param = %v", eff)
	}
}

func TestTypedefAnnotsReachParams(t *testing.T) {
	src := `typedef /*@null@*/ struct _l { int v; } *list;
void f(/*@temp@*/ list l) { }
`
	p := analyze(t, src)
	sig, _ := p.Lookup("f")
	eff := sig.EffectiveParam(0)
	if !eff.Has(annot.Null) || !eff.Has(annot.Temp) {
		t.Fatalf("eff = %v", eff)
	}
}
