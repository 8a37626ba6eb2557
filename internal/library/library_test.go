package library

import (
	"bytes"
	"testing"

	"golclint/internal/annot"
	"golclint/internal/core"
	"golclint/internal/cpp"
	"golclint/internal/diag"
	"golclint/internal/flags"
	"golclint/internal/testgen"
)

// analyzeAll checks a whole program and returns the result.
func analyzeAll(t *testing.T, files, headers map[string]string) *core.Result {
	t.Helper()
	res := core.CheckSources(files, core.Options{Includes: cpp.MapIncluder(headers)})
	for _, e := range res.ParseErrors {
		t.Fatalf("parse: %v", e)
	}
	return res
}

func TestBuildAndStats(t *testing.T) {
	res := analyzeAll(t, map[string]string{"a.c": `
extern /*@null@*/ /*@only@*/ char *gname;
typedef struct _n { int v; /*@null@*/ struct _n *next; } node;
/*@only@*/ node *mk (int v);
/*@only@*/ node *mk (int v) {
	node *n;
	n = (node *) malloc (sizeof (node));
	if (n == NULL) { exit (1); }
	n->v = v;
	n->next = NULL;
	return n;
}
`}, nil)
	lib := Build(res.Program)
	if len(lib.Funcs) != 1 || lib.Funcs[0].Name != "mk" {
		t.Fatalf("funcs = %+v", lib.Funcs)
	}
	if len(lib.Globals) != 1 || lib.Globals[0].Name != "gname" {
		t.Fatalf("globals = %+v", lib.Globals)
	}
	if lib.Stats() == "" {
		t.Fatal("empty stats")
	}
	// Builtins are excluded.
	for _, f := range lib.Funcs {
		if f.Name == "malloc" {
			t.Fatal("builtin leaked into library")
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	// Recursive types must survive serialization (gob cannot do this
	// directly; the flattened table must).
	res := analyzeAll(t, map[string]string{"list.c": `
typedef /*@null@*/ struct _list {
	/*@only@*/ char *this;
	/*@null@*/ /*@only@*/ struct _list *next;
} *list;
extern void take (/*@temp@*/ list l);
void take (/*@temp@*/ list l) { }
`}, nil)
	lib := Build(res.Program)
	var buf bytes.Buffer
	if err := lib.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Funcs) != len(lib.Funcs) || len(got.Types) != len(lib.Types) {
		t.Fatalf("round trip mismatch: %s vs %s", got.Stats(), lib.Stats())
	}
	// The recursive knot is preserved: take's param resolves to a
	// pointer-to-struct whose next field points back at the same struct.
	fresh := core.CheckSource("empty.c", "", core.Options{})
	if err := got.Install(fresh.Program); err != nil {
		t.Fatalf("install: %v", err)
	}
	sig, ok := fresh.Program.Lookup("take")
	if !ok {
		t.Fatal("take not installed")
	}
	pt := sig.Params[0].Type
	st := pt.Resolve().Elem.Resolve()
	f, ok := st.FieldByName("next")
	if !ok || f.Type.Resolve().Elem.Resolve() != st {
		t.Fatal("recursive type knot broken by serialization")
	}
	if !f.Annots.Has(annot.Null) || !f.Annots.Has(annot.Only) {
		t.Fatalf("field annots lost: %v", f.Annots)
	}
	eff := sig.EffectiveParam(0)
	if !eff.Has(annot.Null) || !eff.Has(annot.Temp) {
		t.Fatalf("effective param annots lost: %v", eff)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("expected decode error")
	}
}

// Modular checking produces the same diagnostics for a module as checking
// it within the whole program.
func TestModularMatchesWhole(t *testing.T) {
	p := testgen.Generate(testgen.Config{
		Seed: 11, Modules: 4, FuncsPer: 4, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: 2, testgen.BugUseAfterFree: 2},
	})
	whole := analyzeAll(t, p.Files, p.Headers)

	lib := Build(whole.Program)
	var buf bytes.Buffer
	if err := lib.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	lib2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Re-check only mod0.c against the library.
	mod := map[string]string{"mod0.c": p.Files["mod0.c"]}
	res := CheckModule(mod, lib2, core.Options{Includes: cpp.MapIncluder(p.Headers)})
	for _, e := range res.ParseErrors {
		t.Fatalf("modular parse: %v", e)
	}
	for _, e := range res.SemaErrors {
		t.Fatalf("modular sema: %v", e)
	}

	wholeInMod := map[string]int{}
	for _, d := range whole.Diags {
		if d.Pos.File.String() == "mod0.c" {
			wholeInMod[d.Code.String()+"|"+d.Msg]++
		}
	}
	modular := map[string]int{}
	for _, d := range res.Diags {
		if d.Pos.File.String() == "mod0.c" {
			modular[d.Code.String()+"|"+d.Msg]++
		}
	}
	if len(wholeInMod) == 0 {
		t.Fatal("expected some diagnostics in mod0.c (seeded bugs)")
	}
	for k, n := range wholeInMod {
		if modular[k] != n {
			t.Errorf("modular missing %q (%d vs %d)\nwhole:\n%s\nmodular:\n%s",
				k, n, modular[k], whole.Messages(), res.Messages())
		}
	}
}

// Installing a library does not clobber the module's own definitions.
func TestInstallKeepsDefinitions(t *testing.T) {
	src := map[string]string{"m.c": "int f (int a) { return a + 1; }\n"}
	whole := analyzeAll(t, src, nil)
	lib := Build(whole.Program)

	res := CheckModule(src, lib, core.Options{})
	sig, ok := res.Program.Lookup("f")
	if !ok || !sig.HasBody {
		t.Fatal("module definition clobbered by library install")
	}
}

// A decoded record's line outside the int32 range of a position installs
// as line 0, never as a wrapped line.
func TestInstallOutOfRangeLine(t *testing.T) {
	lib := &Library{
		Funcs:   []funcRec{{Name: "far", Result: -1, File: "big.c", Line: 1 << 32}},
		Globals: []globalRec{{Name: "g", Type: -1, File: "big.c", Line: 1<<31 + 5}},
	}
	res := CheckModule(map[string]string{"m.c": "int m;\n"}, lib, core.Options{})
	sig, ok := res.Program.Lookup("far")
	if !ok || sig.Pos.Line != 0 || sig.Pos.File.String() != "big.c" {
		t.Fatalf("installed far at %+v (found %t)", sig.Pos, ok)
	}
	if g := res.Program.Globals["g"]; g == nil || g.Pos.Line != 0 {
		t.Fatalf("installed g = %+v", g)
	}
}

// The ercdb Final stage checks clean under modular checking too.
func TestModularFlagsRespected(t *testing.T) {
	p := testgen.Generate(testgen.Config{Seed: 12, Modules: 2, FuncsPer: 2,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: 1}})
	whole := analyzeAll(t, p.Files, p.Headers)
	lib := Build(whole.Program)
	fl := flags.Default()
	fl.AllocChecking = false
	res := CheckModule(map[string]string{"mod0.c": p.Files["mod0.c"]}, lib,
		core.Options{Flags: fl, Includes: cpp.MapIncluder(p.Headers)})
	for _, d := range res.Diags {
		if d.Code == diag.Leak || d.Code == diag.LeakReturn {
			t.Fatalf("leak reported with alloc checking off: %v", d)
		}
	}
}
