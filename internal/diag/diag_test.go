package diag

import (
	"strings"
	"testing"

	"golclint/internal/ctoken"
)

func pos(file string, line int) ctoken.Pos {
	return ctoken.Pos{File: ctoken.FileOf(file), Line: int32(line), Col: 1}
}

func TestReportAndFormat(t *testing.T) {
	r := NewReporter(0)
	d := r.Report(NullReturn, pos("sample.c", 6),
		"Function returns with non-null global %s referencing null storage", "gname")
	d.WithNote(pos("sample.c", 5), "Storage %s may become null", "gname")
	want := "sample.c:6: Function returns with non-null global gname referencing null storage\n" +
		"   sample.c:5: Storage gname may become null\n"
	if got := r.Format(); got != want {
		t.Fatalf("Format:\n%q\nwant:\n%q", got, want)
	}
}

func TestSortOrder(t *testing.T) {
	r := NewReporter(0)
	r.Report(Leak, pos("b.c", 2), "second")
	r.Report(NullDeref, pos("a.c", 9), "first-file")
	r.Report(NullDeref, pos("b.c", 1), "first-line")
	ds := r.Diags()
	if ds[0].Msg != "first-file" || ds[1].Msg != "first-line" || ds[2].Msg != "second" {
		t.Fatalf("order: %v %v %v", ds[0].Msg, ds[1].Msg, ds[2].Msg)
	}
}

// File IDs follow first-seen order, which varies with -jobs; Sort must
// order by file name whatever order the names were interned in.
func TestSortOrdersFilesByName(t *testing.T) {
	late, early := pos("sort_b.c", 1), pos("sort_a.c", 7)
	if early.File < late.File {
		t.Fatalf("sort_a.c interned first (ID %d < %d); the test needs the reverse", early.File, late.File)
	}
	ds := []*Diagnostic{
		{Code: Leak, Pos: late, Msg: "b"},
		{Code: Leak, Pos: early, Msg: "a"},
	}
	Sort(ds)
	if ds[0].Msg != "a" || ds[1].Msg != "b" {
		t.Fatalf("Sort put %s before %s", ds[0].Pos, ds[1].Pos)
	}
}

func TestILineSuppression(t *testing.T) {
	r := NewReporter(0)
	r.MarkILine("x.c", 4)
	if d := r.Report(Leak, pos("x.c", 4), "suppressed same line"); d != nil {
		t.Fatal("not suppressed on same line")
	}
	// Marker is one-shot.
	if d := r.Report(Leak, pos("x.c", 4), "second"); d == nil {
		t.Fatal("marker should be consumed")
	}
	// Marker on preceding line.
	r.MarkILine("x.c", 7)
	if d := r.Report(Leak, pos("x.c", 8), "suppressed next line"); d != nil {
		t.Fatal("not suppressed on following line")
	}
	if r.Suppressed() != 2 {
		t.Fatalf("suppressed = %d", r.Suppressed())
	}
}

func TestRegionSuppression(t *testing.T) {
	r := NewReporter(0)
	r.AddSuppressions([]Control{
		{Pos: pos("y.c", 10), Text: "ignore"},
		{Pos: pos("y.c", 20), Text: "end"},
	})
	if r.Report(UseDead, pos("y.c", 15), "inside") != nil {
		t.Fatal("inside region not suppressed")
	}
	if r.Report(UseDead, pos("y.c", 21), "after") == nil {
		t.Fatal("after region suppressed")
	}
	if r.Report(UseDead, pos("z.c", 15), "other file") == nil {
		t.Fatal("other file suppressed")
	}
}

func TestUnterminatedRegion(t *testing.T) {
	r := NewReporter(0)
	r.AddSuppressions([]Control{{Pos: pos("y.c", 3), Text: "ignore"}})
	if r.Report(Leak, pos("y.c", 9999), "way later") != nil {
		t.Fatal("unterminated region should suppress to EOF")
	}
}

func TestNestedRegions(t *testing.T) {
	r := NewReporter(0)
	r.AddSuppressions([]Control{
		{Pos: pos("n.c", 1), Text: "ignore"},
		{Pos: pos("n.c", 3), Text: "ignore"},
		{Pos: pos("n.c", 5), Text: "end"},
		{Pos: pos("n.c", 9), Text: "end"},
	})
	for _, ln := range []int{2, 4, 6, 8} {
		if r.Report(Leak, pos("n.c", ln), "in") != nil {
			t.Errorf("line %d not suppressed", ln)
		}
	}
	if r.Report(Leak, pos("n.c", 10), "out") == nil {
		t.Error("line 10 suppressed")
	}
}

func TestISuppressionViaControls(t *testing.T) {
	r := NewReporter(0)
	r.AddSuppressions([]Control{{Pos: pos("i.c", 5), Text: "i"}})
	if r.Report(Leak, pos("i.c", 5), "x") != nil {
		t.Fatal("i control ineffective")
	}
}

func TestMaxMessages(t *testing.T) {
	r := NewReporter(2)
	r.Report(Leak, pos("m.c", 1), "a")
	r.Report(Leak, pos("m.c", 2), "b")
	if r.Report(Leak, pos("m.c", 3), "c") != nil {
		t.Fatal("over-limit message retained")
	}
	if r.Len() != 2 || r.Suppressed() != 1 {
		t.Fatalf("len=%d suppressed=%d", r.Len(), r.Suppressed())
	}
}

func TestCountByCode(t *testing.T) {
	r := NewReporter(0)
	r.Report(Leak, pos("c.c", 1), "l1")
	r.Report(Leak, pos("c.c", 2), "l2")
	r.Report(NullDeref, pos("c.c", 3), "n")
	m := r.CountByCode()
	if m[Leak] != 2 || m[NullDeref] != 1 {
		t.Fatalf("counts = %v", m)
	}
}

func TestCodeString(t *testing.T) {
	if NullDeref.String() != "nullderef" || Leak.String() != "mustfree" {
		t.Fatal("code names")
	}
	if Code(999).String() != "code(999)" {
		t.Fatal("unknown code name")
	}
	for c := Code(0); c < numCodes; c++ {
		if strings.HasPrefix(c.String(), "code(") {
			t.Errorf("code %d unnamed", c)
		}
	}
}

func TestNilDiagnosticWithNote(t *testing.T) {
	var d *Diagnostic
	if d.WithNote(pos("x.c", 1), "note") != nil {
		t.Fatal("nil WithNote should return nil")
	}
}

func TestLocalFlagToggle(t *testing.T) {
	r := NewReporter(0)
	r.AddSuppressions([]Control{
		{Pos: pos("f.c", 10), Text: "-alloc"},
		{Pos: pos("f.c", 20), Text: "+alloc"},
	})
	if r.Report(Leak, pos("f.c", 15), "inside") != nil {
		t.Fatal("alloc message inside off-span retained")
	}
	if r.Report(NullDeref, pos("f.c", 15), "other class") == nil {
		t.Fatal("unrelated class suppressed")
	}
	if r.Report(Leak, pos("f.c", 25), "after") == nil {
		t.Fatal("message after re-enable suppressed")
	}
	if r.Report(Leak, pos("g.c", 15), "other file") == nil {
		t.Fatal("other file suppressed")
	}
}

func TestLocalFlagUnclosed(t *testing.T) {
	r := NewReporter(0)
	r.AddSuppressions([]Control{{Pos: pos("f.c", 3), Text: "-null"}})
	if r.Report(NullDeref, pos("f.c", 999), "way later") != nil {
		t.Fatal("unclosed toggle should run to EOF")
	}
}

func TestUnknownLocalFlagIgnored(t *testing.T) {
	r := NewReporter(0)
	r.AddSuppressions([]Control{{Pos: pos("f.c", 1), Text: "-wibble"}})
	if r.Report(Leak, pos("f.c", 5), "x") == nil {
		t.Fatal("unknown flag suppressed messages")
	}
}

// Every diagnostic code must have an explicit, unique, parseable name:
// these names key the -stats, -stats-json, and trace surfaces, so a
// collision or fallback spelling would silently merge categories.
func TestCodeNamesRoundTrip(t *testing.T) {
	seen := map[string]Code{}
	for _, c := range Codes() {
		name := c.String()
		if strings.HasPrefix(name, "code(") {
			t.Errorf("code %d has no explicit name", int(c))
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("codes %d and %d share the name %q", int(prev), int(c), name)
		}
		seen[name] = c
		parsed, ok := ParseCode(name)
		if !ok || parsed != c {
			t.Errorf("ParseCode(%q) = %v, %v; want %v, true", name, parsed, ok, c)
		}
		txt, err := c.MarshalText()
		if err != nil || string(txt) != name {
			t.Errorf("MarshalText(%v) = %q, %v", c, txt, err)
		}
		var back Code
		if err := back.UnmarshalText(txt); err != nil || back != c {
			t.Errorf("UnmarshalText(%q) = %v, %v", txt, back, err)
		}
	}
	if len(seen) != int(numCodes) {
		t.Fatalf("Codes() covered %d names, want %d", len(seen), int(numCodes))
	}
	if _, ok := ParseCode("no-such-code"); ok {
		t.Error("ParseCode accepted an unknown name")
	}
	var c Code
	if err := c.UnmarshalText([]byte("no-such-code")); err == nil {
		t.Error("UnmarshalText accepted an unknown name")
	}
}

func TestEqual(t *testing.T) {
	base := &Diagnostic{Code: Leak, Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 3, Col: 2}, Msg: "m",
		Notes: []Note{{Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 1}, Msg: "n"}}}
	same := &Diagnostic{Code: Leak, Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 3, Col: 2}, Msg: "m",
		Notes: []Note{{Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 1}, Msg: "n"}}}
	if !Equal(base, same) {
		t.Error("identical diagnostics compare unequal")
	}
	diffNote := &Diagnostic{Code: Leak, Pos: base.Pos, Msg: "m",
		Notes: []Note{{Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 2}, Msg: "n"}}}
	if Equal(base, diffNote) {
		t.Error("note difference not detected")
	}
	if Equal(base, nil) || !Equal(nil, nil) {
		t.Error("nil handling wrong")
	}
	// Equal compares witnesses and validation records too: a warm
	// -explain or -validate run replays them verbatim.
	withProv := func() *Diagnostic {
		d := *base
		d.Prov = &Provenance{Ref: "p", Steps: []ProvStep{
			{Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 3}, Kind: "entry", Msg: "checking function f"},
			{Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 10}, Kind: "alloc", Msg: "fresh storage allocated"},
		}}
		d.Validation = &Validation{Tag: Confirmed, Detail: "f(0) faults"}
		return &d
	}
	if !Equal(withProv(), withProv()) {
		t.Error("identical witnesses compare unequal")
	}
	mut := withProv()
	mut.Prov.Steps[1].Kind = "release"
	if Equal(withProv(), mut) {
		t.Error("witness step difference not detected")
	}
	none := withProv()
	none.Prov = nil
	if Equal(withProv(), none) {
		t.Error("missing provenance not detected")
	}
	tag := withProv()
	tag.Validation.Tag = Unreproduced
	if Equal(withProv(), tag) {
		t.Error("validation tag difference not detected")
	}
}

// String must ignore provenance: default output is byte-identical whether
// or not witnesses were recorded.
func TestStringIgnoresProvenance(t *testing.T) {
	plain := &Diagnostic{Code: Leak, Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 3}, Msg: "m"}
	traced := &Diagnostic{Code: Leak, Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 3}, Msg: "m",
		Prov: &Provenance{Ref: "p", Steps: []ProvStep{{Kind: "entry", Msg: "f"}}}}
	if plain.String() != traced.String() {
		t.Errorf("String differs with provenance attached: %q vs %q", plain.String(), traced.String())
	}
	if traced.Explain() == traced.String() {
		t.Error("Explain did not append the witness")
	}
}
