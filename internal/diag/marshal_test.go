package diag

import (
	"strings"
	"testing"

	"golclint/internal/ctoken"
)

// sampleDiags builds a representative diagnostic set: every code, multi-note
// messages, empty and non-ASCII text, and positions with every field set.
func sampleDiags() []*Diagnostic {
	var ds []*Diagnostic
	for _, c := range Codes() {
		d := &Diagnostic{
			Code: c,
			Pos:  ctoken.Pos{File: ctoken.FileOf("mod1.c"), Line: 10 + int32(c), Col: 3, Off: 120 + int32(c)},
			Msg:  "storage p may become " + c.String(),
		}
		if int(c)%2 == 0 {
			d.WithNote(ctoken.Pos{File: ctoken.FileOf("mod1.c"), Line: 5, Col: 1, Off: 40}, "Storage p allocated")
			d.WithNote(ctoken.Pos{File: ctoken.FileOf("mod0.h"), Line: 2, Col: 7, Off: 9}, "declared with /*@only@*/")
		}
		ds = append(ds, d)
	}
	ds = append(ds, &Diagnostic{Code: UnknownName, Pos: ctoken.Pos{Line: 1}, Msg: ""})
	ds = append(ds, &Diagnostic{Code: TypeError, Pos: ctoken.Pos{File: ctoken.FileOf("ü.c"), Line: 7}, Msg: "naïve cast — \"quoted\""})
	return ds
}

// The cache replays serialized diagnostics in place of live ones, so the
// round trip must preserve every field and the rendered output.
func TestMarshalRoundTrip(t *testing.T) {
	ds := sampleDiags()
	b, err := Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualAll(ds, got) {
		t.Fatalf("round trip changed diagnostics:\nbefore %+v\nafter  %+v", ds, got)
	}
	for i := range ds {
		if Compare(ds[i], got[i]) != 0 {
			t.Errorf("diag %d: Compare != 0 after round trip", i)
		}
		if ds[i].String() != got[i].String() {
			t.Errorf("diag %d renders differently:\n%q\nvs\n%q", i, ds[i].String(), got[i].String())
		}
	}
}

func TestMarshalRoundTripEmpty(t *testing.T) {
	b, err := Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("round trip of empty set = %v", got)
	}
}

func TestMarshalNilEntry(t *testing.T) {
	if _, err := Marshal([]*Diagnostic{nil}); err == nil {
		t.Fatal("marshal of nil entry succeeded; want error")
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	cases := []string{
		"",                      // empty
		"{",                     // truncated
		"[{\"code\":\"nope\"}]", // unknown code
		"\x00\x01\x02",          // binary garbage
		"[{\"code\":17}]",       // wrong code type (number, not name)
		// Position fields no lexer can produce (past int32).
		`[{"code":"mustfree","pos":{"file":"a.c","line":2147483648,"col":1,"off":0},"msg":"m"}]`,
		`[{"code":"mustfree","pos":{"file":"a.c","line":1,"col":1,"off":0},"msg":"m",` +
			`"notes":[{"pos":{"file":"a.c","line":1,"col":1,"off":-2147483649},"msg":"n"}]}]`,
		`[{"code":"mustfree","pos":{"file":"a.c","line":1,"col":1,"off":0},"msg":"m",` +
			`"prov":{"steps":[{"pos":{"file":"a.c","line":1,"col":4294967297,"off":0},"kind":"entry","msg":"f"}]}}]`,
	}
	for _, src := range cases {
		if _, err := Unmarshal([]byte(src)); err == nil {
			t.Errorf("Unmarshal(%q) succeeded; want error", src)
		}
	}
}

// Codes serialize by name, not number, so renumbering cannot corrupt caches.
func TestMarshalUsesCodeNames(t *testing.T) {
	b, err := Marshal([]*Diagnostic{{Code: Leak, Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 1}, Msg: "m"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "\"mustfree\"") {
		t.Fatalf("serialized form lacks code name: %s", b)
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
}

// Provenance must round-trip through the wire format and be compared by
// Equal — a warm -explain run replays cached witnesses verbatim.
func TestMarshalProvenanceRoundTrip(t *testing.T) {
	d := &Diagnostic{Code: UseDead, Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 14}, Msg: "used after release",
		Prov: &Provenance{Ref: "p", Steps: []ProvStep{
			{Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 3}, Kind: "entry", Msg: "checking function f"},
			{Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 10}, Kind: "alloc", Msg: "fresh storage allocated"},
			{Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 12}, Kind: "release", Msg: "released by call to free"},
		}}}
	b, err := Marshal([]*Diagnostic{d})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || !Equal(d, back[0]) {
		t.Fatalf("provenance did not round-trip:\n got %+v\nwant %+v", back[0].Prov, d.Prov)
	}
	if back[0].Explain() != d.Explain() {
		t.Fatalf("Explain drifted over the wire:\n%s\nvs\n%s", back[0].Explain(), d.Explain())
	}
	// Equal must detect witness differences.
	mut, _ := Unmarshal(b)
	mut[0].Prov.Steps[1].Kind = "release"
	if Equal(d, mut[0]) {
		t.Error("witness step difference not detected by Equal")
	}
	none, _ := Unmarshal(b)
	none[0].Prov = nil
	if Equal(d, none[0]) {
		t.Error("missing provenance not detected by Equal")
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
