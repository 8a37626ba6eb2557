package cache

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"golclint/internal/ctoken"
	"golclint/internal/diag"
)

// sampleDiags builds a representative diagnostic set: every code, multi-note
// messages, empty and non-ASCII text, and positions with every field set.
func sampleDiags() []*diag.Diagnostic {
	var ds []*diag.Diagnostic
	for _, c := range diag.Codes() {
		d := &diag.Diagnostic{
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
	ds = append(ds, &diag.Diagnostic{Code: diag.UnknownName, Pos: ctoken.Pos{Line: 1}, Msg: ""})
	ds = append(ds, &diag.Diagnostic{Code: diag.TypeError, Pos: ctoken.Pos{File: ctoken.FileOf("ü.c"), Line: 7}, Msg: "naïve cast — \"quoted\""})
	return ds
}

// explainedDiags is sampleDiags with witness paths and validation records
// on some of them, as a warm -explain or -validate run replays them.
func explainedDiags() []*diag.Diagnostic {
	ds := sampleDiags()
	ds[0].Prov = &diag.Provenance{Ref: "p", Steps: []diag.ProvStep{
		{Pos: ds[0].Notes[1].Pos, Kind: "entry", Msg: "checking function f"},
		{Pos: ds[0].Notes[0].Pos, Kind: "alloc", Msg: "fresh storage allocated"},
		{Kind: "path", Msg: "blocks 1 -> 3"},
		{Pos: ds[0].Pos, Kind: "release", Msg: "released by call to free"},
	}}
	ds[0].Validation = &diag.Validation{Tag: diag.Confirmed, Detail: "f(0) faults at mod1.c:10"}
	ds[1].Validation = &diag.Validation{Tag: diag.PathInfeasible}
	ds[len(ds)-1].Prov = &diag.Provenance{Steps: []diag.ProvStep{{Pos: ds[len(ds)-1].Pos, Kind: "null", Msg: "q may become null"}}}
	return ds
}

const recordKey = "00cab9af50d1003cb8384203f3124aad3510934317855787aaf6314911d06c98"

// roundTrip encodes want, decodes it back and checks that every entry field
// survives exactly: replayed diagnostics compare Equal (notes, witnesses and
// validation tags included), render the same String and Explain text, and
// sort the same. It returns the decoded entry.
func roundTrip(t *testing.T, want *Entry) *Entry {
	t.Helper()
	b, err := encodeEntry(recordKey, want)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decodeEntry(recordKey, b)
	if !ok {
		t.Fatal("record did not decode")
	}
	if !diag.EqualAll(want.Diags, got.Diags) {
		t.Errorf("diagnostics changed:\nbefore %+v\nafter  %+v", want.Diags, got.Diags)
	}
	for i := range want.Diags {
		if diag.Compare(want.Diags[i], got.Diags[i]) != 0 || want.Diags[i].String() != got.Diags[i].String() ||
			want.Diags[i].Explain() != got.Diags[i].Explain() {
			t.Errorf("diag %d renders or sorts differently after the round trip", i)
		}
	}
	wantRest, gotRest := *want, *got
	wantRest.Size = int64(len(b))
	wantRest.Diags, gotRest.Diags = nil, nil
	if !reflect.DeepEqual(gotRest, wantRest) {
		t.Errorf("entry changed:\nbefore %+v\nafter  %+v", wantRest, gotRest)
	}
	return got
}

// The cache replays recorded diagnostics in place of live ones, so the
// record must carry every entry field exactly.
func TestRecordRoundTrip(t *testing.T) {
	full := testEntry()
	full.Diags = sampleDiags()
	full.Fn = &FnStats{Blocks: 7, Edges: -1, Merges: 1 << 40}
	roundTrip(t, full)
	roundTrip(t, testEntry())
}

func TestRecordRoundTripEmpty(t *testing.T) {
	if got := roundTrip(t, &Entry{}); len(got.Diags) != 0 {
		t.Fatalf("round trip of empty entry has diagnostics %v", got.Diags)
	}
}

// Witnesses and validation tags must round-trip too: a warm -explain or
// -validate run replays them verbatim.
func TestRecordProvenanceRoundTrip(t *testing.T) {
	want := &Entry{Diags: explainedDiags()}
	got := roundTrip(t, want)
	if got.Diags[0].Prov == want.Diags[0].Prov || got.Diags[0].Validation == want.Diags[0].Validation {
		t.Fatal("decoded witness shares storage with the encoded one")
	}
	got.Diags[0].Prov.Steps[1].Kind = "release"
	if diag.Equal(want.Diags[0], got.Diags[0]) {
		t.Error("witness step difference not detected after the round trip")
	}
}

func TestEncodeEntryNilDiag(t *testing.T) {
	if _, err := encodeEntry(recordKey, &Entry{Diags: []*diag.Diagnostic{nil}}); err == nil {
		t.Fatal("encoding a nil diagnostic succeeded; want error")
	}
}

// Deps out of name order or repeated would decode to a different entry
// (or not at all), so encoding refuses them rather than storing them.
func TestEncodeEntryDeps(t *testing.T) {
	for _, deps := range [][]Dep{{{"z", "1"}, {"a", ""}}, {{"a", "1"}, {"a", "2"}}} {
		if _, err := encodeEntry(recordKey, &Entry{Deps: deps}); err == nil {
			t.Errorf("deps %v encoded", deps)
		}
	}
}

// Codes and validation tags are stored by name, not number, so renumbering
// either cannot misread a stored record.
func TestRecordUsesCodeNames(t *testing.T) {
	b, err := encodeEntry(recordKey, &Entry{Diags: []*diag.Diagnostic{{
		Code: diag.Leak, Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 1}, Msg: "m",
		Validation: &diag.Validation{Tag: diag.Confirmed},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mustfree", "confirmed"} {
		if !bytes.Contains(b, []byte(name)) {
			t.Errorf("record lacks the name %q: %q", name, b)
		}
	}
}

// TestRecordPinned pins the record bytes of a diagnostic set with notes,
// witness paths and validation records. Stores hold these bytes, so
// however entries are represented in memory, the record may not move.
func TestRecordPinned(t *testing.T) {
	b, err := encodeEntry(recordKey, &Entry{Diags: explainedDiags()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256(b)), "4146393623684d7c55f80f060539aae1f70c6f5bab728e03c1a328ec22a10642"; got != want {
		t.Errorf("sha256 of the record = %s, want %s", got, want)
	}
}

// rawRecord writes a record field by field, so tests can build records
// encodeEntry would never write.
type rawRecord struct{ w recordWriter }

func newRawRecord(key string, table ...string) *rawRecord {
	r := &rawRecord{}
	r.w.buf = append(r.w.buf, entrySchema...)
	r.w.str(key)
	r.w.uvarint(uint64(len(table)))
	for _, s := range table {
		r.w.str(s)
	}
	return r
}

func (r *rawRecord) u(vs ...uint64) *rawRecord {
	for _, v := range vs {
		r.w.uvarint(v)
	}
	return r
}

func (r *rawRecord) i(vs ...int64) *rawRecord {
	for _, v := range vs {
		r.w.varint(v)
	}
	return r
}

func (r *rawRecord) raw(b ...byte) *rawRecord {
	r.w.buf = append(r.w.buf, b...)
	return r
}

// tail writes suppressed 0, no errors, no deps and no fn stats.
func (r *rawRecord) tail() []byte { return r.i(0).u(0, 0, 0).raw(0).w.buf }

// oneDiag is a record holding one diagnostic at line, with the table
// {"a.c", "m", "mustfree"}.
func oneDiag(line int64) []byte {
	return newRawRecord(recordKey, "a.c", "m", "mustfree").u(1, 2, 0).i(line, 1, 0).u(1, 0).raw(0).tail()
}

// Every record encodeEntry would not write for the entry it decodes to is
// a miss: truncated, extended, foreign, non-canonical, or naming a code,
// tag or position no checker produces.
func TestDecodeEntryRejectsCorruption(t *testing.T) {
	control := oneDiag(5)
	e, ok := decodeEntry(recordKey, control)
	if !ok || len(e.Diags) != 1 || e.Diags[0].Pos.Line != 5 || e.Diags[0].Code != diag.Leak {
		t.Fatalf("control record decoded to %+v, %v", e, ok)
	}
	if b, err := encodeEntry(recordKey, e); err != nil || !bytes.Equal(b, control) {
		t.Fatalf("control record re-encodes to %q, want %q", b, control)
	}
	good, err := encodeEntry(recordKey, &Entry{Diags: explainedDiags(), Deps: []Dep{{"f", "1"}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":           nil,
		"extra-byte":      append(append([]byte(nil), good...), 0),
		"old-schema":      append([]byte("golclint-cache/v1"), good[len(entrySchema):]...),
		"v2-schema":       append([]byte("golclint-cache/v2"), good[len(entrySchema):]...),
		"line-past-int32": oneDiag(1 << 31),
		"col-past-int32":  newRawRecord(recordKey, "a.c", "m", "mustfree").u(1, 2, 0).i(1, -1<<31-1, 0).u(1, 0).raw(0).tail(),
		"unknown-code":    newRawRecord(recordKey, "a.c", "m", "nosuchcode").u(1, 2, 0).i(1, 1, 0).u(1, 0).raw(0).tail(),
		"unknown-tag":     newRawRecord(recordKey, "a.c", "m", "mustfree", "nosuchtag").u(1, 2, 0).i(1, 1, 0).u(1, 0).raw(2).u(3, 1).tail(),
		"bad-flags":       newRawRecord(recordKey, "a.c", "m", "mustfree").u(1, 2, 0).i(1, 1, 0).u(1, 0).raw(4).tail(),
		"ref-past-table":  newRawRecord(recordKey, "a.c", "m", "mustfree").u(1, 3, 0).i(1, 1, 0).u(1, 0).raw(0).tail(),
		"unsorted-table":  newRawRecord(recordKey, "m", "a.c", "mustfree").u(1, 2, 1).i(1, 1, 0).u(0, 0).raw(0).tail(),
		"repeated-table":  newRawRecord(recordKey, "a.c", "a.c", "m", "mustfree").u(1, 3, 0).i(1, 1, 0).u(2, 0).raw(0).tail(),
		"unused-string":   newRawRecord(recordKey, "a.c", "m", "mustfree", "zzz").u(1, 2, 0).i(1, 1, 0).u(1, 0).raw(0).tail(),
		"long-varint":     newRawRecord(recordKey, "a.c", "m", "mustfree").u(1, 2, 0).i(1, 1, 0).u(1, 0).raw(0).raw(0x80, 0x00).u(0, 0, 0).raw(0).w.buf,
		"huge-count":      newRawRecord(recordKey).u(1 << 40).tail(),
		"unsorted-deps":   newRawRecord(recordKey, "").u(0).i(0).u(0, 0, 2).raw(1, 'b', 0, 1, 'a', 0).raw(0).w.buf,
		"repeated-deps":   newRawRecord(recordKey, "").u(0).i(0).u(0, 0, 2).raw(1, 'a', 0, 1, 'a', 0).raw(0).w.buf,
		"bad-fn-flag":     newRawRecord(recordKey).u(0).i(0).u(0, 0, 0).raw(2).w.buf,
	}
	// Every proper prefix of a good record is a truncated one.
	for n := 0; n < len(good); n++ {
		cases[fmt.Sprintf("truncated-%d", n)] = good[:n]
	}
	for name, b := range cases {
		if e, ok := decodeEntry(recordKey, b); ok {
			t.Errorf("%s: decoded to %+v", name, e)
		}
	}
	if _, ok := decodeEntry(strings.Repeat("ab", 32), good); ok {
		t.Error("record decoded under another key")
	}
}

// FuzzDecodeEntry: any bytes decode either to a miss or to an entry that
// re-encodes to exactly those bytes — never a panic, never an entry the
// bytes do not spell.
func FuzzDecodeEntry(f *testing.F) {
	full := testEntry()
	full.Diags = explainedDiags()
	full.Fn = &FnStats{Blocks: 3, Edges: 4, Merges: 1}
	for _, e := range []*Entry{full, testEntry(), {}} {
		b, err := encodeEntry(recordKey, e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add(oneDiag(5))
	f.Add([]byte(entrySchema))
	f.Fuzz(func(t *testing.T, b []byte) {
		e, ok := decodeEntry(recordKey, b)
		if !ok {
			return
		}
		if e.Size != int64(len(b)) {
			t.Fatalf("Size %d for a %d-byte record", e.Size, len(b))
		}
		again, err := encodeEntry(recordKey, e)
		if err != nil {
			t.Fatalf("decoded entry does not encode: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("record %q re-encodes to %q", b, again)
		}
	})
}
