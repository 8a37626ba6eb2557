package cache

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"golclint/internal/ctoken"
	"golclint/internal/diag"
)

func testEntry() *Entry {
	return &Entry{
		Diags: []*diag.Diagnostic{
			{Code: diag.Leak, Pos: ctoken.Pos{File: ctoken.FileOf("m.c"), Line: 9, Col: 2, Off: 88},
				Msg: "Only storage p not released",
				Notes: []diag.Note{{Pos: ctoken.Pos{File: ctoken.FileOf("m.c"), Line: 4, Col: 6, Off: 30},
					Msg: "Storage p allocated"}}},
			{Code: diag.NullDeref, Pos: ctoken.Pos{File: ctoken.FileOf("m.c"), Line: 12}, Msg: "Dereference of possibly null p"},
		},
		Suppressed:  3,
		ParseErrors: []string{"m.c:2: stray token"},
		SemaErrors:  []string{"m.c:3: redefinition of f"},
		Deps:        []Dep{{"gone", ""}, {"helper", "fp1"}},
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("v1", "+null", map[string]string{"m.c": "int x;"})
	want := testEntry()
	n, err := c.Put(key, want)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 || want.Size != n {
		t.Errorf("Put size = %d (entry %d)", n, want.Size)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("entry missing after Put")
	}
	if !diag.EqualAll(want.Diags, got.Diags) {
		t.Errorf("diags changed: %+v vs %+v", want.Diags, got.Diags)
	}
	if got.Suppressed != want.Suppressed {
		t.Errorf("suppressed = %d, want %d", got.Suppressed, want.Suppressed)
	}
	if len(got.ParseErrors) != 1 || got.ParseErrors[0] != want.ParseErrors[0] {
		t.Errorf("parse errors = %v", got.ParseErrors)
	}
	if len(got.SemaErrors) != 1 || got.SemaErrors[0] != want.SemaErrors[0] {
		t.Errorf("sema errors = %v", got.SemaErrors)
	}
	if !slices.Equal(got.Deps, want.Deps) {
		t.Errorf("deps = %v", got.Deps)
	}
	if got.Size != n {
		t.Errorf("Get size = %d, want %d", got.Size, n)
	}
}

func TestGetMiss(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(Key("v1", "", map[string]string{"a.c": "x"})); ok {
		t.Fatal("hit on empty cache")
	}
}

// A corrupted, truncated, or wrong-format entry must read as a miss — the
// cache degrades to a cold check, never a wrong answer.
func TestCorruptEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("v1", "", map[string]string{"a.c": "int x;"})
	if _, err := c.Put(key, testEntry()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key[:2], key+".json")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, b []byte) {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(key); ok {
				t.Fatalf("%s entry produced a hit", name)
			}
		})
	}
	// Payload-level corruption: rewrite the record inside the frame so it
	// still deframes cleanly but decodes to a stale or foreign entry.
	raw, ok := deframeBlob(good)
	if !ok {
		t.Fatal("stored entry is not framed")
	}
	reframe := func(s string) []byte { return frameBlob([]byte(s)) }

	corrupt("truncated", good[:len(good)/2])
	corrupt("garbage", []byte("\x00\xffnot json"))
	corrupt("empty", nil)
	corrupt("schema-mismatch", reframe(strings.Replace(string(raw), entrySchema, "golclint-cache/v0", 1)))
	corrupt("key-mismatch", reframe(strings.Replace(string(raw), key, strings.Repeat("ab", 32), 2)))

	// Frame-level corruption: valid header, damaged payload byte (checksum
	// must catch it), and a header advertising the wrong payload length.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0xff
	corrupt("bad-checksum", flipped)
	shortLen := append([]byte(nil), good...)
	shortLen[len(frameMagic)] ^= 0x01 // perturb rawLen
	corrupt("bad-length", shortLen)

	// Restore the good bytes: the entry must hit again.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); !ok {
		t.Fatal("restored entry missed")
	}
}

func TestNilCache(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("abcd"); ok {
		t.Error("nil cache hit")
	}
	if n, err := c.Put("abcd", testEntry()); err != nil || n != 0 {
		t.Errorf("nil cache Put = %d, %v", n, err)
	}
	if c.Dir() != "" {
		t.Errorf("nil cache Dir = %q", c.Dir())
	}
}

// The key must separate every input: version, flags, file names, file
// contents — and must not depend on map insertion order.
func TestKeyDiscrimination(t *testing.T) {
	base := Key("v1", "+null", map[string]string{"a.c": "int x;", "b.c": "int y;"})
	if Key("v1", "+null", map[string]string{"b.c": "int y;", "a.c": "int x;"}) != base {
		t.Error("key depends on map order")
	}
	variants := []string{
		Key("v2", "+null", map[string]string{"a.c": "int x;", "b.c": "int y;"}),
		Key("v1", "-null", map[string]string{"a.c": "int x;", "b.c": "int y;"}),
		Key("v1", "+null", map[string]string{"a.c": "int x;", "b.c": "int z;"}),
		Key("v1", "+null", map[string]string{"a.c": "int x;", "c.c": "int y;"}),
		Key("v1", "+null", map[string]string{"a.c": "int x;"}),
		// Length-prefixing: moving a byte across a component boundary must
		// change the key even though the concatenation is identical.
		Key("v1", "+nullx", map[string]string{"a.c": "int x;", "b.c": "int y;"}),
		Key("v1x", "+null", map[string]string{"a.c": "int x;", "b.c": "int y;"}),
	}
	seen := map[string]bool{base: true}
	for i, k := range variants {
		if seen[k] {
			t.Errorf("variant %d collides", i)
		}
		seen[k] = true
	}
}

func TestDepsMatch(t *testing.T) {
	rec := []Dep{{"f", "h1"}, {"g", ""}}
	if !DepsMatch(rec, map[string]string{"f": "h1"}) {
		t.Error("matching deps rejected")
	}
	if DepsMatch(rec, map[string]string{"f": "h2"}) {
		t.Error("changed fingerprint accepted")
	}
	if DepsMatch(rec, map[string]string{"f": "h1", "g": "new"}) {
		t.Error("newly appearing symbol accepted")
	}
	if DepsMatch([]Dep{{"f", "h1"}}, nil) {
		t.Error("vanished symbol accepted")
	}
	if !DepsMatch(nil, map[string]string{"x": "y"}) {
		t.Error("empty recorded deps must always match")
	}
}

func TestIdentifiers(t *testing.T) {
	ids := Identifiers("int f (int n) { return g (n) + g (n) + NULL_ish; } /* h */ \"str i\"")
	want := []string{"NULL_ish", "f", "g", "n"}
	if strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Errorf("identifiers = %v, want %v", ids, want)
	}
	// Keywords are not identifiers; comments and strings contribute none.
	for _, id := range ids {
		if id == "int" || id == "return" || id == "h" || id == "i" {
			t.Errorf("non-identifier %q extracted", id)
		}
	}
}

// KeyHasher streams the same bytes Key hashes: feeding the same components
// in sorted order must reproduce Key exactly (warm caches survive the
// streaming rewrite), and File's length prefixes must keep shifted
// boundaries distinct.
func TestKeyHasherMatchesKey(t *testing.T) {
	files := map[string]string{"b.c": "int b;", "a.c": "int a;"}
	want := Key("v1", "fp", files)
	kh := NewKeyHasher("v1", "fp")
	for _, n := range []string{"a.c", "b.c"} {
		kh.Component(n)
		kh.Component(files[n])
	}
	if got := kh.Sum(); got != want {
		t.Errorf("streamed key %s != Key() %s", got, want)
	}
}

func TestKeyHasherFileDiscrimination(t *testing.T) {
	sum := func(f func(k *KeyHasher)) string {
		k := NewKeyHasher("v", "f")
		f(k)
		return k.Sum()
	}
	keys := []string{
		sum(func(k *KeyHasher) { k.File("a.c", "text", nil) }),
		sum(func(k *KeyHasher) { k.File("a.c", "text", []string{""}) }),
		sum(func(k *KeyHasher) { k.File("a.c", "text", []string{"e1"}) }),
		sum(func(k *KeyHasher) { k.File("a.c", "text", []string{"e1", "e2"}) }),
		sum(func(k *KeyHasher) { k.File("a.c", "text", []string{"e1e2"}) }),
		sum(func(k *KeyHasher) { k.File("a.c", "texte1", []string{}) }),
		sum(func(k *KeyHasher) { k.File("a.ct", "ext", nil) }),
	}
	seen := map[string]int{}
	for i, k := range keys {
		if j, dup := seen[k]; dup {
			t.Errorf("inputs %d and %d collide: %s", j, i, k)
		}
		seen[k] = i
	}
	// Determinism: the same stream twice yields the same key.
	if a, b := keys[3], sum(func(k *KeyHasher) { k.File("a.c", "text", []string{"e1", "e2"}) }); a != b {
		t.Errorf("same stream hashed differently: %s vs %s", a, b)
	}
}

// The key derivation is frozen: every fleet's shared cache is addressed by
// it, so a silent change would turn the next job into a full cold check.
// These hex values must never change without a deliberate cache-version
// bump.
func TestKeyPinned(t *testing.T) {
	files := map[string]string{"b.c": "int b;\n", "a.c": "# 1 \"a.c\"\nint a;\n", "": ""}
	if got, want := Key("golclint-test", "+null -mustfree", files),
		"3804cfb0ad1dc8a491d22ad6177aa926258e8b00aa6f23a2181a70caaf558de8"; got != want {
		t.Errorf("Key = %s, want %s", got, want)
	}
	k := NewKeyHasher("golclint-test", "+null -mustfree")
	k.File("a.c", "# 1 \"a.c\"\nint a;\n", nil)
	k.File("b.c", "int b;\n", []string{"b.c:1: bad #if expression", ""})
	k.File("c.c", "", []string{})
	if got, want := k.Sum(), "deb3e5bd03cb2d24a8014701b5a2e90f4f14b384f66af77852eedb3fb8f37e3c"; got != want {
		t.Errorf("KeyHasher.Sum = %s, want %s", got, want)
	}
}
