package ctoken

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func kinds(ts []Token) []Kind {
	ks := make([]Kind, len(ts))
	for i, t := range ts {
		ks[i] = t.Kind
	}
	return ks
}

func lexAll(t *testing.T, src string) []Token {
	t.Helper()
	lx := NewLexer("test.c", src)
	ts := lx.All()
	for _, e := range lx.Errors() {
		t.Errorf("unexpected lex error: %v", e)
	}
	return ts
}

func TestKeywordsAndIdents(t *testing.T) {
	ts := lexAll(t, "int foo; while whilex _x x1")
	want := []Kind{KwInt, Ident, Semi, KwWhile, Ident, Ident, Ident, EOF}
	if !reflect.DeepEqual(kinds(ts), want) {
		t.Fatalf("got %v want %v", kinds(ts), want)
	}
	if ts[1].Text != "foo" || ts[4].Text != "whilex" || ts[5].Text != "_x" || ts[6].Text != "x1" {
		t.Fatalf("wrong ident texts: %v", ts)
	}
}

func TestAllKeywords(t *testing.T) {
	for word, kind := range Keywords {
		ts := lexAll(t, word)
		if len(ts) != 2 || ts[0].Kind != kind {
			t.Errorf("keyword %q: got %v", word, ts)
		}
	}
}

func TestNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind Kind
	}{
		{"0", IntLit}, {"42", IntLit}, {"0x1F", IntLit}, {"10u", IntLit},
		{"10UL", IntLit}, {"3.14", FloatLit}, {"1e10", FloatLit},
		{"1.5e-3", FloatLit}, {"2.0f", FloatLit}, {".5", FloatLit},
	}
	for _, c := range cases {
		ts := lexAll(t, c.src)
		if len(ts) != 2 || ts[0].Kind != c.kind || ts[0].Text != c.src {
			t.Errorf("%q: got %v, want single %v", c.src, ts, c.kind)
		}
	}
}

func TestDotNotNumber(t *testing.T) {
	ts := lexAll(t, "a.b")
	want := []Kind{Ident, Dot, Ident, EOF}
	if !reflect.DeepEqual(kinds(ts), want) {
		t.Fatalf("got %v want %v", kinds(ts), want)
	}
}

func TestStringsAndChars(t *testing.T) {
	ts := lexAll(t, `"hello \"world\"" 'a' '\n' '\0' '\x41'`)
	want := []Kind{StringLit, CharLit, CharLit, CharLit, CharLit, EOF}
	if !reflect.DeepEqual(kinds(ts), want) {
		t.Fatalf("got %v want %v", kinds(ts), want)
	}
	if ts[0].Text != `"hello \"world\""` {
		t.Errorf("string text = %q", ts[0].Text)
	}
}

func TestOperators(t *testing.T) {
	src := "-> ++ -- << >> <= >= == != && || <<= >>= ... += -= *= /= %= &= ^= |= ? : = . ~"
	want := []Kind{Arrow, Inc, Dec, Shl, Shr, Le, Ge, EqEq, NotEq, AndAnd, OrOr,
		ShlEq, ShrEq, Ellipsis, AddEq, SubEq, MulEq, DivEq, ModEq, AndEq, XorEq,
		OrEq, Question, Colon, Assign, Dot, Tilde, EOF}
	ts := lexAll(t, src)
	if !reflect.DeepEqual(kinds(ts), want) {
		t.Fatalf("got %v want %v", kinds(ts), want)
	}
}

func TestAnnotations(t *testing.T) {
	ts := lexAll(t, "/*@null@*/ char *p; /*@ only @*/ /*@out only@*/")
	if ts[0].Kind != Annot || ts[0].Text != "null" {
		t.Fatalf("first annot: %v", ts[0])
	}
	if ts[5].Kind != Annot || ts[5].Text != "only" {
		t.Fatalf("spaced annot: %v", ts[5])
	}
	if ts[6].Kind != Annot || ts[6].Text != "out only" {
		t.Fatalf("multi annot: %v", ts[6])
	}
}

func TestAnnotationTolerantClose(t *testing.T) {
	// LCLint also accepts a plain */ closer.
	ts := lexAll(t, "/*@null*/ x")
	if ts[0].Kind != Annot || ts[0].Text != "null" {
		t.Fatalf("got %v", ts[0])
	}
}

func TestCommentsSkipped(t *testing.T) {
	ts := lexAll(t, "a /* plain comment */ b // line\nc")
	want := []Kind{Ident, Ident, Ident, EOF}
	if !reflect.DeepEqual(kinds(ts), want) {
		t.Fatalf("got %v want %v", kinds(ts), want)
	}
}

func TestCommentWithStarsSkipped(t *testing.T) {
	ts := lexAll(t, "a /* ** stars * inside ** */ b")
	want := []Kind{Ident, Ident, EOF}
	if !reflect.DeepEqual(kinds(ts), want) {
		t.Fatalf("got %v want %v", kinds(ts), want)
	}
}

func TestPositions(t *testing.T) {
	ts := lexAll(t, "int x;\n  y = 3;\n")
	if ts[0].Pos.Line != 1 || ts[0].Pos.Col != 1 {
		t.Errorf("int at %v", ts[0].Pos)
	}
	if ts[3].Pos.Line != 2 || ts[3].Pos.Col != 3 {
		t.Errorf("y at %v, want 2:3", ts[3].Pos)
	}
	if got := ts[3].Pos.String(); got != "test.c:2" {
		t.Errorf("Pos.String() = %q", got)
	}
}

func TestLineMarker(t *testing.T) {
	src := "# 10 \"orig.c\"\nint x;\n# 3 \"other.h\"\nchar c;\n"
	ts := lexAll(t, src)
	if ts[0].Pos.File.String() != "orig.c" || ts[0].Pos.Line != 10 {
		t.Errorf("int at %v, want orig.c:10", ts[0].Pos)
	}
	if ts[3].Pos.File.String() != "other.h" || ts[3].Pos.Line != 3 {
		t.Errorf("char at %v, want other.h:3", ts[3].Pos)
	}
}

func TestUnterminatedComment(t *testing.T) {
	lx := NewLexer("t.c", "a /* never closed")
	lx.All()
	if len(lx.Errors()) == 0 {
		t.Fatal("expected unterminated comment error")
	}
}

func TestUnterminatedString(t *testing.T) {
	lx := NewLexer("t.c", "\"abc\ndef")
	lx.All()
	if len(lx.Errors()) == 0 {
		t.Fatal("expected unterminated string error")
	}
}

func TestPeek(t *testing.T) {
	lx := NewLexer("t.c", "a b")
	if lx.Peek().Text != "a" || lx.Peek().Text != "a" {
		t.Fatal("peek should not consume")
	}
	if lx.Next().Text != "a" || lx.Next().Text != "b" {
		t.Fatal("next after peek broken")
	}
}

func TestPosBefore(t *testing.T) {
	a := Pos{File: FileOf("a.c"), Line: 1, Col: 1}
	b := Pos{File: FileOf("a.c"), Line: 1, Col: 5}
	c := Pos{File: FileOf("a.c"), Line: 2, Col: 1}
	if !a.Before(b) || !b.Before(c) || c.Before(a) {
		t.Fatal("Before ordering wrong")
	}
}

func TestKindString(t *testing.T) {
	if KwWhile.String() != "while" || Arrow.String() != "->" || EOF.String() != "EOF" {
		t.Fatal("Kind.String wrong")
	}
	if Kind(9999).String() != "Kind(9999)" {
		t.Fatal("unknown kind string wrong")
	}
	if !KwWhile.IsKeyword() || Ident.IsKeyword() {
		t.Fatal("IsKeyword wrong")
	}
	if !Assign.IsAssignOp() || !AddEq.IsAssignOp() || EqEq.IsAssignOp() {
		t.Fatal("IsAssignOp wrong")
	}
}

// TestTokenString covers the debug renderer.
func TestTokenString(t *testing.T) {
	ts := lexAll(t, `x 42 "s" /*@null@*/ ;`)
	wants := []string{`identifier "x"`, `integer literal "42"`, `string literal "\"s\""`, `/*@null@*/`, `;`}
	for i, w := range wants {
		if got := ts[i].String(); got != w {
			t.Errorf("token %d String() = %q want %q", i, got, w)
		}
	}
}

// Property: lexing the concatenation of token spellings (with spaces)
// reproduces the same token kinds — a round-trip stability check.
func TestRoundTripProperty(t *testing.T) {
	vocab := []string{"int", "x", "42", "3.5", "->", "++", "(", ")", "{", "}",
		"*", ";", ",", "/*@null@*/", "\"str\"", "'c'", "<<=", "==", "while"}
	f := func(seedIdx []uint8) bool {
		var parts []string
		for _, i := range seedIdx {
			parts = append(parts, vocab[int(i)%len(vocab)])
		}
		src := strings.Join(parts, " ")
		lx1 := NewLexer("a.c", src)
		ts1 := lx1.All()
		if len(lx1.Errors()) > 0 {
			return false
		}
		// Re-render and re-lex.
		var render []string
		for _, tok := range ts1[:len(ts1)-1] {
			switch tok.Kind {
			case Annot:
				render = append(render, "/*@"+tok.Text+"@*/")
			case Ident, IntLit, FloatLit, CharLit, StringLit:
				render = append(render, tok.Text)
			default:
				render = append(render, tok.Kind.String())
			}
		}
		lx2 := NewLexer("a.c", strings.Join(render, " "))
		ts2 := lx2.All()
		return reflect.DeepEqual(kinds(ts1), kinds(ts2))
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: scanning never panics and always terminates with EOF for
// arbitrary printable input.
func TestScanTotality(t *testing.T) {
	f := func(b []byte) bool {
		// Map arbitrary bytes into printable ASCII + whitespace.
		s := make([]byte, len(b))
		for i, c := range b {
			s[i] = 32 + c%95
			if c%17 == 0 {
				s[i] = '\n'
			}
		}
		lx := NewLexer("f.c", string(s))
		ts := lx.All()
		return len(ts) > 0 && ts[len(ts)-1].Kind == EOF
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
