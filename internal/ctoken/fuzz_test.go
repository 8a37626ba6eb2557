package ctoken

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLex asserts the lexer's robustness contract on arbitrary bytes: it
// must terminate without panicking, produce monotonically advancing
// offsets, and end every stream with EOF, and AllInto must give the same
// tokens and errors as Next. Malformed input is reported via
// Errors(), never by crashing — the checker runs on whatever bytes a user
// hands it.
func FuzzLex(f *testing.F) {
	seeds := []string{
		"",
		"int main (void) { return 0; }\n",
		"/*@only@*/ char *p; /* unterminated",
		"\"string with \\\" escape\n'c' 0x1f 1e9 .5 ...",
		"#line 3 \"x.c\"\nid->field >>= 1;",
		"/*@null@*/ /*@i@*/ /*@ignore@*/ /*@end@*/",
		"\x00\xff\x80junk\r\n\t",
		// Zero-copy cursor edge cases: tokens ending exactly at the buffer
		// end, so any past-the-end slice aliasing would show immediately.
		"x", "42", "a+b", "p->q", "0x", "1e", "'",
		"/*@only",           // unterminated annotation open at EOF
		"/*@only@*",         // annotation missing the final '/'
		"ab\r\ncd\r\n",      // CRLF line endings between tokens
		"\"\r\n\"",          // CRLF inside a string literal
		"\"héllo wörld\"",   // multi-byte UTF-8 inside a string
		"\"日本語\" ident日本",   // multi-byte UTF-8 at token boundaries
		"# 12 \"a\r\nb.c\"", // CRLF splitting a line marker
		"int x/*",           // block comment open at buffer end
		"//",                // line comment at buffer end
	}
	for _, s := range seeds {
		f.Add(s)
	}
	corpus, _ := filepath.Glob("../../testdata/corpus/*.c")
	for _, path := range corpus {
		if b, err := os.ReadFile(path); err == nil {
			f.Add(string(b))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		lx := NewLexer("fuzz.c", src)
		prevOff := -1
		var stream []Token
		for i := 0; ; i++ {
			tok := lx.Next()
			stream = append(stream, tok)
			if tok.Kind == EOF {
				break
			}
			if tok.Pos.Off < prevOff {
				t.Fatalf("token %d offset went backwards: %d after %d", i, tok.Pos.Off, prevOff)
			}
			prevOff = tok.Pos.Off
			// The zero-copy lexer slices token text out of src; no token
			// may claim bytes past the end of the buffer.
			if tok.Pos.Off > len(src) {
				t.Fatalf("token %d offset %d past end of %d-byte input", i, tok.Pos.Off, len(src))
			}
			if tok.Pos.Off+len(tok.Text) > len(src) {
				t.Fatalf("token %d %v text %q overruns input (off=%d len=%d src=%d)",
					i, tok.Kind, tok.Text, tok.Pos.Off, len(tok.Text), len(src))
			}
			if i > len(src)+16 {
				t.Fatalf("lexer produced more tokens than input bytes (%d); not terminating?", i)
			}
		}
		// EOF must be sticky.
		if tok := lx.Next(); tok.Kind != EOF {
			t.Fatalf("token after EOF: %v", tok)
		}
		checkAllInto(t, src, stream, lx.Errors())
	})
}

// checkAllInto asserts that AllInto, which scans each token in place into
// its buffer slot, yields exactly the stream and errors that Next does,
// also when a Peek came first. The buffer it fills holds stale tokens, so
// a field the in-place scan forgets to overwrite shows as a mismatch.
func checkAllInto(t *testing.T, src string, want []Token, wantErrs []*LexError) {
	t.Helper()
	for _, peekFirst := range []bool{false, true} {
		lx := NewLexer("fuzz.c", src)
		if peekFirst {
			lx.Peek()
		}
		checkStream(t, lx, want, wantErrs)
	}
}

func checkStream(t *testing.T, lx *Lexer, want []Token, wantErrs []*LexError) {
	t.Helper()
	stale := Token{Kind: StringLit, Text: "stale", Pos: Pos{File: "stale.c", Line: 99, Col: 99, Off: 99}}
	buf := make([]Token, 0, len(want)/2+1)
	for len(buf) < cap(buf) {
		buf = append(buf, stale)
	}
	got := lx.AllInto(buf[:0])
	if len(got) != len(want) {
		t.Fatalf("AllInto gave %d tokens, Next gave %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: AllInto gave %#v, Next gave %#v", i, got[i], want[i])
		}
	}
	gotErrs := lx.Errors()
	if len(gotErrs) != len(wantErrs) {
		t.Fatalf("AllInto reported %d lex errors, Next reported %d", len(gotErrs), len(wantErrs))
	}
	for i := range wantErrs {
		if *gotErrs[i] != *wantErrs[i] {
			t.Fatalf("lex error %d: AllInto gave %v, Next gave %v", i, gotErrs[i], wantErrs[i])
		}
	}
}
