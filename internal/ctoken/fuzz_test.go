package ctoken

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzLex asserts the lexer's robustness contract on arbitrary bytes: it
// must terminate without panicking, produce monotonically advancing
// offsets, name each token's file after the lexer's file or a line marker,
// and end every stream with EOF, and AllInto must give the same tokens and
// errors as Next. Malformed input is reported via
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
		// Line markers: a file switch, a marker inside a comment (not
		// one), an escaped name, and a marker as the last line.
		"# 10 \"orig.c\"\nint x;\n# 3 \"other.h\"\nchar c;\n",
		"a\n/*\n# 1 \"c.h\"\n*/ b\n# 2 \"d.h\"\nc",
		"# 4 \"dir\\\\e.h\"\nx\n# 5 \"\"\ny\n# 6 \"last.c\"",
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
		markers := lineMarkers(src)
		prevOff := -1
		prevFile := "fuzz.c"
		var stream []Token
		for i := 0; ; i++ {
			tok := lx.Next()
			stream = append(stream, tok)
			if tok.Kind == EOF {
				break
			}
			off := int(tok.Pos.Off)
			if off < prevOff {
				t.Fatalf("token %d offset went backwards: %d after %d", i, off, prevOff)
			}
			// The file only changes at a line marker, so a token's file is
			// the previous token's or the name of a marker line between
			// the two (a marker inside a comment is not one, hence "a").
			if file := tok.Pos.File.String(); file != prevFile && !markerBetween(markers, prevOff, off, file) {
				t.Fatalf("token %d at offset %d in file %q; previous token's file is %q and no marker between names it",
					i, off, file, prevFile)
			}
			prevOff, prevFile = off, tok.Pos.File.String()
			// The zero-copy lexer slices token text out of src; no token
			// may claim bytes past the end of the buffer.
			if off > len(src) {
				t.Fatalf("token %d offset %d past end of %d-byte input", i, off, len(src))
			}
			if off+len(tok.Text) > len(src) {
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

// marker is a line of src that parses as a line marker: its offset and
// the file name it sets.
type marker struct {
	off  int
	file string
}

// lineMarkers returns every line of src that parses as a line marker.
func lineMarkers(src string) []marker {
	var ms []marker
	for off := 0; off < len(src); {
		end := strings.IndexByte(src[off:], '\n')
		if end < 0 {
			end = len(src) - off
		}
		if _, file, ok := parseLineMarker(src[off : off+end]); ok {
			ms = append(ms, marker{off, file})
		}
		off += end + 1
	}
	return ms
}

// markerBetween reports whether a marker starting strictly between the
// offsets from and to names file.
func markerBetween(ms []marker, from, to int, file string) bool {
	for _, m := range ms {
		if m.off > from && m.off < to && m.file == file {
			return true
		}
	}
	return false
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
	stale := Token{Kind: StringLit, Text: "stale", Pos: Pos{File: FileOf("stale.c"), Line: 99, Col: 99, Off: 99}}
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
