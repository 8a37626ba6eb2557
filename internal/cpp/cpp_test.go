package cpp

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func process(t *testing.T, src string) string {
	t.Helper()
	pp := New(nil)
	out := pp.Process("t.c", src)
	for _, e := range pp.Errors() {
		t.Errorf("unexpected cpp error: %v", e)
	}
	return out
}

// stripMarkers removes line markers for content comparison.
func stripMarkers(s string) string {
	var keep []string
	for _, ln := range strings.Split(s, "\n") {
		if strings.HasPrefix(ln, "# ") {
			continue
		}
		keep = append(keep, ln)
	}
	return strings.Join(keep, "\n")
}

func TestObjectMacro(t *testing.T) {
	out := process(t, "#define N 10\nint a[N];\n")
	if !strings.Contains(out, "int a[10];") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestFunctionMacro(t *testing.T) {
	out := process(t, "#define SQR(x) ((x)*(x))\nint y = SQR(3+1);\n")
	if !strings.Contains(out, "int y = ((3+1)*(3+1));") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestFunctionMacroMultiArg(t *testing.T) {
	out := process(t, "#define MAX(a,b) ((a)>(b)?(a):(b))\nint z = MAX(f(1,2), 3);\n")
	if !strings.Contains(out, "int z = ((f(1,2))>(3)?(f(1,2)):(3));") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestMacroNotExpandedInString(t *testing.T) {
	out := process(t, "#define N 10\nchar *s = \"N\"; int v = N;\n")
	if !strings.Contains(out, `"N"`) || !strings.Contains(out, "int v = 10;") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestMacroNotExpandedInComment(t *testing.T) {
	out := process(t, "#define only 1\nint x; /*@only@*/ char *p;\n")
	if !strings.Contains(out, "/*@only@*/") {
		t.Fatalf("annotation comment was mangled:\n%s", out)
	}
}

func TestRecursiveMacroStops(t *testing.T) {
	out := process(t, "#define A A\nint A;\n")
	if !strings.Contains(out, "int A;") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestMutualRecursionStops(t *testing.T) {
	out := process(t, "#define A B\n#define B A\nint A;\n")
	// Expansion must terminate; A -> B -> (A busy) stays A.
	if !strings.Contains(stripMarkers(out), "int A;") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestUndef(t *testing.T) {
	out := process(t, "#define N 1\n#undef N\nint v = N;\n")
	if !strings.Contains(out, "int v = N;") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestIfdef(t *testing.T) {
	out := process(t, "#define FOO\n#ifdef FOO\nint a;\n#else\nint b;\n#endif\n#ifndef FOO\nint c;\n#endif\n")
	if !strings.Contains(out, "int a;") || strings.Contains(out, "int b;") || strings.Contains(out, "int c;") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestIfExpr(t *testing.T) {
	src := `#define VER 3
#if VER >= 2 && defined(VER)
int yes;
#elif VER == 1
int one;
#else
int no;
#endif
`
	out := process(t, src)
	if !strings.Contains(out, "int yes;") || strings.Contains(out, "int one;") || strings.Contains(out, "int no;") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestIfArith(t *testing.T) {
	cases := []struct {
		cond string
		want bool
	}{
		{"1+2*3 == 7", true}, {"(1+2)*3 == 9", true}, {"10/3 == 3", true},
		{"10%3 == 1", true}, {"1<<4 == 16", true}, {"!0", true}, {"!5", false},
		{"~0 == -1", true}, {"-3 < -2", true}, {"'a' == 97", true},
		{"0x10 == 16", true}, {"UNDEF_THING", false}, {"1 || UNDEF", true},
		{"5 & 3", true}, {"5 ^ 5", false}, {"1 | 0", true}, {"2 >= 2", true},
		{"2 <= 1", false}, {"3 != 3", false}, {"16 >> 2 == 4", true},
	}
	for _, c := range cases {
		pp := New(nil)
		got, err := pp.evalCond(c.cond)
		if err != nil {
			t.Errorf("%q: %v", c.cond, err)
			continue
		}
		if got != c.want {
			t.Errorf("#if %q = %v, want %v", c.cond, got, c.want)
		}
	}
}

func TestIfErrors(t *testing.T) {
	for _, bad := range []string{"1/0", "1 +", "(1", "@", "1 1"} {
		pp := New(nil)
		if _, err := pp.evalCond(bad); err == nil {
			t.Errorf("evalCond(%q) succeeded, want error", bad)
		}
	}
}

// A directive with no name is reported at its line rather than testing the
// empty name, and still pushes an (inactive) conditional, so its #else and
// #endif pair exactly as before.
func TestBareIfdef(t *testing.T) {
	for _, dir := range []string{"ifdef", "ifndef"} {
		src := "int before;\n#" + dir + "  \nint in;\n#else\nint out;\n#endif\nint after;\n"
		pp := New(nil)
		out := pp.Process("t.c", src)
		var errs []string
		for _, e := range pp.Errors() {
			errs = append(errs, e.Error())
		}
		if want := []string{"t.c:2: #" + dir + " without macro name"}; !slices.Equal(errs, want) {
			t.Errorf("#%s: errors = %q, want %q", dir, errs, want)
		}
		if strings.Contains(out, "int in;") {
			t.Errorf("#%s: bare conditional's branch emitted:\n%s", dir, out)
		}
		for _, keep := range []string{"int before;", "int out;", "int after;"} {
			if !strings.Contains(out, keep) {
				t.Errorf("#%s: %q missing:\n%s", dir, keep, out)
			}
		}
		// Line numbering is unchanged by the directive.
		if lines := strings.Split(out, "\n"); lines[7] != "int after;" {
			t.Errorf("#%s: line padding broken: %q", dir, lines)
		}

		// Inside an inactive branch a bare directive only nests.
		pp = New(nil)
		out = pp.Process("t.c", "#ifdef NOPE\n#"+dir+"\nint in;\n#endif\nint mid;\n#endif\nint after;\n")
		if len(pp.Errors()) != 0 {
			t.Errorf("#%s in an inactive branch: errors %v", dir, pp.Errors())
		}
		if strings.Contains(out, "int in;") || strings.Contains(out, "int mid;") || !strings.Contains(out, "int after;") {
			t.Errorf("#%s in an inactive branch: pairing changed:\n%s", dir, out)
		}
	}
}

func TestNestedConditionals(t *testing.T) {
	src := `#define A
#ifdef A
#ifdef B
int ab;
#else
int a_only;
#endif
#else
int neither;
#endif
`
	out := process(t, src)
	if !strings.Contains(out, "int a_only;") || strings.Contains(out, "int ab;") || strings.Contains(out, "int neither;") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestInactiveBranchSkipsDirectives(t *testing.T) {
	src := "#ifdef NOPE\n#define X 1\n#error should not fire\n#endif\nint v = X;\n"
	pp := New(nil)
	out := pp.Process("t.c", src)
	if len(pp.Errors()) != 0 {
		t.Fatalf("errors in inactive branch: %v", pp.Errors())
	}
	if !strings.Contains(out, "int v = X;") {
		t.Fatalf("X should be undefined:\n%s", out)
	}
}

func TestInclude(t *testing.T) {
	inc := MapIncluder{"defs.h": "#define SIZE 4\ntypedef int myint;\n"}
	pp := New(inc)
	out := pp.Process("main.c", "#include \"defs.h\"\nmyint arr[SIZE];\n")
	if len(pp.Errors()) != 0 {
		t.Fatalf("errors: %v", pp.Errors())
	}
	if !strings.Contains(out, "typedef int myint;") || !strings.Contains(out, "myint arr[4];") {
		t.Fatalf("output:\n%s", out)
	}
	if !strings.Contains(out, "# 1 \"defs.h\"") || !strings.Contains(out, "\"main.c\"") {
		t.Fatalf("missing line markers:\n%s", out)
	}
}

func TestIncludeAngle(t *testing.T) {
	inc := MapIncluder{"stdlib.h": "typedef unsigned long size_t;\n"}
	pp := New(inc)
	out := pp.Process("m.c", "#include <stdlib.h>\n")
	if len(pp.Errors()) != 0 {
		t.Fatalf("errors: %v", pp.Errors())
	}
	if !strings.Contains(out, "size_t") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestIncludeMissing(t *testing.T) {
	pp := New(MapIncluder{})
	pp.Process("m.c", "#include \"nope.h\"\n")
	if len(pp.Errors()) != 1 {
		t.Fatalf("want 1 error, got %v", pp.Errors())
	}
}

func TestRecursiveIncludeBounded(t *testing.T) {
	inc := MapIncluder{"a.h": "#include \"a.h\"\n"}
	pp := New(inc)
	pp.Process("m.c", "#include \"a.h\"\n")
	found := false
	for _, e := range pp.Errors() {
		if strings.Contains(e.Msg, "depth") {
			found = true
		}
	}
	if !found {
		t.Fatalf("want include-depth error, got %v", pp.Errors())
	}
}

func TestLineContinuation(t *testing.T) {
	out := process(t, "#define LONG 1 + \\\n 2\nint v = LONG;\nint w;\n")
	if !strings.Contains(out, "int v = 1 +   2;") {
		t.Fatalf("output:\n%s", out)
	}
	// Line numbering preserved: "int w;" is physical line 4.
	lines := strings.Split(out, "\n")
	// First line is a marker; so source line N is output line N+1.
	if lines[4] != "int w;" {
		t.Fatalf("line padding broken: %q (all: %q)", lines[4], lines)
	}
}

func TestStringize(t *testing.T) {
	out := process(t, "#define STR(x) #x\nchar *s = STR(hello);\n")
	if !strings.Contains(out, `char *s = "hello";`) {
		t.Fatalf("output:\n%s", out)
	}
}

func TestTokenPaste(t *testing.T) {
	out := process(t, "#define GLUE(a,b) a ## b\nint GLUE(foo, bar) = 1;\n")
	if !strings.Contains(out, "int foobar = 1;") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestVariadicMacro(t *testing.T) {
	out := process(t, "#define LOG(fmt, ...) printf(fmt, __VA_ARGS__)\nLOG(\"%d %d\", 1, 2);\n")
	if !strings.Contains(out, `printf("%d %d", 1, 2);`) {
		t.Fatalf("output:\n%s", out)
	}
}

func TestUnterminatedConditional(t *testing.T) {
	pp := New(nil)
	pp.Process("t.c", "#ifdef X\nint a;\n")
	if len(pp.Errors()) == 0 {
		t.Fatal("want unterminated-conditional error")
	}
}

func TestDanglingElse(t *testing.T) {
	pp := New(nil)
	pp.Process("t.c", "#else\n#endif\n#elif 1\n")
	if len(pp.Errors()) < 2 {
		t.Fatalf("want dangling errors, got %v", pp.Errors())
	}
}

func TestPredefine(t *testing.T) {
	pp := New(nil)
	pp.Define("NULL", "((void*)0)")
	pp.DefineFunc("ID", []string{"x"}, "x")
	out := pp.Process("t.c", "char *p = NULL; int v = ID(3);\n")
	if !strings.Contains(out, "char *p = ((void*)0); int v = 3;") {
		t.Fatalf("output:\n%s", out)
	}
	if !pp.IsDefined("NULL") || pp.IsDefined("BOGUS") {
		t.Fatal("IsDefined wrong")
	}
	ms := pp.Macros()
	if len(ms) != 2 || ms[0] != "ID" || ms[1] != "NULL" {
		t.Fatalf("Macros() = %v", ms)
	}
}

func TestErrorFormat(t *testing.T) {
	e := &Error{File: "x.c", Line: 3, Msg: "boom"}
	if e.Error() != "x.c:3: boom" {
		t.Fatalf("Error() = %q", e.Error())
	}
}

// Property: output of Process always has content lines aligned such that the
// number of newline-separated lines is >= input lines (padding never loses
// lines), and processing is deterministic.
func TestProcessDeterministic(t *testing.T) {
	f := func(words []uint8) bool {
		vocab := []string{"#define A 1\n", "int x = A;\n", "#ifdef A\n", "#endif\n",
			"char *s = \"A\";\n", "/*@only@*/ char *p;\n", "int f(int a) { return a; }\n"}
		var b strings.Builder
		opens := 0
		for _, w := range words {
			s := vocab[int(w)%len(vocab)]
			if strings.HasPrefix(s, "#ifdef") {
				opens++
			}
			if strings.HasPrefix(s, "#endif") {
				if opens == 0 {
					continue
				}
				opens--
			}
			b.WriteString(s)
		}
		for ; opens > 0; opens-- {
			b.WriteString("#endif\n")
		}
		src := b.String()
		p1 := New(nil).Process("p.c", src)
		p2 := New(nil).Process("p.c", src)
		return p1 == p2
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// A reused shared-base Preprocessor behaves exactly like a fresh one:
// Reset clears the per-file macro overlay and error list, and the reused
// expansion buffer produces byte-identical output.
func TestResetReuse(t *testing.T) {
	base := NewBaseDefines(map[string]string{"BASE": "7"})
	pp := NewShared(nil, base)

	first := "#define LOCAL 1\nint a = LOCAL + BASE;\n#include \"gone.h\"\n"
	got1 := pp.Process("a.c", first)
	if !strings.Contains(got1, "int a = 1 + 7;") {
		t.Errorf("first file expanded wrong:\n%s", got1)
	}
	if len(pp.Errors()) != 1 {
		t.Fatalf("want 1 include error, got %v", pp.Errors())
	}

	pp.Reset()
	second := "int b = LOCAL;\nint c = BASE;\n"
	got2 := pp.Process("b.c", second)
	if len(pp.Errors()) != 0 {
		t.Errorf("errors survived Reset: %v", pp.Errors())
	}
	if !strings.Contains(got2, "int b = LOCAL;") {
		t.Errorf("first file's #define leaked across Reset:\n%s", got2)
	}
	if !strings.Contains(got2, "int c = 7;") {
		t.Errorf("base define lost after Reset:\n%s", got2)
	}

	fresh := NewShared(nil, base).Process("b.c", second)
	if got2 != fresh {
		t.Errorf("reused preprocessor output differs from fresh:\n--- reused ---\n%s--- fresh ---\n%s", got2, fresh)
	}
}

// The shared base table is immutable through the overlay: #define shadows
// and #undef tombstones a base macro for the current file only.
func TestBaseDefinesOverlay(t *testing.T) {
	base := NewBaseDefines(map[string]string{"N": "1"})
	pp := NewShared(nil, base)
	out := pp.Process("a.c", "#define N 2\nint a = N;\n#undef N\nint b = N;\n")
	if !strings.Contains(out, "int a = 2;") || !strings.Contains(out, "int b = N;") {
		t.Errorf("overlay shadow/undef wrong:\n%s", out)
	}
	pp.Reset()
	out = pp.Process("b.c", "int c = N;\n")
	if !strings.Contains(out, "int c = 1;") {
		t.Errorf("base define not restored after Reset:\n%s", out)
	}
	if !pp.IsDefined("N") {
		t.Error("IsDefined(N) = false for a base define")
	}
}

// MapIncluder misses are typed: IsNotFound distinguishes them from other
// includer failures so fallback logic never masks real errors.
func TestNotFoundError(t *testing.T) {
	_, err := MapIncluder(nil).Include("x.h")
	if err == nil || !IsNotFound(err) {
		t.Fatalf("MapIncluder miss = %v, want NotFoundError", err)
	}
	if want := `include file "x.h" not found`; err.Error() != want {
		t.Errorf("error text = %q, want %q", err.Error(), want)
	}
	if IsNotFound(errIO) {
		t.Error("IsNotFound(io error) = true")
	}
}

var errIO = &stubErr{}

type stubErr struct{}

func (*stubErr) Error() string { return "disk on fire" }

// logicalLine is one logical line as the reference splitter reports it.
type logicalLine struct {
	text  string
	line  int // original 1-based starting line
	extra int // how many physical lines were joined beyond the first
}

// splitLogicalLinesInto is the slice-building splitter the preprocessor
// used before lineCursor streamed lines; it is kept as the reference the
// cursor must match line for line.
func splitLogicalLinesInto(dst []logicalLine, src string) []logicalLine {
	dst = dst[:0]
	lineNo := 1
	start := 0
	for {
		rel := strings.IndexByte(src[start:], '\n')
		isLast := rel < 0
		end := len(src)
		if !isLast {
			end = start + rel
		}
		text := src[start:end]
		startLine := lineNo
		extra := 0
		for strings.HasSuffix(text, "\\") && !isLast {
			nstart := end + 1
			nrel := strings.IndexByte(src[nstart:], '\n')
			isLast = nrel < 0
			nend := len(src)
			if !isLast {
				nend = nstart + nrel
			}
			text = text[:len(text)-1] + " " + src[nstart:nend]
			end = nend
			extra++
			lineNo++
		}
		dst = append(dst, logicalLine{text: text, line: startLine, extra: extra})
		if isLast {
			break
		}
		start = end + 1
		lineNo++
	}
	// Drop the phantom line after a trailing newline.
	if n := len(dst); n > 0 && dst[n-1].text == "" && strings.HasSuffix(src, "\n") {
		dst = dst[:n-1]
	}
	return dst
}

// cursorLines drains a lineCursor over src.
func cursorLines(src string) []logicalLine {
	var out []logicalLine
	c := lineCursor{src: src, line: 1}
	for {
		text, line, extra, ok := c.next()
		if !ok {
			return out
		}
		out = append(out, logicalLine{text: text, line: line, extra: extra})
	}
}

func TestLineCursorMatchesReference(t *testing.T) {
	for name, src := range map[string]string{
		"empty":                 "",
		"only-newline":          "\n",
		"no-trailing-newline":   "int a;\nint b;",
		"trailing-newline":      "int a;\nint b;\n",
		"blank-last-line":       "int a;\n\n",
		"blank-lines-only":      "\n\n\n",
		"continuation-at-eof":   "int a;\n#define X 1 \\",
		"continuation-eof-nl":   "int a;\n#define X 1 \\\n",
		"continuation-3-lines":  "#define X 1 + \\\n 2 + \\\n 3\nint v = X;\n",
		"lone-backslash":        "\\",
		"crlf":                  "int a;\r\nint b;\r\n",
		"crlf-continuation":     "#define X 1 \\\r\n 2\r\nint v;\r\n",
		"backslash-then-blank":  "a \\\n\nb\n",
		"continuation-to-blank": "a \\\n",
	} {
		want := splitLogicalLinesInto(nil, src)
		if got := cursorLines(src); !slices.Equal(got, want) {
			t.Errorf("%s: cursor %q, reference %q", name, got, want)
		}
	}
}

// recordingIncluder records every name the preprocessor asks inc for.
type recordingIncluder struct {
	inc   Includer
	names []string
}

func (r *recordingIncluder) Include(name string) (string, error) {
	r.names = append(r.names, name)
	return r.inc.Include(name)
}

// outside returns the recorded names that are not in names.
func (r *recordingIncluder) outside(names []string) []string {
	var out []string
	for _, n := range r.names {
		if !slices.Contains(names, n) {
			out = append(out, n)
		}
	}
	return out
}

// TestIncludeNames pins the names IncludeNames finds: every #include
// operand, live or dead, through continuations and Unicode spaces, plus the
// stray candidates a '#' outside a directive may add. Each source is also
// preprocessed with every name resolvable, and every name asked for must be
// among those found.
func TestIncludeNames(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      []string
	}{
		{"quoted and angled", "#include \"a.h\"\n#include <b.h>\nint x;\n", []string{"a.h", "b.h"}},
		{"spaced", "  #  include\t\"a.h\"  // note\n# include <b.h>\n", []string{"a.h", "b.h"}},
		{"unicode spaces", "\u00a0#\u2003include \"a.h\"\n#\u3000include <b.h>\n", []string{"a.h", "b.h"}},
		{"operand continued", "#include \\\n \"a.h\"\nint x;\n", []string{"a.h"}},
		{"directive name continued", "#\\\ninclude \"a.h\"\n", []string{"a.h"}},
		{"word split by continuation", "#inc\\\nlude \"a.h\"\n", nil},
		{"blank lines continued into directive", "  \\\n \\\n#include \"a.h\"\n", []string{"a.h"}},
		{"directive continued past its operand", "#include \"a.h\" \\\n#include \"b.h\"\n#include \"c.h\"\n", []string{"a.h", "c.h"}},
		{"mid-line hash continued from code", "int x; \\\n#include \"a.h\"\n", []string{"a.h"}},
		{"dead branches", "#if 0\n#include \"a.h\"\n#elif 0\n#include \"b.h\"\n#endif\n#ifdef NOPE\n#include <c.h>\n#endif\n", []string{"a.h", "b.h", "c.h"}},
		{"string", "char *s = \"#include \\\"a.h\\\"\";\n", nil},
		{"comment", "/* #include \"a.h\" */\n// #include <b.h>\n", []string{"a.h", "b.h"}},
		{"define body", "#define X #include \"a.h\"\n", nil},
		{"bad syntax", "#include a.h\n#include \"b.h\n#include <c.h\n#include\n", nil},
		{"continuation at end", "#include \"a.h\"\n#include \\", []string{"a.h"}},
		{"crlf", "#include \"a.h\"\r\n#include \\\r\n<b.h>\r\n", []string{"a.h"}},
		{"empty", "", nil},
	} {
		got := IncludeNames(tc.src)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: IncludeNames = %q, want %q", tc.name, got, tc.want)
		}
		hdrs := MapIncluder{}
		for _, n := range []string{"a.h", "b.h", "c.h"} {
			hdrs[n] = ""
		}
		rec := &recordingIncluder{inc: hdrs}
		New(rec).Process("t.c", tc.src)
		if missing := rec.outside(got); len(missing) > 0 {
			t.Errorf("%s: Process asked for %q, not found by IncludeNames", tc.name, missing)
		}
	}
}
