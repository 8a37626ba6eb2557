package cpp

import (
	"slices"
	"testing"
)

// fuzzIncluder serves one header for any name, at most left times per
// run: a source that includes itself twice would otherwise expand 2^depth
// times before the depth bound stops it.
type fuzzIncluder struct {
	hdr  string
	left int
}

func (f *fuzzIncluder) Include(name string) (string, error) {
	if f.left == 0 {
		return "", &NotFoundError{Name: name}
	}
	f.left--
	return f.hdr, nil
}

// fuzzOther is the file a reused Preprocessor processes before the fuzzed
// one: it defines (and undefines) macros under many first letters, so the
// name filter and overlay hold stale state, and it is long enough to grow
// the expansion buffer past the fuzzed file's needs.
const fuzzOther = `#define A 1
#define zz(x) x + zz
#define _u __VA_ARGS__
#define Q(a, ...) a __VA_ARGS__
#undef NULL
#undef A
#ifdef zz
int used = zz(A) + Q(1, 2, 3);
#endif
#include "other.h"
` + "/* padding ................................................................ */\n" +
	"/* padding ................................................................ */\n"

// FuzzPreprocess runs arbitrary bytes through the preprocessor as a source
// and as the header it includes. It must never panic; a Preprocessor
// reused after Reset on another file must give byte-identical output and
// errors to a fresh one (the expansion buffer and the macro-name filter
// carry over between files); and the streamed logical lines must match
// the reference splitter.
func FuzzPreprocess(f *testing.F) {
	for _, s := range []string{
		"",
		"\n",
		"int a;",
		"#define N 10\nint a[N];\n",
		"#define SQR(x) ((x)*(x))\nint y = SQR(N+1);\n",
		"#ifdef\n#endif\n#ifndef\nint z;\n#else\nint w;\n#endif\n",
		"#if defined(NULL) && N > 2\nint p;\n#elif 1/0\n#endif\n",
		"#define LONG 1 + \\\n 2 + \\\n 3\nint v = LONG;\n",
		"#define X \\",
		"int a;\r\n#define B 2\r\nint b = B;\r\n",
		"#include \"self.h\"\n#include \"self.h\"\nint once;\n",
		"#undef NULL\nchar *p = NULL;\n#define NULL 0\n",
		"#define S(x) #x\n#define P(a,b) a ## b\nchar *s = S(hi); int P(x, y);\n",
		"/* #define C 1 */ \"C\" 'C' C // C\n",
	} {
		f.Add([]byte(s))
	}
	base := NewBaseDefines(map[string]string{"NULL": "((void*)0)", "N": "3"})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		src := string(data)
		if got, want := cursorLines(src), splitLogicalLinesInto(nil, src); !slices.Equal(got, want) {
			t.Fatalf("cursor %q, reference %q", got, want)
		}

		run := func(pp *Preprocessor, inc *fuzzIncluder) (string, []string) {
			inc.left = 4
			out := pp.Process("fz.c", src)
			var errs []string
			for _, e := range pp.Errors() {
				errs = append(errs, e.Error())
			}
			return out, errs
		}
		freshInc := &fuzzIncluder{hdr: src}
		want, wantErrs := run(NewShared(freshInc, base), freshInc)

		reusedInc := &fuzzIncluder{hdr: src}
		pp := NewShared(reusedInc, base)
		reusedInc.left = 4
		pp.Process("other.c", fuzzOther+src)
		pp.Reset()
		got, gotErrs := run(pp, reusedInc)
		if got != want {
			t.Fatalf("reused output differs from fresh:\n--- reused ---\n%q\n--- fresh ---\n%q", got, want)
		}
		if !slices.Equal(gotErrs, wantErrs) {
			t.Fatalf("reused errors %q, fresh %q", gotErrs, wantErrs)
		}
	})
}
