package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"golclint/internal/cache"
	"golclint/internal/cpp"
	"golclint/internal/obs"
	"golclint/internal/testgen"
)

// recordingIncluder records every name preprocessing asks inc for. After
// budget answers it reports every name not found, which bounds a header
// that includes itself twice (2^depth expansions otherwise); the names
// asked for stay a subset of what an unbounded run asks for.
type recordingIncluder struct {
	inc    cpp.Includer
	mu     sync.Mutex
	names  map[string]bool
	budget int
}

func (r *recordingIncluder) Include(name string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.names[name] = true
	if r.budget == 0 {
		return "", &cpp.NotFoundError{Name: name}
	}
	r.budget--
	return r.inc.Include(name)
}

// checkClosure preprocesses files through a recorder over headers (and the
// builtin headers) and fails t if preprocessing asked for a name outside
// the module's #include closure. When the recorder's budget held, the
// closure's replayed answers must also give byte-identical expansions and
// errors.
func checkClosure(t *testing.T, label string, files, headers map[string]string) {
	t.Helper()
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	inc := stackedIncluder{primary: cpp.MapIncluder(headers)}
	answers := includeClosure(names, files, inc)
	rec := &recordingIncluder{inc: inc, names: map[string]bool{}, budget: 400}
	direct := preprocessFiles(names, files, rec, 1, nil, 0)
	for name := range rec.names {
		if _, ok := answers[name]; !ok {
			t.Fatalf("%s: preprocessing asked for %q, outside the #include closure %v\nfiles: %q\nheaders: %q",
				label, name, answers, files, headers)
		}
	}
	if rec.budget == 0 {
		return
	}
	replayed := preprocessFiles(names, files, answers, 1, nil, 0)
	for i, name := range names {
		if direct[i].expanded != replayed[i].expanded || fmt.Sprint(direct[i].ppErrs) != fmt.Sprint(replayed[i].ppErrs) {
			t.Fatalf("%s: %s preprocesses differently from the closure's answers", label, name)
		}
	}
}

// TestIncludeClosureCoversPreprocessing: over the golden corpus, the other
// checked-in sources, generated corpora and a fixed-seed mutation loop,
// every name the preprocessor asks for is in the closure the module key
// covers.
func TestIncludeClosureCoversPreprocessing(t *testing.T) {
	dirs, err := filepath.Glob("../../testdata/*")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, dir := range append(dirs, "../../testdata") {
		files, headers := map[string]string{}, map[string]string{}
		ents, _ := os.ReadDir(dir)
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil || e.IsDir() {
				continue
			}
			switch filepath.Ext(e.Name()) {
			case ".c":
				files[e.Name()] = string(b)
			case ".h":
				headers[e.Name()] = string(b)
			}
		}
		for name, src := range files {
			checkClosure(t, filepath.Join(dir, name), map[string]string{name: src}, headers)
			ran++
		}
	}
	if ran < 20 {
		t.Fatalf("only %d checked-in sources found", ran)
	}
	for seed := int64(1); seed <= 6; seed++ {
		p := testgen.Generate(testgen.Config{Seed: seed, Modules: 4, FuncsPer: 3, Annotate: true,
			Bugs: map[testgen.BugKind]int{testgen.BugLeak: 1, testgen.BugNullDeref: 1}})
		checkClosure(t, fmt.Sprintf("testgen seed %d", seed), p.Files, p.Headers)
	}

	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 1500; i++ {
		files, headers := mutantModule(rng)
		checkClosure(t, fmt.Sprintf("mutant %d", i), files, headers)
	}
}

// includeFragments are the pieces mutant sources are spliced from; %s is a
// header name. They cover continuations inside and around #include,
// "# include", Unicode spaces around '#', '#' in strings and comments,
// conditional blocks and (through the header pool) nested and
// self-recursive includes.
var includeFragments = []string{
	"#include \"%s\"\n",
	"#include <%s>\n",
	"# include \"%s\"\n",
	"#\u00a0include \"%s\"\n",
	" #\u3000include <%s>\n",
	"\u2003#\u2003include \"%s\"\n",
	"  #\tinclude \"%s\" // trailing\n",
	"#include \\\n \"%s\"\n",
	"#\\\ninclude \"%s\"\n",
	"#inc\\\nlude \"%s\"\n",
	"  \\\n#include \"%s\"\n",
	"int x; \\\n#include \"%s\"\n",
	"#include \"%s\" \\\n#include \"%s\"\n",
	"#if 0\n#include \"%s\"\n#endif\n",
	"#if 1\n#include \"%s\"\n#else\n#include \"%s\"\n#endif\n",
	"#ifdef GUARD\n#include \"%s\"\n#elif 1\n#include <%s>\n#endif\n",
	"#ifndef GUARD\n#define GUARD\n#include \"%s\"\n#endif\n",
	"char *s = \"#include \\\"%s\\\"\";\n",
	"/* #include \"%s\" */\n",
	"/* a\n#include \"%s\"\n*/\n",
	"// #include <%s>\n",
	"#define INC #include \"%s\"\n",
	"#define S(x) #x\nchar *t = S(%s);\n",
	"#include\n",
	"#include %s\n",
	"int y;\n",
	"\\\n",
	"#",
	"#include \"%s\"",
}

var mutantNames = []string{"a.h", "b.h", "c.h", "self.h", "stdlib.h", "bool.h", "missing.h"}

// mutantSource splices n fragments, then applies up to two byte edits.
func mutantSource(rng *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		frag := includeFragments[rng.Intn(len(includeFragments))]
		args := make([]any, strings.Count(frag, "%s"))
		for j := range args {
			args[j] = mutantNames[rng.Intn(len(mutantNames))]
		}
		fmt.Fprintf(&b, frag, args...)
	}
	s := b.String()
	for k := rng.Intn(3); k > 0 && s != ""; k-- {
		at := rng.Intn(len(s))
		if rng.Intn(3) == 0 {
			s = s[:at] + s[at+1:]
		} else {
			ins := []string{"\\\n", "#", "\n", " ", "\u00a0", "\"", "<", "\\"}
			s = s[:at] + ins[rng.Intn(len(ins))] + s[at:]
		}
	}
	return s
}

// mutantModule is one to three spliced files and a header for every pooled
// name but missing.h.
func mutantModule(rng *rand.Rand) (files, headers map[string]string) {
	files, headers = map[string]string{}, map[string]string{}
	for i := rng.Intn(3); i >= 0; i-- {
		files[fmt.Sprintf("m%d.c", i)] = mutantSource(rng, 1+rng.Intn(8))
	}
	for _, name := range mutantNames {
		if name != "missing.h" && rng.Intn(4) != 0 {
			headers[name] = mutantSource(rng, rng.Intn(5))
		}
	}
	return files, headers
}

// errIncluder fails every lookup of one name with an I/O-style error.
type errIncluder struct {
	cpp.Includer
	name, msg string
}

func (e errIncluder) Include(name string) (string, error) {
	if name == e.name {
		return "", errors.New(e.msg)
	}
	return e.Includer.Include(name)
}

// TestCacheKeyedOnIncludeClosure: the module key covers every answer the
// includer gives for the #include closure (a nested header's bytes, a
// header that is missing rather than empty, an I/O error's text, a local
// header shadowing a builtin one), and a warm hit runs no preprocessing.
func TestCacheKeyedOnIncludeClosure(t *testing.T) {
	const src = "#include <stdlib.h>\n#include \"a.h\"\n#if 0\n#include \"dead.h\"\n#endif\nint x;\n"
	base := map[string]string{"a.h": "#include \"b.h\"\n", "b.h": "int b;\n", "dead.h": "int d;\n"}
	with := func(name, text string) cpp.Includer {
		m := cpp.MapIncluder{}
		for k, v := range base {
			m[k] = v
		}
		m[name] = text
		return m
	}
	without := func(name string) cpp.Includer {
		m := cpp.MapIncluder{}
		for k, v := range base {
			m[k] = v
		}
		delete(m, name)
		return m
	}
	store := cache.NewMemStore()
	check := func(inc cpp.Includer) *Result {
		return CheckSource("m.c", src, Options{Cache: store, Includes: inc})
	}
	check(cpp.MapIncluder(base))
	m := obs.New()
	if r := CheckSource("m.c", src, Options{Cache: store, Includes: cpp.MapIncluder(base), Metrics: m}); !r.CacheHit {
		t.Fatal("unchanged sources and headers missed the cache")
	}
	if ns := m.Snapshot().PhasesNS["preprocess"]; ns != 0 {
		t.Errorf("a warm hit spent %d ns preprocessing", ns)
	}
	for _, tc := range []struct {
		name string
		inc  cpp.Includer
	}{
		{"nested header edited", with("b.h", "int b2;\n")},
		{"dead header edited", with("dead.h", "int d2;\n")},
		{"empty nested header", with("b.h", "")},
		{"nested header missing", without("b.h")},
		{"nested header unreadable", errIncluder{cpp.MapIncluder(base), "b.h", "permission denied"}},
		{"nested header unreadable otherwise", errIncluder{cpp.MapIncluder(base), "b.h", "input/output error"}},
		{"builtin shadowed", with("stdlib.h", "#define NULL 0\n")},
	} {
		if r := check(tc.inc); r.CacheHit {
			t.Errorf("%s: hit the entry of another closure", tc.name)
		}
		if r := check(tc.inc); !r.CacheHit {
			t.Errorf("%s: missed its own entry", tc.name)
		}
	}
}
