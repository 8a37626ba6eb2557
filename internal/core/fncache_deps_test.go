package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"golclint/internal/cache"
	"golclint/internal/cpp"
	"golclint/internal/sema"
	"golclint/internal/testgen"
)

// moduleEntryStore keeps the module-level entry a check stores and counts
// the function sub-entries beside it.
type moduleEntryStore struct {
	mu     sync.Mutex
	module *cache.Entry
	fnPuts int
}

func (s *moduleEntryStore) Get(string) (*cache.Entry, bool) { return nil, false }

func (s *moduleEntryStore) Put(key string, e *cache.Entry) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Fn != nil {
		s.fnPuts++
	} else {
		s.module = e
	}
	return 0, nil
}

// With the function layer on, a module entry's Deps are built from the
// identifier sets the segmenter recorded; with it off, from
// cache.Identifiers over every expanded file. The two must be the same
// set, so reusing the layer's lexing pass changes no dependency.
func TestModuleDepsFromFunctionLayer(t *testing.T) {
	type module struct {
		name  string
		files map[string]string
		inc   cpp.Includer
	}
	var mods []module
	paths, err := filepath.Glob("../../testdata/corpus/*.c")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus files (%v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, module{filepath.Base(p), map[string]string{filepath.Base(p): string(src)}, nil})
	}
	gen := testgen.Generate(testgen.Config{Seed: 5, Modules: 6, FuncsPer: 4, StmtsPer: 20, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: 2, testgen.BugNullDeref: 2}})
	for name, src := range gen.Files {
		mods = append(mods, module{name, map[string]string{name: src}, cpp.MapIncluder(gen.Headers)})
	}
	// Two files in one module: the union crosses files.
	two := map[string]string{}
	for name, src := range gen.Files {
		if len(two) < 2 {
			two[name] = src
		}
	}
	mods = append(mods, module{"two-file", two, cpp.MapIncluder(gen.Headers)})

	env := func(*sema.Program) func(string) string { return func(string) string { return "" } }
	active := 0
	for _, m := range mods {
		layered, plain := &moduleEntryStore{}, &moduleEntryStore{}
		CheckSources(m.files, Options{Includes: m.inc, Jobs: 1, Cache: layered, EnvFingerprint: env})
		CheckSources(m.files, Options{Includes: m.inc, Jobs: 1, Cache: plain, EnvFingerprint: env, DisableFnCache: true})
		if layered.module == nil || plain.module == nil {
			t.Fatalf("%s: no module entry stored", m.name)
		}
		if plain.fnPuts != 0 {
			t.Fatalf("%s: function layer ran with DisableFnCache", m.name)
		}
		if layered.fnPuts > 0 {
			active++
		}
		if !reflect.DeepEqual(layered.module.Deps, plain.module.Deps) {
			t.Errorf("%s: deps differ\nfunction layer: %v\nIdentifiers:    %v", m.name, names(layered.module.Deps), names(plain.module.Deps))
		}
	}
	t.Logf("function layer active on %d of %d modules", active, len(mods))
	if active < len(mods)/2 {
		t.Fatalf("function layer active on %d of %d modules; test is close to vacuous", active, len(mods))
	}
}

func names(deps []cache.Dep) string {
	var b strings.Builder
	for _, d := range deps {
		b.WriteString(d.Name + " ")
	}
	return b.String()
}
