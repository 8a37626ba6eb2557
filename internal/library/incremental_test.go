package library

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"golclint/internal/cache"
	"golclint/internal/core"
	"golclint/internal/cpp"
	"golclint/internal/obs"
	"golclint/internal/testgen"
)

// Interface libraries for the A/B/C invalidation scenario: module B calls
// module A's a_make; module C is unrelated. In v2, a_make's return loses
// /*@only@*/ — an interface change in A that must invalidate B's cache
// entry (its diagnostics depend on that annotation) but not C's.
const abcIfaceV1 = `extern /*@only@*/ char *a_make (int n);
extern int c_helper (int n);
`
const abcIfaceV2 = `extern char *a_make (int n);
extern int c_helper (int n);
`

const moduleB = `extern void free (/*@only@*/ void *p);

int b_use (int n)
{
	char *p;

	p = a_make (n);
	p[0] = 'b';
	return n;
}
`

const moduleC = `int c_calc (int n)
{
	return c_helper (n) + 1;
}
`

func checkWithLib(t *testing.T, c *cache.Cache, files map[string]string, lib *Library) (*core.Result, *obs.Metrics) {
	t.Helper()
	m := obs.New()
	res := CheckModule(files, lib, core.Options{Cache: c, Metrics: m})
	return res, m
}

func TestInterfaceChangeInvalidatesDependentsOnly(t *testing.T) {
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	libV1 := buildLib(t, abcIfaceV1)
	bFiles := map[string]string{"b.c": moduleB}
	cFiles := map[string]string{"c.c": moduleC}

	// Cold pass populates the cache; warm pass hits for both modules.
	coldB, _ := checkWithLib(t, c, bFiles, libV1)
	coldC, _ := checkWithLib(t, c, cFiles, libV1)
	warmB, mB := checkWithLib(t, c, bFiles, libV1)
	warmC, mC := checkWithLib(t, c, cFiles, libV1)
	if !warmB.CacheHit || !warmC.CacheHit {
		t.Fatalf("warm pass missed: B hit=%t C hit=%t", warmB.CacheHit, warmC.CacheHit)
	}
	if mB.Get(obs.CacheHits) != 1 || mC.Get(obs.CacheHits) != 1 {
		t.Errorf("hit counters: B=%d C=%d", mB.Get(obs.CacheHits), mC.Get(obs.CacheHits))
	}
	if warmB.Messages() != coldB.Messages() || warmC.Messages() != coldC.Messages() {
		t.Error("warm replay differs from cold output")
	}

	// A's interface changes: B (which calls a_make) must re-check cold;
	// C (which never mentions a_make) must still hit.
	libV2 := buildLib(t, abcIfaceV2)
	dirtyB, _ := checkWithLib(t, c, bFiles, libV2)
	if dirtyB.CacheHit {
		t.Error("B hit the cache despite a_make's interface changing")
	}
	stillC, _ := checkWithLib(t, c, cFiles, libV2)
	if !stillC.CacheHit {
		t.Error("C was invalidated by an interface change it does not depend on")
	}

	// The re-check overwrote B's entry with v2 deps: v2 now hits, and
	// reverting to v1 misses again but reproduces the original output.
	againB, _ := checkWithLib(t, c, bFiles, libV2)
	if !againB.CacheHit {
		t.Error("B missed after re-checking against the changed library")
	}
	v1B, _ := checkWithLib(t, c, bFiles, libV1)
	if v1B.CacheHit {
		t.Error("B hit a cache entry recorded under the other library version")
	}
	if v1B.Messages() != coldB.Messages() {
		t.Error("reverted-library re-check differs from the original cold output")
	}
}

// CheckModules over a generated program: cold-vs-warm output must be
// byte-identical at jobs=1 and jobs=8, and corrupting the cache directory
// must degrade to a correct cold re-check.
func TestCheckModulesWarmAndCorrupt(t *testing.T) {
	p := testgen.Generate(testgen.Config{
		Seed: 47, Modules: 6, FuncsPer: 3, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: 3, testgen.BugDoubleFree: 2},
	})
	hdrProg := core.CheckSources(p.Headers, core.Options{})
	lib := Build(hdrProg.Program)
	modules := map[string]map[string]string{}
	for name, src := range p.Files {
		modules[name] = map[string]string{name: src}
	}

	render := func(results map[string]*core.Result) string {
		var out string
		names := make([]string, 0, len(modules))
		for n := range modules {
			names = append(names, n)
		}
		sort.Strings(names) // deterministic transcript
		for _, n := range names {
			out += results[n].Messages()
		}
		return out
	}

	for _, jobs := range []int{1, 8} {
		dir := t.TempDir()
		c, err := cache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		opt := core.Options{Includes: cpp.MapIncluder(p.Headers), Cache: c, Jobs: jobs}
		cold := render(CheckModules(modules, lib, opt))
		if cold == "" {
			t.Fatal("corpus produced no messages; test is vacuous")
		}
		mWarm := obs.New()
		optWarm := opt
		optWarm.Metrics = mWarm
		warm := render(CheckModules(modules, lib, optWarm))
		if warm != cold {
			t.Fatalf("jobs=%d: warm output differs from cold:\n%s\nvs\n%s", jobs, cold, warm)
		}
		if got := mWarm.Get(obs.CacheHits); got != int64(len(modules)) {
			t.Errorf("jobs=%d: warm hits = %d, want %d", jobs, got, len(modules))
		}

		// Corrupt every cache entry: output must still match, all misses.
		err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			return os.WriteFile(path, []byte("corrupt"), 0o644)
		})
		if err != nil {
			t.Fatal(err)
		}
		mCorrupt := obs.New()
		optCorrupt := opt
		optCorrupt.Metrics = mCorrupt
		afterCorrupt := render(CheckModules(modules, lib, optCorrupt))
		if afterCorrupt != cold {
			t.Fatalf("jobs=%d: corrupted-cache output differs from cold", jobs)
		}
		if got := mCorrupt.Get(obs.CacheMisses); got != int64(len(modules)) {
			t.Errorf("jobs=%d: corrupted-cache misses = %d, want %d", jobs, got, len(modules))
		}
	}
}

// A one-module edit re-checks that module alone; the rest replay.
func TestOneDirtyModuleRecheck(t *testing.T) {
	p := testgen.Generate(testgen.Config{Seed: 48, Modules: 5, FuncsPer: 3, Annotate: true})
	hdrProg := core.CheckSources(p.Headers, core.Options{})
	lib := Build(hdrProg.Program)
	modules := map[string]map[string]string{}
	for name, src := range p.Files {
		modules[name] = map[string]string{name: src}
	}
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Includes: cpp.MapIncluder(p.Headers), Cache: c}
	CheckModules(modules, lib, opt)

	// Implementation-only edit to mod0.c: its entry misses, others hit.
	modules["mod0.c"] = map[string]string{"mod0.c": p.Files["mod0.c"] + "\nint dirty_marker;\n"}
	m := obs.New()
	optDirty := opt
	optDirty.Metrics = m
	results := CheckModules(modules, lib, optDirty)
	if m.Get(obs.CacheMisses) != 1 || m.Get(obs.CacheHits) != int64(len(modules)-1) {
		t.Errorf("dirty pass: hits=%d misses=%d, want %d/1",
			m.Get(obs.CacheHits), m.Get(obs.CacheMisses), len(modules)-1)
	}
	if results["mod0.c"].CacheHit {
		t.Error("edited module replayed from cache")
	}
}

// A module's stored records hold only what its check depends on: checked
// against a library holding just the prototypes it uses, or against one
// with 100 unrelated prototypes besides, it stores byte-identical entries.
func TestStoredRecordIgnoresUnusedLibrary(t *testing.T) {
	used := "extern /*@only@*/ char *a_make (int n);\n"
	padded := used
	for i := 0; i < 100; i++ {
		padded += fmt.Sprintf("extern int unrelated_%d (/*@temp@*/ char *s, int n);\n", i)
	}
	var stored [2]map[string]string
	for i, iface := range []string{used, padded} {
		dir := t.TempDir()
		c, err := cache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if res, _ := checkWithLib(t, c, map[string]string{"b.c": moduleB}, buildLib(t, iface)); res.CacheHit {
			t.Fatal("cold check hit")
		}
		stored[i] = map[string]string{}
		err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			stored[i][strings.TrimPrefix(path, dir)] = string(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(stored[0]) < 2 {
		t.Fatalf("stored %d entries, want the module's and its function's", len(stored[0]))
	}
	if !maps.Equal(stored[0], stored[1]) {
		for name, b := range stored[0] {
			if b != stored[1][name] {
				t.Errorf("%s: %d bytes with the used prototypes, %d with 100 more", name, len(b), len(stored[1][name]))
			}
		}
	}
}
