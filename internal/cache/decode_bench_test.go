package cache_test

import (
	"strings"
	"sync"
	"testing"

	"golclint/internal/cache"
	"golclint/internal/cli"
	"golclint/internal/core"
	"golclint/internal/cpp"
	"golclint/internal/library"
	"golclint/internal/testgen"
)

// recordingStore is a MemStore that remembers every key it was given, so
// a benchmark can pick real entries out of a check.
type recordingStore struct {
	*cache.MemStore
	mu      sync.Mutex
	entries map[string]*cache.Entry
}

func (r *recordingStore) Put(key string, e *cache.Entry) (int64, error) {
	n, err := r.MemStore.Put(key, e)
	r.mu.Lock()
	r.entries[key] = e
	r.mu.Unlock()
	return n, err
}

// checkEntries checks p's modules the way the analysis server does
// (interface library from the headers, function layer on) into a memory
// store and returns every entry stored, by key.
func checkEntries(tb testing.TB, p *testgen.Program, explain bool) (*cache.MemStore, map[string]*cache.Entry) {
	sess, err := cli.NewSession("")
	if err != nil {
		tb.Fatal(err)
	}
	rec := &recordingStore{MemStore: cache.NewMemStore(), entries: map[string]*cache.Entry{}}
	modules := map[string]map[string]string{}
	for name, src := range p.Files {
		modules[strings.TrimSuffix(name, ".c")] = map[string]string{name: src}
	}
	library.CheckModules(modules, sess.LibraryFor(p.Headers), core.Options{
		Includes: cpp.MapIncluder(p.Headers), Jobs: 1, Explain: explain,
		Cache: rec, EnvFingerprint: library.SymbolFingerprints,
	})
	return rec.MemStore, rec.entries
}

// realEntries returns a memory store holding a generated corpus's -explain
// entries with the keys of its largest module entry and its largest
// function sub-entry.
func realEntries(tb testing.TB) (st *cache.MemStore, moduleKey, fnKey string) {
	p := testgen.Generate(testgen.Config{Seed: 1, Modules: 16, FuncsPer: 4, StmtsPer: 110, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: 2, testgen.BugUseAfterFree: 2, testgen.BugNullDeref: 2}})
	st, entries := checkEntries(tb, p, true)
	var modSize, fnSize int64
	for k, e := range entries {
		if e.Fn == nil && e.Size > modSize {
			moduleKey, modSize = k, e.Size
		}
		if e.Fn != nil && e.Size > fnSize {
			fnKey, fnSize = k, e.Size
		}
	}
	if moduleKey == "" || fnKey == "" {
		tb.Fatalf("corpus stored no module or no function entry (%d entries)", len(entries))
	}
	return st, moduleKey, fnKey
}

// BenchmarkDecodeEntry times a warm MemStore.Get — the record decode every
// replayed module and function pays — on the largest module entry and the
// largest function sub-entry of a generated corpus.
func BenchmarkDecodeEntry(b *testing.B) {
	st, mod, fn := realEntries(b)
	for _, c := range []struct{ name, key string }{{"module", mod}, {"function", fn}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var e *cache.Entry
			for i := 0; i < b.N; i++ {
				var ok bool
				if e, ok = st.Get(c.key); !ok {
					b.Fatal("miss")
				}
			}
			b.ReportMetric(float64(e.Size), "record-bytes")
		})
	}
}
