package core

import (
	"os"
	"path/filepath"
	"testing"

	"golclint/internal/cache"
	"golclint/internal/flags"
	"golclint/internal/obs"
	"golclint/internal/sema"
)

// cacheFixture has diagnostics in several categories, notes, a suppressed
// message, and a parse-visible include, so replay covers the full surface.
const cacheFixtureSrc = `#include <stdlib.h>
extern char *gname;

void setName (/*@null@*/ char *pname)
{
	gname = pname;
}

void leaky (int n)
{
	char *p;
	p = (char *) malloc (10);
	if (p == NULL) { exit (EXIT_FAILURE); }
	/*@i@*/ p[0] = (char) n;
	if (n > 0) { p = (char *) 0; }
}
`

func TestCacheHitReplaysIdenticalResult(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		c, err := cache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cold := CheckSource("fix.c", cacheFixtureSrc, Options{Cache: c, Jobs: jobs})
		if cold.CacheHit {
			t.Fatalf("jobs=%d: first run claims a cache hit", jobs)
		}
		warm := CheckSource("fix.c", cacheFixtureSrc, Options{Cache: c, Jobs: jobs})
		if !warm.CacheHit {
			t.Fatalf("jobs=%d: second run missed the cache", jobs)
		}
		if cold.Messages() != warm.Messages() {
			t.Errorf("jobs=%d: warm output differs:\ncold:\n%s\nwarm:\n%s", jobs, cold.Messages(), warm.Messages())
		}
		if cold.Suppressed != warm.Suppressed {
			t.Errorf("jobs=%d: suppressed = %d cold vs %d warm", jobs, cold.Suppressed, warm.Suppressed)
		}
		if cold.Messages() == "" || cold.Suppressed == 0 {
			t.Fatalf("jobs=%d: fixture produced no diagnostics/suppressions; test is vacuous", jobs)
		}
	}
}

// Worker count is excluded from the key on purpose (output is
// byte-identical at every -jobs value), so runs at different parallelism
// share entries.
func TestCacheSharedAcrossWorkerCounts(t *testing.T) {
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold := CheckSource("fix.c", cacheFixtureSrc, Options{Cache: c, Jobs: 1})
	warm := CheckSource("fix.c", cacheFixtureSrc, Options{Cache: c, Jobs: 8})
	if !warm.CacheHit {
		t.Fatal("jobs=8 run missed the entry written at jobs=1")
	}
	if warm.Messages() != cold.Messages() {
		t.Fatalf("cross-jobs replay differs:\n%s\nvs\n%s", cold.Messages(), warm.Messages())
	}
}

func TestCacheKeyedOnSourceFlagsAndVersion(t *testing.T) {
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	CheckSource("fix.c", cacheFixtureSrc, Options{Cache: c})
	// Different source: miss.
	r := CheckSource("fix.c", cacheFixtureSrc+"\nint other;\n", Options{Cache: c})
	if r.CacheHit {
		t.Error("changed source hit the cache")
	}
	// Different flags: miss.
	fl := flags.Default()
	if err := fl.Set("-alloc"); err != nil {
		t.Fatal(err)
	}
	if r := CheckSource("fix.c", cacheFixtureSrc, Options{Cache: c, Flags: fl}); r.CacheHit {
		t.Error("changed flags hit the cache")
	}
	// Unchanged everything: hit.
	if r := CheckSource("fix.c", cacheFixtureSrc, Options{Cache: c}); !r.CacheHit {
		t.Error("unchanged input missed the cache")
	}
}

// PreCheck without CacheDeps must bypass the cache entirely: an opaque
// environment mutation is invisible to the key, so caching it could return
// wrong answers.
func TestCacheBypassedForOpaquePreCheck(t *testing.T) {
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Cache: c, PreCheck: func(p *sema.Program) error { return nil }}
	CheckSource("fix.c", cacheFixtureSrc, opt)
	r := CheckSource("fix.c", cacheFixtureSrc, opt)
	if r.CacheHit {
		t.Fatal("opaque PreCheck run hit the cache")
	}
	// With CacheDeps supplied the same shape is cacheable.
	opt.CacheDeps = map[string]string{}
	CheckSource("fix.c", cacheFixtureSrc, opt)
	if r := CheckSource("fix.c", cacheFixtureSrc, opt); !r.CacheHit {
		t.Fatal("PreCheck+CacheDeps run missed the cache")
	}
}

// A changed dependency fingerprint for a mentioned identifier invalidates
// the entry; fingerprints of unmentioned symbols are irrelevant.
func TestCacheDepFingerprintInvalidation(t *testing.T) {
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pre := func(p *sema.Program) error { return nil }
	deps := map[string]string{"malloc": "fp-a", "unrelated_symbol": "fp-x"}
	opt := Options{Cache: c, PreCheck: pre, CacheDeps: deps}
	CheckSource("fix.c", cacheFixtureSrc, opt)

	// Unrelated symbol changes: still a hit (fix.c never mentions it).
	opt.CacheDeps = map[string]string{"malloc": "fp-a", "unrelated_symbol": "fp-y"}
	if r := CheckSource("fix.c", cacheFixtureSrc, opt); !r.CacheHit {
		t.Error("unrelated fingerprint change invalidated the entry")
	}
	// A symbol the module calls changes: miss.
	opt.CacheDeps = map[string]string{"malloc": "fp-b", "unrelated_symbol": "fp-x"}
	if r := CheckSource("fix.c", cacheFixtureSrc, opt); r.CacheHit {
		t.Error("changed malloc fingerprint did not invalidate the entry")
	}
}

func TestCacheCountersAndStats(t *testing.T) {
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New()
	CheckSource("fix.c", cacheFixtureSrc, Options{Cache: c, Metrics: m})
	if got := m.Get(obs.CacheMisses); got != 1 {
		t.Errorf("cache_misses = %d, want 1", got)
	}
	if got := m.Get(obs.CacheHits); got != 0 {
		t.Errorf("cache_hits = %d, want 0", got)
	}
	written := m.Get(obs.CacheBytes)
	if written <= 0 {
		t.Errorf("cache_bytes after miss = %d, want > 0", written)
	}
	CheckSource("fix.c", cacheFixtureSrc, Options{Cache: c, Metrics: m})
	if got := m.Get(obs.CacheHits); got != 1 {
		t.Errorf("cache_hits = %d, want 1", got)
	}
	if got := m.Get(obs.CacheBytes); got <= written {
		t.Errorf("cache_bytes did not grow on hit: %d then %d", written, got)
	}
}

// Corrupting the entry on disk degrades to a cold check with the same
// output — never an error, never a wrong answer.
func TestCacheCorruptionFallsBackCold(t *testing.T) {
	dir := t.TempDir()
	c, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := CheckSource("fix.c", cacheFixtureSrc, Options{Cache: c})

	// Truncate every entry file in the cache dir.
	n := 0
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		n++
		return os.Truncate(path, info.Size()/2)
	})
	if err != nil || n == 0 {
		t.Fatalf("no entries truncated (n=%d, err=%v)", n, err)
	}

	again := CheckSource("fix.c", cacheFixtureSrc, Options{Cache: c})
	if again.CacheHit {
		t.Fatal("truncated entry produced a hit")
	}
	if again.Messages() != cold.Messages() {
		t.Fatalf("fallback output differs:\n%s\nvs\n%s", cold.Messages(), again.Messages())
	}
	// The fallback run rewrote the entry; the next run hits again.
	if r := CheckSource("fix.c", cacheFixtureSrc, Options{Cache: c}); !r.CacheHit {
		t.Fatal("entry not repopulated after corruption fallback")
	}
}

func TestNilCacheOptionUnchangedBehavior(t *testing.T) {
	plain := CheckSource("fix.c", cacheFixtureSrc, Options{})
	if plain.CacheHit {
		t.Error("uncached run carries cache state")
	}
	if plain.Program == nil || len(plain.Units) == 0 {
		t.Error("uncached run lost Program/Units")
	}
}
