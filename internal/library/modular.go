package library

import (
	"sort"

	"golclint/internal/core"
	"golclint/internal/obs"
	"golclint/internal/par"
	"golclint/internal/sema"
)

// CheckModule checks one module's source files against the interface
// library: the module is parsed and analyzed alone, the library supplies
// every other module's signatures and globals, and only the module's own
// functions are checked. This is the paper's fast development loop (§7:
// "During the later phases, checking became more modular as I focused on
// subtle problems in a single file").
func CheckModule(files map[string]string, lib *Library, opt core.Options) *core.Result {
	opt.PreCheck = func(prog *sema.Program) error {
		opt.Metrics.Add(obs.LibraryEntriesLoaded, int64(lib.EntryCount()))
		return lib.Install(prog)
	}
	if opt.Cache != nil {
		// Make the library's effect visible to the cache: entries record
		// the fingerprint of every interface fact the module references,
		// and hit only while those facts are unchanged. Without this,
		// core.CheckSources would refuse to cache a PreCheck run.
		if opt.CacheDeps == nil {
			opt.CacheDeps = lib.Fingerprints()
		}
		if opt.EnvFingerprint == nil {
			// Enable the function-granular cache layer: sub-entries record
			// the fingerprints of exactly the symbols each function used,
			// looked up lazily against the post-install environment.
			opt.EnvFingerprint = SymbolFingerprints
		}
	}
	return core.CheckSources(files, opt)
}

// CheckModules re-checks several modules against one shared interface
// library, fanning the modules out to opt.Jobs concurrent workers (0 =
// GOMAXPROCS). Each module gets its own program environment; the library is
// read-only during Install, so a single Library safely serves every worker.
// Results are keyed by module name, and modules are dispatched in sorted
// name order, so the aggregate outcome is deterministic.
//
// Note the two levels of parallelism compose: each per-module CheckSources
// call also fans its functions out per opt.Jobs. Callers checking many
// small modules may prefer to leave opt.Jobs at 1 inside modules by
// setting it before the call; the default (0) is a reasonable blend.
func CheckModules(modules map[string]map[string]string, lib *Library, opt core.Options) map[string]*core.Result {
	names := make([]string, 0, len(modules))
	for n := range modules {
		names = append(names, n)
	}
	sort.Strings(names)
	results := make([]*core.Result, len(names))
	par.Each(len(names), opt.Jobs, func(int) func(int) {
		return func(i int) { results[i] = CheckModule(modules[names[i]], lib, opt) }
	})
	out := make(map[string]*core.Result, len(names))
	for i, n := range names {
		out[n] = results[i]
	}
	return out
}
