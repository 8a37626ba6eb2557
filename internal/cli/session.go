package cli

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"sync"

	"golclint/internal/atomicio"
	"golclint/internal/cache"
	cfgpkg "golclint/internal/cfg"
	"golclint/internal/core"
	"golclint/internal/cpp"
	"golclint/internal/diag"
	"golclint/internal/library"
	"golclint/internal/obs"
	"golclint/internal/sema"
	validatepkg "golclint/internal/validate"
)

// maxResidentLibraries bounds a Session's interface-library memo. Each
// entry is one distinct header set a client checks against; a daemon
// serving one repository sees a handful.
const maxResidentLibraries = 16

// Session owns the warm state a long-lived analysis process keeps between
// runs: a resident in-memory entry store layered over the on-disk cache,
// and a memo of interface libraries keyed by header-set content. The zero
// Session is valid and holds nothing resident — RunConfig uses one per
// invocation, so the one-shot CLI path behaves exactly as before (disk
// cache only, no memory layer). NewSession builds the server form.
//
// A Session is safe for concurrent Execute calls: the stores are internally
// locked, the library memo is mutex-guarded, and everything else Execute
// touches is per-call.
type Session struct {
	mem    *cache.MemStore
	disk   *cache.Cache
	remote *cache.RemoteStore

	libMu sync.Mutex
	libs  map[string]*library.Library
}

// NewSession builds a warm session: a resident memory store, layered over a
// persistent cache at cacheDir when non-empty (so outcomes survive daemon
// restarts and a cold daemon inherits prior CLI runs' entries).
func NewSession(cacheDir string) (*Session, error) {
	s := &Session{mem: cache.NewMemStore(), libs: map[string]*library.Library{}}
	if cacheDir != "" {
		c, err := cache.Open(cacheDir)
		if err != nil {
			return nil, err
		}
		s.disk = c
	}
	return s, nil
}

// Store composes the session's entry store from its configured layers,
// fastest first: memory over disk over remote. A Get falls through until a
// layer hits and the entry is promoted into every faster layer; a Put
// writes through all of them. Absent layers drop out of the composition;
// nil when the session holds none.
func (s *Session) Store() cache.Store {
	var slow cache.Store
	switch {
	case s.disk != nil && s.remote != nil:
		slow = &cache.Layered{Fast: s.disk, Slow: s.remote}
	case s.disk != nil:
		slow = s.disk
	case s.remote != nil:
		slow = s.remote
	}
	switch {
	case s.mem != nil && slow != nil:
		return &cache.Layered{Fast: s.mem, Slow: slow}
	case s.mem != nil:
		return s.mem
	default:
		return slow
	}
}

// LayerStats snapshots every configured store layer's counters, keyed by
// layer name ("mem", "disk", "remote") — the shape -stats-json and the
// server /stats endpoints surface.
func (s *Session) LayerStats() map[string]cache.StoreStats {
	out := map[string]cache.StoreStats{}
	if s.mem != nil {
		out["mem"] = s.mem.Stats()
	}
	if s.disk != nil {
		out["disk"] = s.disk.Stats()
	}
	if s.remote != nil {
		out["remote"] = s.remote.Stats()
	}
	return out
}

// ResidentLibraries reports how many interface libraries the session holds.
func (s *Session) ResidentLibraries() int {
	s.libMu.Lock()
	defer s.libMu.Unlock()
	return len(s.libs)
}

// LibraryFor returns the interface library built from the given header set,
// memoized by content hash so repeated server requests against one
// repository share a single build — the daemon's answer to the per-process
// library rebuild every cold CLI run pays. Dirty-module detection is
// downstream: cached module entries record per-symbol fingerprints from
// this library (Library.Fingerprints), so an interface change invalidates
// exactly the dependents. A header that #includes another header of the
// set sees its declarations, as -dump-lib over the same files does. Returns
// nil for an empty header set.
func (s *Session) LibraryFor(headers map[string]string) *library.Library {
	if len(headers) == 0 {
		return nil
	}
	key := cache.Key(core.Version, "interface-library", headers)
	s.libMu.Lock()
	defer s.libMu.Unlock()
	if s.libs == nil {
		s.libs = map[string]*library.Library{}
	}
	if lib, ok := s.libs[key]; ok {
		return lib
	}
	res := core.CheckSources(headers, core.Options{Includes: cpp.MapIncluder(headers)})
	lib := library.Build(res.Program)
	if len(s.libs) >= maxResidentLibraries {
		// Arbitrary eviction: the memo is a warmth optimization, rebuilt on
		// demand from content that is itself hashed, never a correctness
		// input.
		for k := range s.libs {
			delete(s.libs, k)
			break
		}
	}
	s.libs[key] = lib
	return lib
}

// Module is one unit of a run: its name, which orders the run's modules
// and labels their -diag-jsonl records; the positional paths it came from,
// which -stats-json lists; and a loader for its sources and includer.
type Module struct {
	Name  string
	Paths []string
	Load  func() (map[string]string, cpp.Includer, error)
}

// Execute runs one parsed invocation over already-loaded sources: Check
// over a single module, labeled by its file names.
func (s *Session) Execute(cfg *Config, files map[string]string, inc cpp.Includer, stdout, stderr io.Writer) (int, *core.Result) {
	load := func() (map[string]string, cpp.Includer, error) { return files, inc, nil }
	return s.Check(cfg, []Module{{Name: moduleLabel(files), Paths: cfg.Paths, Load: load}}, stdout, stderr)
}

// Check runs one parsed invocation over modules, in name order, one module
// at a time, against the session's store and the run's interface library
// (cfg.Lib, else the -lib file). It is the module loop behind every entry
// point: Execute, RunShard and the analysis server's requests. It has three
// parts:
//   - once per run, before the first module: metrics and the run span,
//     -trace and the profiles, the -lib load and the -diag-jsonl file;
//   - per module: load, check, and write the module's -diag-jsonl records
//     from its Result;
//   - once per run, after the last module: the trace, the report (each
//     module's errors and messages, in module order), -trace-out, -hot,
//     -cfg, -dump-lib, -stats and -stats-json.
//
// Exit status is 1 when anomalies were reported, 2 on I/O errors. A
// -diag-jsonl write failure exits 2 before the report is printed. The
// returned Result aggregates the modules (it is the module's own Result
// when there is one); its CacheHit is true only when every module replayed
// from the cache, so the server memoizes only fully warm requests.
func (s *Session) Check(cfg *Config, mods []Module, stdout, stderr io.Writer) (int, *core.Result) {
	metrics := cfg.Metrics
	if metrics == nil && (cfg.Stats || cfg.StatsJSON != "" || cfg.TracePath != "" || cfg.TraceOut != "" || cfg.HotN > 0) {
		metrics = obs.New()
	}
	if cfg.TraceOut != "" || cfg.HotN > 0 || cfg.TracePath != "" {
		metrics.BeginRunSpan("golclint")
	}
	var traceFile *os.File
	if cfg.TracePath != "" {
		tf, err := os.Create(cfg.TracePath)
		if err != nil {
			fmt.Fprintf(stderr, "golclint: %v\n", err)
			return 2, nil
		}
		defer tf.Close()
		traceFile = tf
	}
	if cfg.CPUProfile != "" {
		pf, err := os.Create(cfg.CPUProfile)
		if err != nil {
			fmt.Fprintf(stderr, "golclint: %v\n", err)
			return 2, nil
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			fmt.Fprintf(stderr, "golclint: %v\n", err)
			return 2, nil
		}
		defer pprof.StopCPUProfile()
	}
	if cfg.MemProfile != "" {
		mp := cfg.MemProfile
		defer func() {
			mf, err := os.Create(mp)
			if err != nil {
				fmt.Fprintf(stderr, "golclint: %v\n", err)
				return
			}
			defer mf.Close()
			runtime.GC() // settle the heap so the profile reflects live objects
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintf(stderr, "golclint: %v\n", err)
			}
		}()
	}

	opt := core.Options{Flags: cfg.Flags, Metrics: metrics, Jobs: cfg.Jobs, Explain: cfg.Explain}
	var jsonlFile *os.File
	var jsonl *bufio.Writer
	var jsonlErr error // the first -diag-jsonl write error
	if cfg.DiagJSONL != "" {
		f, err := os.Create(cfg.DiagJSONL)
		if err != nil {
			fmt.Fprintf(stderr, "golclint: %v\n", err)
			return 2, nil
		}
		defer f.Close()
		jsonlFile, jsonl = f, bufio.NewWriter(f)
	}
	if cfg.Validate {
		opt.Validate = func(prog *sema.Program, diags []*diag.Diagnostic) {
			validatepkg.Apply(prog, diags, validatepkg.Options{})
		}
	}
	// -cfg and -dump-lib need the analyzed program, which a cache hit
	// skips building, so they disable the cache for this run.
	if !cfg.needsProgram() {
		if st := s.Store(); st != nil {
			opt.Cache = st
			// Function-granular incrementality: with a store present, each
			// function definition gets its own sub-entry so a dirty module
			// re-checks only its edited functions. -fn-cache=false reverts
			// to module-granular caching (the benchmark baseline).
			opt.EnvFingerprint = library.SymbolFingerprints
			opt.DisableFnCache = !cfg.FnCache
		}
	}
	lib := cfg.Lib
	if lib == nil && cfg.LoadLib != "" {
		f, err := os.Open(cfg.LoadLib)
		if err != nil {
			fmt.Fprintf(stderr, "golclint: %v\n", err)
			return 2, nil
		}
		lib, err = library.Decode(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "golclint: %v\n", err)
			return 2, nil
		}
	}
	if lib != nil {
		opt.Lib = lib
	}

	mods = slices.Clone(mods)
	slices.SortStableFunc(mods, func(a, b Module) int { return strings.Compare(a.Name, b.Name) })
	res := &core.Result{CacheHit: len(mods) > 0}
	var errs []string // each module's parse, then sema errors, in module order
	for i := range mods {
		files, inc, err := mods[i].Load()
		if err != nil {
			printReport(cfg, res, errs, stdout, stderr)
			fmt.Fprintf(stderr, "golclint: %v\n", err)
			return 2, res
		}
		// Drop the loader, which may hold the sources: they are garbage
		// once preprocessed, about 1 MB of live heap per 100K lines.
		mods[i].Load = nil
		opt.Includes = inc
		mres := core.CheckSources(files, opt)
		if jsonl != nil && jsonlErr == nil {
			jsonlErr = writeDiagJSONL(jsonl, cfg, mods[i].Name, mres.Diags)
		}
		errs = append(append(errs, mres.ParseErrors...), mres.SemaErrors...)
		if len(mods) == 1 {
			res = mres
			continue
		}
		res.Diags = append(res.Diags, mres.Diags...)
		res.Suppressed += mres.Suppressed
		res.ParseErrors = append(res.ParseErrors, mres.ParseErrors...)
		res.SemaErrors = append(res.SemaErrors, mres.SemaErrors...)
		res.CacheHit = res.CacheHit && mres.CacheHit
	}

	metrics.EndSpan(metrics.RunSpan())
	if traceFile != nil {
		// -validate records provenance too (core.Options.Validate implies
		// Explain), so either flag adds the diag lines.
		if err := writeTrace(traceFile, metrics.Spans(), res.Diags, cfg.Explain || cfg.Validate); err != nil {
			fmt.Fprintf(stderr, "golclint: trace: %v\n", err)
		}
	}

	if jsonl != nil {
		err := jsonlErr
		if ferr := jsonl.Flush(); err == nil {
			err = ferr
		}
		if cerr := jsonlFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(stderr, "golclint: diag-jsonl: %v\n", err)
			return 2, res
		}
	}

	printReport(cfg, res, errs, stdout, stderr)

	if cfg.TraceOut != "" {
		var buf bytes.Buffer
		err := obs.WriteTraceEvents(&buf, metrics.Spans())
		if err == nil {
			err = atomicio.WriteFile(cfg.TraceOut, buf.Bytes(), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "golclint: %v\n", err)
			return 2, res
		}
	}
	if cfg.HotN > 0 {
		fmt.Fprint(stdout, obs.FormatHotTable(metrics.Spans(), cfg.HotN))
	}

	if cfg.ShowCFG != "" {
		printed := false
		for _, u := range res.Units {
			for _, f := range u.Funcs() {
				if f.Name == cfg.ShowCFG {
					fmt.Fprint(stdout, cfgpkg.Build(f).Dump())
					printed = true
				}
			}
		}
		if !printed {
			fmt.Fprintf(stderr, "golclint: function %q not found\n", cfg.ShowCFG)
		}
	}

	if cfg.DumpLib != "" {
		if code := writeLibrary(cfg.DumpLib, res, cfg.Stats, stdout, stderr); code != 0 {
			return code, res
		}
	}

	if cfg.Stats {
		printStatsSummary(stdout, res)
	}

	if cfg.StatsJSON != "" {
		var paths []string
		for _, mod := range mods {
			paths = append(paths, mod.Paths...)
		}
		if err := writeStatsJSON(cfg.StatsJSON, paths, cfg.Flags, metrics, res, cfg.Explain || cfg.Validate, s.LayerStats()); err != nil {
			fmt.Fprintf(stderr, "golclint: %v\n", err)
			return 2, res
		}
	}

	if len(res.Diags) > 0 || len(res.ParseErrors) > 0 {
		return 1, res
	}
	return 0, res
}

// printReport prints the checked modules' parse and sema errors to stderr
// and their messages to stdout, in the surface the output flags select.
func printReport(cfg *Config, res *core.Result, errs []string, stdout, stderr io.Writer) {
	for _, e := range errs {
		fmt.Fprintf(stderr, "%v\n", e)
	}
	var b strings.Builder
	for _, d := range res.Diags {
		b.WriteString(cfg.render(d))
		b.WriteByte('\n')
	}
	io.WriteString(stdout, b.String())
}

// render is d as the run prints it. Explain wins over validate: its
// witness block includes the validation line when -validate also ran.
func (cfg *Config) render(d *diag.Diagnostic) string {
	switch {
	case cfg.Explain:
		return d.Explain()
	case cfg.Validate:
		return d.Validated()
	default:
		return d.String()
	}
}

// writeTrace renders the -trace JSONL stream: one line per checked function,
// from its span, then, when provenance was recorded, one diag line per
// diagnostic in output order. Functions replayed from a cache have no span
// and so no line; diag lines come from the result and so survive a cache
// hit. It returns the first write error.
func writeTrace(w io.Writer, spans []obs.Span, diags []*diag.Diagnostic, withDiags bool) error {
	bw := bufio.NewWriter(w)
	err := obs.WriteFuncLines(bw, spans)
	if err == nil && withDiags {
		lines := make([]obs.DiagLine, len(diags))
		for i, sd := range StatsDiags(diags) {
			pos := diags[i].Pos
			lines[i] = obs.DiagLine{Code: sd.Code, File: pos.File.String(), Line: int(pos.Line),
				Msg: sd.Msg, Ref: sd.Ref, Witness: sd.Witness, Validation: sd.Validation}
		}
		err = obs.WriteDiagLines(bw, lines)
	}
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	return err
}

// moduleLabel names a module for diag-jsonl records: its sorted file names.
func moduleLabel(files map[string]string) string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}
