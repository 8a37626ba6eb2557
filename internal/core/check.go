package core

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"golclint/internal/cache"
	"golclint/internal/cast"
	"golclint/internal/cparse"
	"golclint/internal/cpp"
	"golclint/internal/ctoken"
	"golclint/internal/diag"
	"golclint/internal/flags"
	"golclint/internal/obs"
	"golclint/internal/par"
	"golclint/internal/sema"
)

// Version fingerprints the analysis implementation for cache keying. Bump
// it whenever a change can alter diagnostics for unchanged input (checker
// rules, message wording, suppression semantics, preprocessing): stale
// cache entries then simply never hit again.
const Version = "golclint-core/v1"

// Options configures a checking run.
type Options struct {
	// Flags is the checker configuration; nil means flags.Default().
	Flags *flags.Flags
	// Includes resolves #include directives beyond the builtin headers;
	// may be nil.
	Includes cpp.Includer
	// Lib, when non-nil, is the interface library the module is checked
	// against (library.CheckModule sets it). It is installed after
	// environment construction and before checking, and under Cache its
	// per-symbol fingerprints are the entries' dependencies: an entry hits
	// only while every interface fact it was checked against is unchanged,
	// so an interface change in one module transitively invalidates exactly
	// its dependents.
	Lib Library
	// Metrics, when non-nil, receives analysis counters and the module,
	// phase, file and function spans its phase timings are derived from. A
	// nil Metrics disables instrumentation; hooks then cost one pointer test
	// (see internal/obs).
	Metrics *obs.Metrics
	// Jobs bounds the number of concurrent workers, for both the per-file
	// frontend fan-out (preprocess, parse) and the per-function checking
	// fan-out: 0 means runtime.GOMAXPROCS(0), 1 forces serial. Files and
	// function bodies are analyzed independently (the paper's modularity
	// argument, §7) and results merge back in a deterministic order, so
	// output is byte-identical at every worker count.
	Jobs int
	// Cache, when non-nil, consults the analysis cache before checking and
	// stores the outcome after: an unchanged input replays its stored
	// diagnostics without lexing, parsing, or checking (the Result then has
	// CacheHit set and carries no Program or Units). Any cache.Store works —
	// the on-disk cache for one-shot runs, a resident memory store layered
	// over it for the analysis server.
	Cache cache.Store
	// CacheExport is ignored: cache entries hold no interface library,
	// and -dump-lib runs uncached so it always has the analyzed program.
	//
	// Deprecated: ignored; kept only so existing callers still compile.
	CacheExport func(*sema.Program) ([]byte, error)
	// Explain switches on provenance recording: every diagnostic carries a
	// witness path (diag.Provenance) describing the CFG blocks, branch
	// decisions, and ref state transitions the checker followed. Default
	// output is unchanged (String ignores provenance); witnesses surface
	// via -explain, -stats-json, and the -trace stream. Explain runs address
	// distinct cache entries (the key gains an "explain" component) so
	// provenance round-trips through the cache without ever appearing in
	// default-mode entries.
	Explain bool
	// Validate, when non-nil, runs after checking over the final sorted
	// diagnostics and may attach a Validation record to each (the
	// counterexample-validation pass, internal/validate). It runs before
	// the cache entry is stored, so validation outcomes round-trip through
	// the cache and warm runs replay them without re-executing anything;
	// the key gains a "validate" component so unvalidated entries are
	// never replayed as validated ones. Validation derives its harnesses
	// from witness paths, so a non-nil Validate implies Explain.
	Validate func(*sema.Program, []*diag.Diagnostic)
	// EnvFingerprint, when non-nil, returns a lazy per-symbol interface
	// fingerprint lookup for the analyzed (post-install) program
	// (library.SymbolFingerprints is the standard implementation). Setting
	// it enables the function-granular cache layer: when the module-level
	// key misses, each function definition consults its own sub-entry and
	// only functions whose span, skeleton, or used interface facts changed
	// re-check (see fncache.go). Requires Cache; ignored otherwise.
	EnvFingerprint func(*sema.Program) func(name string) string
	// DisableFnCache switches the function-granular layer off even when
	// EnvFingerprint is set. Benchmark baselines use it to measure the
	// module-granular warm path the layer is compared against.
	DisableFnCache bool
}

// Library is an interface environment a module is checked against: the
// signatures, globals and enum constants of every other module
// (internal/library's Library implements it).
type Library interface {
	// Install merges the library into the analyzed program.
	Install(*sema.Program) error
	// EntryCount is the number of interface entries the library supplies.
	EntryCount() int
	// Fingerprints maps every symbol the library supplies to its interface
	// fingerprint.
	Fingerprints() map[string]string
}

// Result is the outcome of a checking run.
type Result struct {
	// Diags are the retained diagnostics in source order.
	Diags []*diag.Diagnostic
	// Suppressed counts messages dropped by stylized comments.
	Suppressed int
	// ParseErrors are syntax/preprocessing errors.
	ParseErrors []string
	// SemaErrors are environment-construction errors.
	SemaErrors []string
	// Program is the analyzed environment (nil on a cache hit).
	Program *sema.Program
	// Units are the parsed translation units (nil on a cache hit).
	Units []*cast.Unit
	// CacheHit reports that the run was replayed from the analysis cache.
	CacheHit bool
}

// Messages renders the diagnostics in the paper's format.
func (r *Result) Messages() string {
	var b []byte
	for _, d := range r.Diags {
		b = append(b, d.String()...)
		b = append(b, '\n')
	}
	return string(b)
}

// ExplainedMessages renders the diagnostics with their witness paths
// appended (the -explain surface). Identical to Messages when no
// provenance was recorded.
func (r *Result) ExplainedMessages() string {
	var b []byte
	for _, d := range r.Diags {
		b = append(b, d.Explain()...)
		b = append(b, '\n')
	}
	return string(b)
}

// CountByCode tallies diagnostics per code.
func (r *Result) CountByCode() map[diag.Code]int {
	m := map[diag.Code]int{}
	for _, d := range r.Diags {
		m[d.Code]++
	}
	return m
}

// builtinHeaders are the headers the checker provides itself so checked
// programs are self-contained (the substitution for the system headers the
// real LCLint relied on).
var builtinHeaders = map[string]string{
	"stdlib.h": "typedef unsigned long size_t;\n" +
		"#define NULL ((void*)0)\n" +
		"#define EXIT_FAILURE 1\n" +
		"#define EXIT_SUCCESS 0\n",
	"stdio.h": "#define NULL ((void*)0)\n" +
		"#define EOF (-1)\n",
	"string.h": "typedef unsigned long size_t;\n" +
		"#define NULL ((void*)0)\n",
	"assert.h": "",
	"bool.h": "typedef int bool;\n" +
		"#define TRUE 1\n" +
		"#define FALSE 0\n",
}

var builtinInc = cpp.MapIncluder(builtinHeaders)

// stackedIncluder resolves from the primary includer first, then the
// builtin headers.
type stackedIncluder struct {
	primary cpp.Includer
}

// Include implements cpp.Includer. The builtin fallback applies only when
// the primary does not have the file; any other primary error (an I/O
// failure, say) surfaces as-is rather than being masked by a builtin with
// the same name or converted into "not found".
func (s stackedIncluder) Include(name string) (string, error) {
	if s.primary != nil {
		src, err := s.primary.Include(name)
		if err == nil {
			return src, nil
		}
		if !cpp.IsNotFound(err) {
			return "", err
		}
	}
	return builtinInc.Include(name)
}

// includeAnswer is an includer's answer for one name: the header's bytes,
// or the error (not found, or an I/O failure).
type includeAnswer struct {
	src string
	err error
}

// includeClosure asks inc once for every name in the transitive #include
// closure of the files: the names cpp.IncludeNames finds in each file, and
// in each header those names resolve to. The closure covers every name
// preprocessing the files can ask for (cpp.IncludeNames), and inc answers a
// name the same whichever file includes it, so the answers are everything
// preprocessing reads beyond the files themselves.
func includeClosure(names []string, files map[string]string, inc cpp.Includer) closureIncluder {
	answers := closureIncluder{}
	var visit func(src string)
	visit = func(src string) {
		for _, name := range cpp.IncludeNames(src) {
			if _, seen := answers[name]; seen {
				continue
			}
			hdr, err := inc.Include(name)
			answers[name] = includeAnswer{hdr, err}
			if err == nil {
				visit(hdr)
			}
		}
	}
	for _, name := range names {
		visit(files[name])
	}
	return answers
}

// closureIncluder replays the answers includeClosure collected, so a module
// that misses the cache is preprocessed from exactly the bytes its key
// covers, and no header is read twice.
type closureIncluder map[string]includeAnswer

// Include implements cpp.Includer. A name outside the closure cannot be
// asked for; it reports not found.
func (c closureIncluder) Include(name string) (string, error) {
	a, ok := c[name]
	if !ok {
		return "", &cpp.NotFoundError{Name: name}
	}
	return a.src, a.err
}

// sourceKey feeds the module's inputs to kh: each file's name and bytes,
// then each closure name with the includer's answer (the header's bytes, or
// the error preprocessing would report), in sorted name order. Both lists
// are count-prefixed so they cannot run into each other. cpp.Process is a
// pure function of a file's name, its bytes, the fixed base defines and the
// answers to the names it asks for, so equal keys mean equal expanded text
// and equal preprocessing errors.
func sourceKey(kh *cache.KeyHasher, names []string, files map[string]string, answers closureIncluder) {
	kh.Component(strconv.Itoa(len(names)))
	for _, name := range names {
		kh.File(name, files[name], nil)
	}
	hdrs := make([]string, 0, len(answers))
	for name := range answers {
		hdrs = append(hdrs, name)
	}
	sort.Strings(hdrs)
	kh.Component(strconv.Itoa(len(hdrs)))
	for _, name := range hdrs {
		a := answers[name]
		var errs []string
		if a.err != nil {
			errs = []string{a.err.Error()}
		}
		kh.File(name, a.src, errs)
	}
}

// fileFront is one file's frontend outcome, filled into index-ordered
// slots by the preprocess and parse fan-outs. Workers write disjoint
// slots, so no lock is needed, and replaying the slots in name order keeps
// every downstream consumer (cache keys, ParseErrors, suppressions)
// byte-identical at any worker count — the same replay discipline the
// per-function checking fan-out uses.
type fileFront struct {
	expanded string
	ppErrs   []string
	pr       *cparse.Result
}

// baseDefines is the shared immutable predefinition table every run
// starts from: the builtin NULL.
var baseDefines = cpp.NewBaseDefines(map[string]string{"NULL": "((void*)0)"})

// preprocessFiles expands every file on up to jobs workers, each owning
// one reusable Preprocessor over the run's shared base-define table and
// resolving includes through inc. The expanded text (headers, defines, and
// includes inlined) is the parser input.
func preprocessFiles(names []string, files map[string]string, inc cpp.Includer, jobs int, m *obs.Metrics, parent obs.SpanID) []fileFront {
	fronts := make([]fileFront, len(names))
	phaseSpan := m.StartSpan(obs.SpanPhase, obs.PhasePreprocess.String(), parent, 0)
	doFile := func(pp *cpp.Preprocessor, i, w int) {
		pp.Reset()
		fileSpan := m.StartSpan(obs.SpanFile, names[i], phaseSpan, w)
		fronts[i].expanded = pp.Process(names[i], files[names[i]])
		m.EndSpan(fileSpan)
		for _, e := range pp.Errors() {
			fronts[i].ppErrs = append(fronts[i].ppErrs, e.Error())
		}
	}
	par.Each(len(names), jobs, func(w int) func(int) {
		pp := cpp.NewShared(inc, baseDefines)
		return func(i int) { doFile(pp, i, w) }
	})
	m.EndSpan(phaseSpan)
	return fronts
}

// parseFiles parses every preprocessed file on up to jobs workers, each
// owning one parse Session (reused token buffer) over a run-wide shared
// identifier interner. Counters accumulate atomically, so they are
// order-independent and identical at every worker count.
func parseFiles(names []string, fronts []fileFront, m *obs.Metrics, jobs int, parent obs.SpanID) {
	in := ctoken.NewInterner()
	phaseSpan := m.StartSpan(obs.SpanPhase, obs.PhaseParse.String(), parent, 0)
	doFile := func(s *cparse.Session, i, w int) {
		fileSpan := m.StartSpan(obs.SpanFile, names[i], phaseSpan, w)
		pr := s.Parse(names[i], fronts[i].expanded)
		m.EndSpan(fileSpan)
		if m.Enabled() {
			m.Add(obs.TokensLexed, int64(pr.Tokens))
			m.Add(obs.AnnotationsConsumed, int64(pr.Annots))
			m.Add(obs.ASTNodes, int64(cast.CountNodes(pr.Unit)))
		}
		fronts[i].pr = pr
	}
	par.Each(len(names), jobs, func(w int) func(int) {
		s := cparse.NewSession(in)
		return func(i int) { doFile(s, i, w) }
	})
	m.EndSpan(phaseSpan)
}

// CheckSources preprocesses, parses, analyzes, and checks a set of source
// files (name -> contents), processed in sorted name order for
// determinism.
func CheckSources(files map[string]string, opt Options) *Result {
	if opt.Validate != nil {
		opt.Explain = true
	}
	fl := opt.Flags
	if fl == nil {
		fl = flags.Default()
	}
	m := opt.Metrics
	res := &Result{}
	rep := diag.NewReporter(fl.MaxMessages)

	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)

	// The module span is what -stats-json's total_ns sums; it closes
	// before the diagnostics stream to the sink.
	modSpan := m.StartSpan(obs.SpanModule, moduleName(names), m.RunSpan(), 0)

	// Caching is sound because everything that can influence the outcome
	// is in the key (version, flags, the sources and the includer's answers
	// for their #include closure) or in the recorded dependency
	// fingerprints (the installed library's, "" for every symbol when there
	// is none). The key is computed before preprocessing, so a hit never
	// runs the preprocessor; a miss preprocesses from the answers the key
	// covers.
	var inc cpp.Includer = stackedIncluder{primary: opt.Includes}
	cacheable := opt.Cache != nil
	var key string
	var libFP map[string]string
	if cacheable {
		if opt.Lib != nil {
			libFP = opt.Lib.Fingerprints()
		}
		// Components stream straight into the hasher; nothing is
		// concatenated just to be hashed. "source" keeps these keys apart
		// from the expanded-text keys of earlier builds.
		kh := cache.NewKeyHasher(Version, fl.Fingerprint())
		kh.Component("source")
		if opt.Explain {
			// Explain entries carry witnesses, so they address a distinct
			// key: default runs never load provenance-bearing entries, and
			// warm -explain runs replay cold witnesses byte for byte.
			kh.Component("explain")
		}
		if opt.Validate != nil {
			// Validated entries carry validation tags; keep them apart from
			// plain explain entries for the same reason.
			kh.Component("validate")
		}
		answers := includeClosure(names, files, inc)
		sourceKey(kh, names, files, answers)
		key = kh.Sum()
		if e, ok := opt.Cache.Get(key); ok && cache.DepsMatch(e.Deps, libFP) {
			res.Diags = e.Diags
			res.Suppressed = e.Suppressed
			res.ParseErrors = e.ParseErrors
			res.SemaErrors = e.SemaErrors
			res.CacheHit = true
			if m.Enabled() {
				m.Add(obs.CacheHits, 1)
				m.Add(obs.CacheBytes, e.Size)
				m.Add(obs.DiagnosticsEmitted, int64(len(res.Diags)))
				m.Add(obs.DiagnosticsSuppressed, int64(res.Suppressed))
			}
			// Validation tags replay from the entry; recount them so warm
			// -stats-json agrees with the cold run (wall time stays zero:
			// nothing was re-executed).
			countValidation(m, res.Diags)
			m.EndSpan(modSpan)
			return res
		}
		inc = answers
		m.Add(obs.CacheMisses, 1)
	}

	fronts := preprocessFiles(names, files, inc, opt.Jobs, m, modSpan)
	parseFiles(names, fronts, m, opt.Jobs, modSpan)

	// Replay the per-file slots in serial name order: error ordering and
	// suppression registration are exactly what a serial run produces.
	var units []*cast.Unit
	for i := range names {
		res.ParseErrors = append(res.ParseErrors, fronts[i].ppErrs...)
		pr := fronts[i].pr
		for _, e := range pr.Errors {
			res.ParseErrors = append(res.ParseErrors, e.Error())
		}
		var controls []diag.Control
		for _, ctl := range pr.Controls {
			controls = append(controls, diag.Control{Pos: ctl.Pos, Text: ctl.Text})
		}
		rep.AddSuppressions(controls)
		units = append(units, pr.Unit)
	}

	semaSpan := m.StartSpan(obs.SpanPhase, obs.PhaseSema.String(), modSpan, 0)
	prog := sema.Analyze(units)
	for _, e := range prog.Errors {
		res.SemaErrors = append(res.SemaErrors, e.Error())
	}
	if opt.Lib != nil {
		m.Add(obs.LibraryEntriesLoaded, int64(opt.Lib.EntryCount()))
		if err := opt.Lib.Install(prog); err != nil {
			res.SemaErrors = append(res.SemaErrors, err.Error())
		}
	}
	m.EndSpan(semaSpan)

	// The function-granular cache layer engages only when the module key
	// missed but the run is otherwise cacheable, the caller supplied an
	// interface-fingerprint environment, and the frontend was clean (parse
	// or preprocess errors make span/AST alignment untrustworthy, so such
	// modules fail safe to the module-granular path).
	var fnc *fnCacheCtx
	if cacheable && opt.EnvFingerprint != nil && !opt.DisableFnCache && len(res.ParseErrors) == 0 {
		fnc = newFnCacheCtx(names, fronts, prog, fl, opt)
	}
	checkProgram(prog, fl, rep, m, opt.Jobs, opt.Explain, modSpan, fnc)

	res.Diags = rep.Diags()
	res.Suppressed = rep.Suppressed()
	res.Program = prog
	res.Units = units
	if opt.Validate != nil {
		// Counterexample validation runs over the final sorted diagnostics,
		// before the cache write, so the tags it attaches are stored and
		// warm runs replay them byte for byte.
		var vStart time.Time
		if m.Enabled() {
			vStart = time.Now()
		}
		opt.Validate(prog, res.Diags)
		if m.Enabled() {
			m.Add(obs.ValidateWallNS, time.Since(vStart).Nanoseconds())
		}
		countValidation(m, res.Diags)
	}
	if fnc != nil {
		// Store per-function sub-entries after validation, so replayed
		// functions carry their validation tags as well as their witnesses.
		fnc.finish()
	}
	if cacheable {
		entry := &cache.Entry{
			Diags:      res.Diags,
			Suppressed: res.Suppressed, ParseErrors: res.ParseErrors, SemaErrors: res.SemaErrors,
		}
		// Record the interface fingerprint of every identifier the module
		// mentions ("" for symbols the library does not supply, and for
		// every symbol of a run without one): the entry stays valid exactly
		// until one of those facts changes. The "" fingerprints are also
		// what keeps a run with a library from replaying the entry of the
		// same bytes checked without one, and the other way round: the key
		// has no library component. The function
		// layer has already lexed every byte for its identifier sets, so its
		// union is reused rather than scanning the module again.
		var ids []string
		if fnc != nil {
			ids = fnc.idents
		} else {
			for i := range names {
				ids = append(ids, cache.Identifiers(fronts[i].expanded)...)
			}
			ids = sortedSet(ids)
		}
		entry.Deps = depsOf(ids, func(id string) string { return libFP[id] })
		// A failed write is a lost optimization, not an error: the run's
		// own result is already computed.
		if n, err := opt.Cache.Put(key, entry); err == nil {
			m.Add(obs.CacheBytes, n)
		}
	}
	if m.Enabled() {
		m.Add(obs.DiagnosticsEmitted, int64(len(res.Diags)))
		m.Add(obs.DiagnosticsSuppressed, int64(res.Suppressed))
	}
	m.EndSpan(modSpan)
	return res
}

// moduleName labels a module span by its files.
func moduleName(names []string) string {
	switch len(names) {
	case 0:
		return "(no files)"
	case 1:
		return names[0]
	}
	return fmt.Sprintf("%s (+%d files)", names[0], len(names)-1)
}

// countValidation tallies validation outcomes into the metrics counters so
// -stats-json reports them identically on cold and cache-hit runs.
func countValidation(m *obs.Metrics, ds []*diag.Diagnostic) {
	if !m.Enabled() {
		return
	}
	for _, d := range ds {
		if d.Validation == nil || d.Validation.Tag == diag.ValidationNone {
			continue
		}
		m.Add(obs.Validated, 1)
		switch d.Validation.Tag {
		case diag.Confirmed:
			m.Add(obs.ConfirmedDiags, 1)
		case diag.PathInfeasible:
			m.Add(obs.InfeasibleDiags, 1)
		}
	}
}

// FrontendResult is the outcome of running only the frontend (preprocess
// and parse) over a set of files.
type FrontendResult struct {
	// Units are the parsed translation units in sorted file-name order.
	Units []*cast.Unit
	// ParseErrors are preprocessing and syntax errors in the same order a
	// full CheckSources run reports them.
	ParseErrors []string
}

// Frontend preprocesses and parses files without analyzing or checking
// them, using the same per-file fan-out as CheckSources (Jobs, Metrics,
// and Includes from opt apply; caching and checking options are
// ignored). It exists so benchmarks and tools can measure or reuse the
// frontend in isolation.
func Frontend(files map[string]string, opt Options) *FrontendResult {
	m := opt.Metrics
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)

	fronts := preprocessFiles(names, files, stackedIncluder{primary: opt.Includes}, opt.Jobs, m, m.RunSpan())
	parseFiles(names, fronts, m, opt.Jobs, m.RunSpan())

	fr := &FrontendResult{Units: make([]*cast.Unit, 0, len(names))}
	for i := range names {
		fr.ParseErrors = append(fr.ParseErrors, fronts[i].ppErrs...)
		for _, e := range fronts[i].pr.Errors {
			fr.ParseErrors = append(fr.ParseErrors, e.Error())
		}
		fr.Units = append(fr.Units, fronts[i].pr.Unit)
	}
	return fr
}

// CheckSource checks a single source file.
func CheckSource(name, src string, opt Options) *Result {
	return CheckSources(map[string]string{name: src}, opt)
}
