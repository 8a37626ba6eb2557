// Package obs is the checker's instrumentation layer: monotonic phase
// timers covering the pipeline (preprocess -> parse -> sema -> CFG build ->
// per-function dataflow check), analysis counters (tokens lexed, AST nodes,
// CFG blocks/edges, confluence merges, loop unrollings, annotations
// consumed, diagnostics emitted/suppressed, library entries loaded), and
// hierarchical spans (span.go) from which the Chrome trace, the -hot table
// and the -trace JSONL function lines are all rendered.
//
// The package has no dependencies beyond the standard library and is
// designed so that uninstrumented runs pay almost nothing: a nil *Metrics
// is valid, every method on it is a no-op, and instrumented code paths cost
// one pointer test when observability is off. All mutation is atomic, so a
// single Metrics may be shared by concurrent checking goroutines.
package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Phase identifies one stage of the checking pipeline. Phases are disjoint:
// CFG-build time is excluded from the check phase, so the per-phase sum
// approximates the end-to-end total.
type Phase int

// Pipeline phases in execution order.
const (
	PhasePreprocess Phase = iota // cpp: macro expansion and includes
	PhaseParse                   // ctoken+cparse: lexing and parsing
	PhaseSema                    // sema: environment construction (and library install)
	PhaseCFG                     // cfg: per-function control-flow graph construction
	PhaseCheck                   // core: the per-function dataflow pass
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhasePreprocess: "preprocess",
	PhaseParse:      "parse",
	PhaseSema:       "sema",
	PhaseCFG:        "cfg",
	PhaseCheck:      "check",
}

// String returns the phase's stable name (used as a JSON key).
func (p Phase) String() string {
	if p >= 0 && p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Counter identifies one analysis counter.
type Counter int

// Analysis counters.
const (
	TokensLexed           Counter = iota // tokens produced by the lexer (annotations included)
	ASTNodes                             // AST nodes across all translation units
	CFGBlocks                            // CFG nodes built
	CFGEdges                             // CFG edges built
	ConfluenceMerges                     // store merges at confluence points
	LoopUnrollings                       // loops analyzed (each as zero-or-one executions)
	AnnotationsConsumed                  // /*@...@*/ annotation comments lexed
	DiagnosticsEmitted                   // retained diagnostics
	DiagnosticsSuppressed                // diagnostics dropped by suppression or the message bound
	LibraryEntriesLoaded                 // interface-library entries installed (modular checking)
	FunctionsChecked                     // function definitions analyzed
	CacheHits                            // modules replayed from the persistent analysis cache
	CacheMisses                          // modules checked cold with caching enabled
	CacheBytes                           // cache entry bytes read on hits plus written on misses
	StoreClones                          // O(1) copy-on-write store clones
	RefStatesCopied                      // refStates copied by the copy-on-write fault path
	MergeNS                              // nanoseconds spent in mergeStores
	Validated                            // diagnostics examined by counterexample validation
	ConfirmedDiags                       // diagnostics whose fault the interpreter reproduced
	InfeasibleDiags                      // diagnostics whose fault site no generated input reached
	ValidateWallNS                       // nanoseconds spent in the validation pass
	FuncCacheHits                        // functions replayed from per-function cache sub-entries
	FuncCacheMisses                      // functions re-checked cold with the function layer enabled
	FuncReplayedDiags                    // diagnostics replayed from function sub-entries
	NumCounters
)

var counterNames = [NumCounters]string{
	TokensLexed:           "tokens_lexed",
	ASTNodes:              "ast_nodes",
	CFGBlocks:             "cfg_blocks",
	CFGEdges:              "cfg_edges",
	ConfluenceMerges:      "confluence_merges",
	LoopUnrollings:        "loop_unrollings",
	AnnotationsConsumed:   "annotations_consumed",
	DiagnosticsEmitted:    "diagnostics_emitted",
	DiagnosticsSuppressed: "diagnostics_suppressed",
	LibraryEntriesLoaded:  "library_entries_loaded",
	FunctionsChecked:      "functions_checked",
	CacheHits:             "cache_hits",
	CacheMisses:           "cache_misses",
	CacheBytes:            "cache_bytes",
	StoreClones:           "store_clones",
	RefStatesCopied:       "refstates_copied",
	MergeNS:               "merge_ns",
	Validated:             "validated",
	ConfirmedDiags:        "confirmed",
	InfeasibleDiags:       "infeasible",
	ValidateWallNS:        "validate_wall_ns",
	FuncCacheHits:         "func_cache_hits",
	FuncCacheMisses:       "func_cache_misses",
	FuncReplayedDiags:     "func_replayed_diags",
}

// String returns the counter's stable name (used as a JSON key).
func (c Counter) String() string {
	if c >= 0 && c < NumCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("counter(%d)", int(c))
}

// Metrics accumulates phase durations and counters for one or more checking
// runs. A nil *Metrics is valid: every method is a no-op, so instrumented
// code can call unconditionally.
type Metrics struct {
	phases   [NumPhases]int64   // nanoseconds, atomic
	counters [NumCounters]int64 // atomic
	totalNS  int64              // atomic
	// wall holds per-phase wall-clock times for the phases that run as
	// fan-out regions (preprocess, parse, check). Under parallel execution
	// the per-phase durations in phases sum each worker's time (CPU-like
	// totals), so wall and CPU diverge; their ratio is the effective
	// parallel speedup of that region.
	wall [NumPhases]int64 // nanoseconds, atomic
	jobs int64            // atomic; worker count of the most recent run
	// spanSt holds the hierarchical span recorder (see span.go); nil unless
	// EnableSpans was called, so span-instrumented code costs one nil test.
	spanSt *spanState
}

// New returns an empty Metrics.
func New() *Metrics { return &Metrics{} }

// Enabled reports whether metrics are being collected (m is non-nil).
func (m *Metrics) Enabled() bool { return m != nil }

// Add increments counter c by n.
func (m *Metrics) Add(c Counter, n int64) {
	if m == nil || c < 0 || c >= NumCounters {
		return
	}
	atomic.AddInt64(&m.counters[c], n)
}

// Get returns the current value of counter c.
func (m *Metrics) Get(c Counter) int64 {
	if m == nil || c < 0 || c >= NumCounters {
		return 0
	}
	return atomic.LoadInt64(&m.counters[c])
}

// AddPhase adds d to phase p's accumulated duration.
func (m *Metrics) AddPhase(p Phase, d time.Duration) {
	if m == nil || p < 0 || p >= NumPhases {
		return
	}
	atomic.AddInt64(&m.phases[p], int64(d))
}

// PhaseDuration returns phase p's accumulated duration.
func (m *Metrics) PhaseDuration(p Phase) time.Duration {
	if m == nil || p < 0 || p >= NumPhases {
		return 0
	}
	return time.Duration(atomic.LoadInt64(&m.phases[p]))
}

// noopStop is returned by StartPhase on a nil Metrics so the nil path
// allocates nothing.
func noopStop() {}

// StartPhase begins timing phase p against the monotonic clock; the
// returned stop function adds the elapsed time. Phases may start and stop
// repeatedly (e.g. parse runs once per file); durations accumulate.
func (m *Metrics) StartPhase(p Phase) (stop func()) {
	if m == nil {
		return noopStop
	}
	start := time.Now()
	return func() { m.AddPhase(p, time.Since(start)) }
}

// AddPhaseWall adds d to the wall-clock duration of phase p's fan-out
// region. Compare with PhaseDuration(p), which sums per-worker time.
func (m *Metrics) AddPhaseWall(p Phase, d time.Duration) {
	if m == nil || p < 0 || p >= NumPhases {
		return
	}
	atomic.AddInt64(&m.wall[p], int64(d))
}

// PhaseWall returns phase p's accumulated wall-clock fan-out duration
// (zero for phases that never ran as a fan-out region).
func (m *Metrics) PhaseWall(p Phase) time.Duration {
	if m == nil || p < 0 || p >= NumPhases {
		return 0
	}
	return time.Duration(atomic.LoadInt64(&m.wall[p]))
}

// StartPhaseWall begins wall-timing phase p's fan-out region; the returned
// stop function adds the elapsed wall-clock time.
func (m *Metrics) StartPhaseWall(p Phase) (stop func()) {
	if m == nil {
		return noopStop
	}
	start := time.Now()
	return func() { m.AddPhaseWall(p, time.Since(start)) }
}

// SetJobs records the worker count used by the checking fan-out.
func (m *Metrics) SetJobs(n int) {
	if m == nil {
		return
	}
	atomic.StoreInt64(&m.jobs, int64(n))
}

// Jobs returns the recorded worker count (0 if never set).
func (m *Metrics) Jobs() int {
	if m == nil {
		return 0
	}
	return int(atomic.LoadInt64(&m.jobs))
}

// AddTotal adds d to the end-to-end wall-clock total.
func (m *Metrics) AddTotal(d time.Duration) {
	if m == nil {
		return
	}
	atomic.AddInt64(&m.totalNS, int64(d))
}

// Total returns the accumulated end-to-end duration.
func (m *Metrics) Total() time.Duration {
	if m == nil {
		return 0
	}
	return time.Duration(atomic.LoadInt64(&m.totalNS))
}

// Snapshot is a point-in-time, JSON-serializable copy of the metrics.
// Phase and counter names are the stable String() spellings, so consumers
// can diff snapshots across runs and versions.
type Snapshot struct {
	TotalNS int64 `json:"total_ns"`
	// PhasesNS sum per-worker time for the fan-out phases (CPU-like totals
	// under parallel execution); PreprocessWallNS/ParseWallNS/CheckWallNS
	// are the wall-clock times of the corresponding fan-out regions, and
	// Jobs the worker count that produced them.
	PhasesNS         map[string]int64 `json:"phases_ns"`
	PreprocessWallNS int64            `json:"preprocess_wall_ns"`
	ParseWallNS      int64            `json:"parse_wall_ns"`
	CheckWallNS      int64            `json:"check_wall_ns"`
	Jobs             int              `json:"jobs"`
	Counters         map[string]int64 `json:"counters"`
}

// Snapshot captures the current state. On a nil Metrics it returns a zero
// snapshot with empty (non-nil) maps.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		PhasesNS: make(map[string]int64, int(NumPhases)),
		Counters: make(map[string]int64, int(NumCounters)),
	}
	for p := Phase(0); p < NumPhases; p++ {
		s.PhasesNS[p.String()] = int64(m.PhaseDuration(p))
	}
	for c := Counter(0); c < NumCounters; c++ {
		s.Counters[c.String()] = m.Get(c)
	}
	s.TotalNS = int64(m.Total())
	s.PreprocessWallNS = int64(m.PhaseWall(PhasePreprocess))
	s.ParseWallNS = int64(m.PhaseWall(PhaseParse))
	s.CheckWallNS = int64(m.PhaseWall(PhaseCheck))
	s.Jobs = m.Jobs()
	return s
}
