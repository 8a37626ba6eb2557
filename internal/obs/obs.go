// Package obs is the checker's instrumentation layer: analysis counters
// (tokens lexed, AST nodes, CFG blocks/edges, confluence merges, loop
// unrollings, annotations consumed, diagnostics emitted/suppressed, library
// entries loaded) and hierarchical spans (span.go) over the pipeline
// (preprocess -> parse -> sema -> CFG build -> per-function dataflow
// check). The spans are the package's only clock: the Snapshot's phase
// times, fan-out walls and run total, the Chrome trace, the -hot table and
// the -trace JSONL function lines are all derived from them.
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

// Phase identifies one stage of the checking pipeline; its String is the
// name of the phase spans that time it. Phases are disjoint: CFG-build time
// is excluded from the check phase, so the per-phase sum approximates the
// end-to-end total.
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

// String returns the phase's stable name (used as a JSON key and as the
// name of its phase spans).
func (p Phase) String() string {
	if p >= 0 && p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// phaseNamed returns the phase whose spans are named name, or NumPhases.
func phaseNamed(name string) Phase {
	for p, n := range phaseNames {
		if n == name {
			return Phase(p)
		}
	}
	return NumPhases
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

// Metrics accumulates counters and spans for one or more checking runs.
// A nil *Metrics is valid: every method is a no-op, so instrumented code
// can call unconditionally. A non-nil Metrics must come from New.
type Metrics struct {
	counters [NumCounters]int64 // atomic
	jobs     int64              // atomic; worker count of the most recent run
	spans    spanState          // the span recorder (span.go)
}

// New returns an empty Metrics whose span clock starts now.
func New() *Metrics { return &Metrics{spans: spanState{epoch: time.Now()}} }

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

// Snapshot captures the current state, deriving every timing field from
// the closed spans (an open span counts zero):
//   - PhasesNS: preprocess and parse sum the file spans under the phase
//     span of that name, sema the sema spans, cfg the per-function cfg
//     spans, and check each function span's self time (its duration minus
//     its cfg child);
//   - PreprocessWallNS, ParseWallNS, CheckWallNS: the fan-out phase spans;
//   - TotalNS: the module spans (one per CheckSources call).
//
// On a nil Metrics it returns a zero snapshot with empty (non-nil) maps.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		PhasesNS: make(map[string]int64, int(NumPhases)),
		Counters: make(map[string]int64, int(NumCounters)),
	}
	for c := Counter(0); c < NumCounters; c++ {
		s.Counters[c.String()] = m.Get(c)
	}
	s.Jobs = m.Jobs()
	var phases, walls [NumPhases]int64
	if m != nil {
		st := &m.spans
		st.mu.Lock()
		for _, sp := range st.spans {
			switch sp.Kind {
			case SpanModule:
				s.TotalNS += sp.Dur
			case SpanPhase:
				switch p := phaseNamed(sp.Name); p {
				case PhasePreprocess, PhaseParse, PhaseCheck:
					walls[p] += sp.Dur
				case PhaseSema:
					phases[p] += sp.Dur
				case PhaseCFG: // opened only inside a function span
					phases[p] += sp.Dur
					phases[PhaseCheck] -= sp.Dur
				}
			case SpanFile:
				if sp.Parent == 0 {
					break
				}
				if p := phaseNamed(st.spans[sp.Parent-1].Name); p == PhasePreprocess || p == PhaseParse {
					phases[p] += sp.Dur
				}
			case SpanFunction:
				phases[PhaseCheck] += sp.Dur
			}
		}
		st.mu.Unlock()
	}
	s.PreprocessWallNS = walls[PhasePreprocess]
	s.ParseWallNS = walls[PhaseParse]
	s.CheckWallNS = walls[PhaseCheck]
	for p := Phase(0); p < NumPhases; p++ {
		s.PhasesNS[p.String()] = phases[p]
	}
	return s
}
