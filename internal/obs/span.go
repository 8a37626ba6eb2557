package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"
)

// SpanKind classifies one level of the span hierarchy:
// run -> module -> phase -> file / function (-> phase again below a
// function, e.g. the per-function CFG build).
type SpanKind int

// Span kinds in hierarchy order.
const (
	SpanRun      SpanKind = iota // one CLI invocation / CheckModules batch
	SpanModule                   // one CheckSources call (a module)
	SpanPhase                    // preprocess / parse / sema / check / cfg
	SpanFile                     // one file inside a frontend fan-out
	SpanFunction                 // one function inside the checking fan-out
	NumSpanKinds
)

var spanKindNames = [NumSpanKinds]string{
	SpanRun:      "run",
	SpanModule:   "module",
	SpanPhase:    "phase",
	SpanFile:     "file",
	SpanFunction: "function",
}

// String returns the kind's stable name (used as the trace_event category).
func (k SpanKind) String() string {
	if k >= 0 && k < NumSpanKinds {
		return spanKindNames[k]
	}
	return fmt.Sprintf("spankind(%d)", int(k))
}

// SpanID identifies one recorded span; 0 means "no span" and is returned by
// every span method on a nil Metrics, so callers can thread IDs
// unconditionally.
type SpanID int64

// Span is one recorded interval. Start is nanoseconds since the recording
// epoch (New); Dur is filled by EndSpan. Function spans additionally
// carry their index in the checking fan-out's serial enumeration, their
// position and per-function work counters.
type Span struct {
	ID     SpanID
	Parent SpanID
	Kind   SpanKind
	Name   string
	TID    int // worker index inside a fan-out; 0 for serial spans
	Start  int64
	Dur    int64
	Index  int
	File   string
	Line   int
	Blocks int64
	Edges  int64
	Merges int64
	Clones int64
}

// spanState holds the hierarchical span recorder of a Metrics.
type spanState struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	run   int64 // atomic SpanID of the root run span
}

// StartSpan opens a span of the given kind under parent (0 for a root) on
// worker tid and returns its ID, or 0 on a nil Metrics. Safe for
// concurrent use from fan-out workers.
func (m *Metrics) StartSpan(kind SpanKind, name string, parent SpanID, tid int) SpanID {
	if m == nil {
		return 0
	}
	st := &m.spans
	now := time.Since(st.epoch).Nanoseconds()
	st.mu.Lock()
	id := SpanID(len(st.spans) + 1)
	st.spans = append(st.spans, Span{
		ID: id, Parent: parent, Kind: kind, Name: name, TID: tid, Start: now,
	})
	st.mu.Unlock()
	return id
}

// EndSpan closes a span opened by StartSpan. Passing 0 (or calling on a nil
// Metrics) is a no-op.
func (m *Metrics) EndSpan(id SpanID) {
	if m == nil || id == 0 {
		return
	}
	st := &m.spans
	now := time.Since(st.epoch).Nanoseconds()
	st.mu.Lock()
	if int(id) <= len(st.spans) {
		sp := &st.spans[id-1]
		sp.Dur = now - sp.Start
	}
	st.mu.Unlock()
}

// EndFuncSpan closes a function span, attaching its serial index, source
// position and the per-function work counters shown by -hot and -trace.
func (m *Metrics) EndFuncSpan(id SpanID, index int, file string, line int, blocks, edges, merges, clones int64) {
	if m == nil || id == 0 {
		return
	}
	st := &m.spans
	now := time.Since(st.epoch).Nanoseconds()
	st.mu.Lock()
	if int(id) <= len(st.spans) {
		sp := &st.spans[id-1]
		sp.Dur = now - sp.Start
		sp.Index, sp.File, sp.Line = index, file, line
		sp.Blocks, sp.Edges, sp.Merges, sp.Clones = blocks, edges, merges, clones
	}
	st.mu.Unlock()
}

// BeginRunSpan opens the root run span and remembers it so nested layers
// (CheckSources, the frontend and checking fan-outs) can attach without
// threading the ID through every signature.
func (m *Metrics) BeginRunSpan(name string) SpanID {
	id := m.StartSpan(SpanRun, name, 0, 0)
	if id != 0 {
		atomic.StoreInt64(&m.spans.run, int64(id))
	}
	return id
}

// RunSpan returns the ID recorded by BeginRunSpan (0 if none).
func (m *Metrics) RunSpan() SpanID {
	if m == nil {
		return 0
	}
	return SpanID(atomic.LoadInt64(&m.spans.run))
}

// Spans returns a copy of every recorded span in creation order.
func (m *Metrics) Spans() []Span {
	if m == nil {
		return nil
	}
	st := &m.spans
	st.mu.Lock()
	out := make([]Span, len(st.spans))
	copy(out, st.spans)
	st.mu.Unlock()
	return out
}

// traceEvent is one Chrome trace_event "complete" event (ph "X").
// Timestamps and durations are microseconds, per the trace_event spec.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON object format of a trace_event profile, loadable by
// Perfetto and chrome://tracing.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTraceEvents renders spans as Chrome trace_event JSON. Spans on the
// same tid nest by time containment, so the run/module/phase hierarchy and
// the per-worker file/function spans render as a flame chart.
func WriteTraceEvents(w io.Writer, spans []Span) error {
	tf := traceFile{TraceEvents: make([]traceEvent, 0, len(spans)), DisplayTimeUnit: "ms"}
	for _, sp := range spans {
		ev := traceEvent{
			Name: sp.Name,
			Cat:  sp.Kind.String(),
			Ph:   "X",
			TS:   float64(sp.Start) / 1e3,
			Dur:  float64(sp.Dur) / 1e3,
			PID:  1,
			TID:  sp.TID,
		}
		if sp.Kind == SpanFunction {
			ev.Args = map[string]any{
				"file":   sp.File,
				"line":   sp.Line,
				"blocks": sp.Blocks,
				"merges": sp.Merges,
				"clones": sp.Clones,
			}
		}
		tf.TraceEvents = append(tf.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

// funcLine is one -trace JSONL line: the analysis of one function.
type funcLine struct {
	Func       string `json:"func"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Blocks     int64  `json:"blocks"`
	Edges      int64  `json:"edges"`
	Merges     int64  `json:"merges"`
	DurationNS int64  `json:"duration_ns"`
}

// WriteFuncLines renders each function span as one JSONL line. Lines come
// in serial order — by checking fan-out (Parent), then by the function's
// index within it — so the stream is the same at every worker count apart
// from durations. It returns the first write error.
func WriteFuncLines(w io.Writer, spans []Span) error {
	var fns []Span
	for _, sp := range spans {
		if sp.Kind == SpanFunction {
			fns = append(fns, sp)
		}
	}
	sort.SliceStable(fns, func(i, j int) bool {
		if fns[i].Parent != fns[j].Parent {
			return fns[i].Parent < fns[j].Parent
		}
		return fns[i].Index < fns[j].Index
	})
	enc := json.NewEncoder(w)
	for _, sp := range fns {
		if err := enc.Encode(funcLine{
			Func: sp.Name, File: sp.File, Line: sp.Line,
			Blocks: sp.Blocks, Edges: sp.Edges, Merges: sp.Merges, DurationNS: sp.Dur,
		}); err != nil {
			return err
		}
	}
	return nil
}

// DiagLine is one "type":"diag" line of the -trace stream: a diagnostic
// with its provenance. Type is set by WriteDiagLines.
type DiagLine struct {
	Type       string   `json:"type"`
	Code       string   `json:"code"`
	File       string   `json:"file"`
	Line       int      `json:"line"`
	Msg        string   `json:"msg"`
	Ref        string   `json:"ref,omitempty"`
	Witness    []string `json:"witness,omitempty"`
	Validation string   `json:"validation,omitempty"`
}

// WriteDiagLines renders each diagnostic as one "type":"diag" JSONL line,
// in the order given. It returns the first write error.
func WriteDiagLines(w io.Writer, lines []DiagLine) error {
	enc := json.NewEncoder(w)
	for _, ln := range lines {
		ln.Type = "diag"
		if err := enc.Encode(ln); err != nil {
			return err
		}
	}
	return nil
}

// HotFunctions returns the n slowest function spans, sorted by duration
// descending with name as the deterministic tiebreak.
func HotFunctions(spans []Span, n int) []Span {
	var fns []Span
	for _, sp := range spans {
		if sp.Kind == SpanFunction {
			fns = append(fns, sp)
		}
	}
	sort.Slice(fns, func(i, j int) bool {
		if fns[i].Dur != fns[j].Dur {
			return fns[i].Dur > fns[j].Dur
		}
		return fns[i].Name < fns[j].Name
	})
	if n > 0 && len(fns) > n {
		fns = fns[:n]
	}
	return fns
}

// FormatHotTable renders the -hot table: the n slowest functions by check
// wall time with their confluence-merge and store-clone counts.
func FormatHotTable(spans []Span, n int) string {
	fns := HotFunctions(spans, n)
	var b strings.Builder
	fmt.Fprintf(&b, "hot functions (top %d by check wall):\n", n)
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  #\tfunction\tposition\twall_us\tblocks\tmerges\tclones")
	for i, sp := range fns {
		fmt.Fprintf(tw, "  %d\t%s\t%s:%d\t%d\t%d\t%d\t%d\n",
			i+1, sp.Name, sp.File, sp.Line, sp.Dur/1e3, sp.Blocks, sp.Merges, sp.Clones)
	}
	tw.Flush()
	return b.String()
}
