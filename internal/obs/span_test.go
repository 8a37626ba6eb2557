package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// Every new span API must be a no-op on a nil *Metrics — instrumented code
// calls them unconditionally.
func TestSpanNilMetricsNoOps(t *testing.T) {
	var m *Metrics
	if id := m.StartSpan(SpanRun, "x", 0, 0); id != 0 {
		t.Errorf("StartSpan on nil = %d, want 0", id)
	}
	m.EndSpan(1)
	m.EndFuncSpan(1, 0, "f.c", 1, 0, 0, 0, 0)
	if id := m.BeginRunSpan("run"); id != 0 {
		t.Errorf("BeginRunSpan on nil = %d, want 0", id)
	}
	if id := m.RunSpan(); id != 0 {
		t.Errorf("RunSpan on nil = %d, want 0", id)
	}
	if sp := m.Spans(); sp != nil {
		t.Errorf("Spans on nil = %v, want nil", sp)
	}
}

// Spans record from New on, nest under their parents and export as
// trace_event JSON.
func TestSpanHierarchyAndExport(t *testing.T) {
	m := New()
	run := m.BeginRunSpan("golclint")
	if run == 0 || m.RunSpan() != run {
		t.Fatalf("run span = %d, RunSpan = %d", run, m.RunSpan())
	}
	mod := m.StartSpan(SpanModule, "mod", run, 0)
	fn := m.StartSpan(SpanFunction, "f", mod, 2)
	m.EndFuncSpan(fn, 4, "a.c", 3, 7, 9, 2, 5)
	m.EndSpan(mod)
	m.EndSpan(run)

	spans := m.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	f := spans[2]
	if f.Parent != mod || f.TID != 2 || f.Index != 4 || f.File != "a.c" || f.Line != 3 ||
		f.Blocks != 7 || f.Edges != 9 || f.Merges != 2 || f.Clones != 5 {
		t.Errorf("function span = %+v", f)
	}
	if f.Dur < 0 || spans[0].Dur < f.Dur {
		t.Errorf("durations not nested: run %d, fn %d", spans[0].Dur, f.Dur)
	}

	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace output is not JSON: %v\n%s", err, buf.String())
	}
	if len(tf.TraceEvents) != 3 {
		t.Fatalf("got %d trace events, want 3", len(tf.TraceEvents))
	}
	for _, ev := range tf.TraceEvents {
		if ev["ph"] != "X" {
			t.Errorf("event ph = %v, want X", ev["ph"])
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Errorf("event ts missing: %v", ev)
		}
	}
	if tf.TraceEvents[2]["cat"] != "function" {
		t.Errorf("function event cat = %v", tf.TraceEvents[2]["cat"])
	}
}

// Concurrent open/close from worker goroutines — run under -race.
func TestSpanConcurrent(t *testing.T) {
	m := New()
	run := m.BeginRunSpan("golclint")
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := m.StartSpan(SpanFunction, fmt.Sprintf("w%d_f%d", w, i), run, w)
				m.EndFuncSpan(id, i, "x.c", i, int64(i), 3, 1, 2)
			}
		}()
	}
	wg.Wait()
	m.EndSpan(run)
	spans := m.Spans()
	if len(spans) != workers*perWorker+1 {
		t.Fatalf("got %d spans, want %d", len(spans), workers*perWorker+1)
	}
	for _, sp := range spans[1:] {
		if sp.Parent != run || sp.Dur < 0 {
			t.Errorf("bad span %+v", sp)
		}
	}
}

func TestHotTable(t *testing.T) {
	spans := []Span{
		{Kind: SpanRun, Name: "run", Dur: 100},
		{Kind: SpanFunction, Name: "slow", File: "a.c", Line: 1, Dur: 90_000, Merges: 3, Clones: 7},
		{Kind: SpanFunction, Name: "fast", File: "a.c", Line: 9, Dur: 1_000},
		{Kind: SpanFunction, Name: "mid", File: "b.c", Line: 4, Dur: 5_000},
	}
	hot := HotFunctions(spans, 2)
	if len(hot) != 2 || hot[0].Name != "slow" || hot[1].Name != "mid" {
		t.Fatalf("hot = %+v", hot)
	}
	table := FormatHotTable(spans, 2)
	if !strings.Contains(table, "slow") || !strings.Contains(table, "a.c:1") {
		t.Errorf("table missing entries:\n%s", table)
	}
	if strings.Contains(table, "fast") {
		t.Errorf("table includes beyond top-N:\n%s", table)
	}
}

// Ties on duration break deterministically by name.
func TestHotFunctionsDeterministicTie(t *testing.T) {
	spans := []Span{
		{Kind: SpanFunction, Name: "b", Dur: 10},
		{Kind: SpanFunction, Name: "a", Dur: 10},
	}
	hot := HotFunctions(spans, 0)
	if hot[0].Name != "a" || hot[1].Name != "b" {
		t.Errorf("tie not broken by name: %+v", hot)
	}
}

// -trace diag lines: one JSON object per diagnostic, in the order given,
// "type":"diag" first, and provenance fields left out when empty.
func TestJSONLTracerDiagEvents(t *testing.T) {
	var buf bytes.Buffer
	err := WriteDiagLines(&buf, []DiagLine{
		{Code: "mustfree", File: "a.c", Line: 4, Msg: "leak", Ref: "p",
			Witness: []string{"a.c:2: [alloc] fresh storage"}, Validation: "confirmed"},
		{Code: "usereleased", File: "b.c", Line: 9, Msg: "use after free"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("diag event not JSON: %v", err)
	}
	if ev["type"] != "diag" || ev["code"] != "mustfree" || len(ev["witness"].([]any)) != 1 {
		t.Errorf("event = %v", ev)
	}
	want := `{"type":"diag","code":"usereleased","file":"b.c","line":9,"msg":"use after free"}`
	if lines[1] != want {
		t.Errorf("line = %s\nwant   %s", lines[1], want)
	}
}

// -trace function lines: function spans only, in serial order (fan-out,
// then index) whatever order the workers recorded them in, with the line
// schema's fields.
func TestWriteFuncLines(t *testing.T) {
	spans := []Span{
		{ID: 1, Kind: SpanRun, Name: "run"},
		{ID: 2, Kind: SpanPhase, Name: "check", Parent: 1},
		{ID: 3, Kind: SpanFunction, Name: "c", Parent: 2, Index: 2},
		{ID: 4, Kind: SpanFunction, Name: "a", Parent: 2, Index: 0, File: "a.c", Line: 3, Blocks: 4, Edges: 5, Merges: 1, Clones: 9, Dur: 42},
		{ID: 5, Kind: SpanPhase, Name: "check", Parent: 1},
		{ID: 6, Kind: SpanFunction, Name: "d", Parent: 5, Index: 0},
		{ID: 7, Kind: SpanFunction, Name: "b", Parent: 2, Index: 1},
	}
	var buf bytes.Buffer
	if err := WriteFuncLines(&buf, spans); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	var names []string
	for _, ln := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line not JSON: %v\n%s", err, ln)
		}
		names = append(names, ev["func"].(string))
	}
	if got := strings.Join(names, ","); got != "a,b,c,d" {
		t.Errorf("order = %s, want a,b,c,d", got)
	}
	want := `{"func":"a","file":"a.c","line":3,"blocks":4,"edges":5,"merges":1,"duration_ns":42}`
	if lines[0] != want {
		t.Errorf("line = %s\nwant   %s", lines[0], want)
	}
}

// errWriter fails every write after the first.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, errors.New("sink failed")
	}
	return len(p), nil
}

// A failing sink stops the stream and its first error is returned.
func TestWriteFuncLinesError(t *testing.T) {
	spans := []Span{
		{Kind: SpanFunction, Name: "a", Index: 0},
		{Kind: SpanFunction, Name: "b", Index: 1},
		{Kind: SpanFunction, Name: "c", Index: 2},
	}
	w := &errWriter{}
	err := WriteFuncLines(w, spans)
	if err == nil || err.Error() != "sink failed" {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	if w.n != 2 {
		t.Errorf("writes = %d, want 2 (stop at the first failure)", w.n)
	}
}
