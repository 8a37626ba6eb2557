package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"golclint/internal/diag"
)

// DiagRecord is one line of the -diag-jsonl stream: a self-contained,
// machine-readable record of one retained diagnostic. Records carry the
// machine fields of StatsDiag plus the module that produced them and the
// exact rendered text block the run printed to stdout, so per-shard streams
// merge into a whole-corpus report with nothing else in hand: sorting the
// merged lines yields a canonical order (module, then position within the
// module — the order a single-process run emits), and concatenating the
// sorted records' Text fields reproduces the single-process stdout byte for
// byte. That merge-equals-single-run property is what lets n shard workers
// coordinate only through the shared cache.
type DiagRecord struct {
	Module string `json:"module"`
	// Seq is the record's zero-based emission index within its module,
	// zero-padded to fixed width. Module and Seq lead the record, so a
	// plain lexicographic sort of raw lines (`sort merged.jsonl`) yields
	// exactly the canonical order — no JSON parsing needed to merge.
	Seq              string   `json:"seq"`
	Pos              string   `json:"pos"`
	Code             string   `json:"code"`
	Msg              string   `json:"msg"`
	Ref              string   `json:"ref,omitempty"`
	Witness          []string `json:"witness,omitempty"`
	Validation       string   `json:"validation,omitempty"`
	ValidationDetail string   `json:"validation_detail,omitempty"`
	Text             string   `json:"text"`
}

// DiagJSONLWriter streams diagnostics as DiagRecord lines. It is safe for
// concurrent Sinks (shard workers within one process may share it); each
// record is written as one atomic line. Write errors latch into Err rather
// than failing the check — diagnostics were already computed, and a broken
// stream is the driver's to detect.
type DiagJSONLWriter struct {
	mu     sync.Mutex
	w      io.Writer
	module string
	mode   renderMode
	seq    int
	err    error
}

// renderMode selects which rendered surface the Text field captures,
// matching what the run prints to stdout.
type renderMode int

const (
	renderPlain renderMode = iota
	renderValidated
	renderExplained
)

// diagRenderMode maps the CLI's output-mode precedence (explain wins over
// validate, see Execute) onto the Text renderer.
func diagRenderMode(explain, validate bool) renderMode {
	switch {
	case explain:
		return renderExplained
	case validate:
		return renderValidated
	default:
		return renderPlain
	}
}

// NewDiagJSONLWriter returns a writer streaming to w, labeling records with
// module and rendering Text in the given mode.
func NewDiagJSONLWriter(w io.Writer, module string, mode renderMode) *DiagJSONLWriter {
	return &DiagJSONLWriter{w: w, module: module, mode: mode}
}

// SetModule relabels subsequent records (the shard runner switches it
// between per-module checks; those run sequentially, but take the lock for
// the general contract).
func (j *DiagJSONLWriter) SetModule(module string) {
	j.mu.Lock()
	j.module = module
	j.seq = 0
	j.mu.Unlock()
}

// Sink writes one diagnostic as a record line (a core.Options.DiagSink).
func (j *DiagJSONLWriter) Sink(d *diag.Diagnostic) {
	var text string
	switch j.mode {
	case renderExplained:
		text = d.Explain() + "\n"
	case renderValidated:
		text = d.Validated() + "\n"
	default:
		text = d.String() + "\n"
	}
	sd := StatsDiags([]*diag.Diagnostic{d})[0]
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := DiagRecord{
		Module: j.module,
		Seq:    fmt.Sprintf("%08d", j.seq),
		Pos:    sd.Pos, Code: sd.Code, Msg: sd.Msg, Ref: sd.Ref,
		Witness:    sd.Witness,
		Validation: sd.Validation, ValidationDetail: sd.ValidationDetail,
		Text: text,
	}
	b, err := json.Marshal(rec)
	if err != nil { // a record we built ourselves always marshals
		if j.err == nil {
			j.err = err
		}
		return
	}
	if j.err != nil {
		return
	}
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		j.err = err
		return
	}
	j.seq++
}

// Err returns the first write error, if any.
func (j *DiagJSONLWriter) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
