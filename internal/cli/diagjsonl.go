package cli

import (
	"encoding/json"
	"fmt"
	"io"

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
	Seq string `json:"seq"`
	StatsDiag
	Text string `json:"text"`
}

// writeDiagJSONL writes one module's diagnostics to w as DiagRecord lines,
// in output order, with Text as cfg renders it to stdout. It returns the
// first error.
func writeDiagJSONL(w io.Writer, cfg *Config, module string, diags []*diag.Diagnostic) error {
	for i, sd := range StatsDiags(diags) {
		b, err := json.Marshal(DiagRecord{Module: module, Seq: fmt.Sprintf("%08d", i), StatsDiag: sd, Text: cfg.render(diags[i]) + "\n"})
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}
