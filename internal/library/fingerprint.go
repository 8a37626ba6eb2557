package library

import (
	"bytes"

	"golclint/internal/sema"
)

// This file computes per-symbol interface fingerprints: a stable hash of
// everything a dependent module can observe about one library symbol (its
// signature, annotations, transitive type structure, and declared
// position). The analysis cache records, per module, the fingerprint each
// referenced symbol had when the module was checked; a module re-checks
// only when one of those facts changes, which is how an interface change
// in module A invalidates its dependents — and only its dependents —
// transitively (the incremental form of the paper's §7 argument).

// Fingerprints returns the per-symbol interface fingerprint map for every
// function, global, and enum constant the library supplies. The map is
// computed once per Library and memoized; a Library is immutable after
// Build/Decode, so the memo is safe to share across concurrent module
// workers (it is computed eagerly under the sync.Once).
func (l *Library) Fingerprints() map[string]string {
	if l == nil {
		return map[string]string{}
	}
	l.fpOnce.Do(func() {
		// Installed into an empty environment, the library's records become
		// the symbols SymbolFingerprints hashes, so both fingerprint a
		// symbol identically.
		prog := &sema.Program{Funcs: map[string]*sema.FuncSig{}, Globals: map[string]*sema.Global{}, Enums: map[string]int64{}}
		l.Install(prog)
		fp := SymbolFingerprints(prog)
		l.fp = make(map[string]string, len(l.Funcs)+len(l.Globals)+len(l.Enums))
		for _, f := range l.Funcs {
			l.fp[f.Name] = fp(f.Name)
		}
		for _, g := range l.Globals {
			l.fp[g.Name] = fp(g.Name)
		}
		for _, e := range l.Enums {
			l.fp[e.Name] = fp(e.Name)
		}
	})
	return l.fp
}

// ExportProgram serializes prog's interface library (Build + gob) in the
// file format -dump-lib writes and -lib loads.
func ExportProgram(prog *sema.Program) ([]byte, error) {
	var buf bytes.Buffer
	if err := Build(prog).Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
