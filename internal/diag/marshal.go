package diag

import (
	"encoding/json"
	"fmt"

	"golclint/internal/ctoken"
)

// The serialized diagnostic format. Cached analysis results (internal/cache)
// replay stored diagnostics instead of re-running the checker, so the wire
// form must round-trip exactly: Unmarshal(Marshal(ds)) compares equal under
// Compare and renders byte-identical String() output. The wire structs
// mirror Diagnostic/Note field-for-field with explicit JSON names so the
// format cannot drift silently when the in-memory structs grow fields — any
// new field must be added here (and to Equal) deliberately.

// wirePos is the serialized ctoken.Pos.
type wirePos struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Off  int    `json:"off"`
}

func toWirePos(p ctoken.Pos) wirePos {
	return wirePos{File: p.File.String(), Line: int(p.Line), Col: int(p.Col), Off: int(p.Off)}
}

// fromWirePos converts a decoded position. A field outside the int32
// range of ctoken.Pos was not written by Marshal, so it is an error, not a
// wrapped value.
func fromWirePos(p wirePos) (ctoken.Pos, error) {
	pos := ctoken.Pos{File: ctoken.FileOf(p.File), Line: int32(p.Line), Col: int32(p.Col), Off: int32(p.Off)}
	if int(pos.Line) != p.Line || int(pos.Col) != p.Col || int(pos.Off) != p.Off {
		return ctoken.Pos{}, fmt.Errorf("unmarshal diagnostics: position %s:%d:%d+%d out of range", p.File, p.Line, p.Col, p.Off)
	}
	return pos, nil
}

// wireNote is the serialized Note.
type wireNote struct {
	Pos wirePos `json:"pos"`
	Msg string  `json:"msg"`
}

// wireStep is the serialized ProvStep.
type wireStep struct {
	Pos  wirePos `json:"pos"`
	Kind string  `json:"kind"`
	Msg  string  `json:"msg"`
}

// wireProv is the serialized Provenance. Provenance round-trips through
// cache entries so a warm -explain run replays the same witnesses the cold
// run computed.
type wireProv struct {
	Ref   string     `json:"ref,omitempty"`
	Steps []wireStep `json:"steps,omitempty"`
}

// wireValidation is the serialized Validation. Validation outcomes
// round-trip through cache entries so a warm -validate run replays the
// tags the cold run computed without re-executing any harness.
type wireValidation struct {
	Tag    ValidationTag `json:"tag"`
	Detail string        `json:"detail,omitempty"`
}

// wireDiag is the serialized Diagnostic. Code serializes by its stable
// short name (MarshalText), so entries survive code renumbering.
type wireDiag struct {
	Code       Code            `json:"code"`
	Pos        wirePos         `json:"pos"`
	Msg        string          `json:"msg"`
	Notes      []wireNote      `json:"notes,omitempty"`
	Prov       *wireProv       `json:"prov,omitempty"`
	Validation *wireValidation `json:"validation,omitempty"`
}

// Marshal serializes diagnostics to JSON in slice order.
func Marshal(ds []*Diagnostic) ([]byte, error) {
	wire := make([]wireDiag, 0, len(ds))
	for i, d := range ds {
		if d == nil {
			return nil, fmt.Errorf("marshal diagnostics: nil entry at %d", i)
		}
		w := wireDiag{Code: d.Code, Pos: toWirePos(d.Pos), Msg: d.Msg}
		for _, n := range d.Notes {
			w.Notes = append(w.Notes, wireNote{Pos: toWirePos(n.Pos), Msg: n.Msg})
		}
		if d.Prov != nil {
			wp := &wireProv{Ref: d.Prov.Ref}
			for _, s := range d.Prov.Steps {
				wp.Steps = append(wp.Steps, wireStep{Pos: toWirePos(s.Pos), Kind: s.Kind, Msg: s.Msg})
			}
			w.Prov = wp
		}
		if d.Validation != nil {
			w.Validation = &wireValidation{Tag: d.Validation.Tag, Detail: d.Validation.Detail}
		}
		wire = append(wire, w)
	}
	return json.Marshal(wire)
}

// Unmarshal reverses Marshal. Unknown diagnostic codes are an error (a
// cache entry written by an incompatible checker must not half-load).
func Unmarshal(b []byte) ([]*Diagnostic, error) {
	var wire []wireDiag
	if err := json.Unmarshal(b, &wire); err != nil {
		return nil, fmt.Errorf("unmarshal diagnostics: %w", err)
	}
	ds := make([]*Diagnostic, 0, len(wire))
	for _, w := range wire {
		pos, err := fromWirePos(w.Pos)
		if err != nil {
			return nil, err
		}
		d := &Diagnostic{Code: w.Code, Pos: pos, Msg: w.Msg}
		for _, n := range w.Notes {
			if pos, err = fromWirePos(n.Pos); err != nil {
				return nil, err
			}
			d.Notes = append(d.Notes, Note{Pos: pos, Msg: n.Msg})
		}
		if w.Prov != nil {
			p := &Provenance{Ref: w.Prov.Ref}
			for _, s := range w.Prov.Steps {
				if pos, err = fromWirePos(s.Pos); err != nil {
					return nil, err
				}
				p.Steps = append(p.Steps, ProvStep{Pos: pos, Kind: s.Kind, Msg: s.Msg})
			}
			d.Prov = p
		}
		if w.Validation != nil {
			d.Validation = &Validation{Tag: w.Validation.Tag, Detail: w.Validation.Detail}
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// Equal reports whether two diagnostics are identical, notes included.
// Compare only orders by (pos, code, msg); Equal is the full-field check the
// serialization round-trip and cache-replay tests rely on.
func Equal(a, b *Diagnostic) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Code != b.Code || a.Pos != b.Pos || a.Msg != b.Msg || len(a.Notes) != len(b.Notes) {
		return false
	}
	for i := range a.Notes {
		if a.Notes[i] != b.Notes[i] {
			return false
		}
	}
	return equalProv(a.Prov, b.Prov) && equalValidation(a.Validation, b.Validation)
}

// equalValidation compares two validation records field-for-field.
func equalValidation(a, b *Validation) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// equalProv compares two witness paths field-for-field.
func equalProv(a, b *Provenance) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Ref != b.Ref || len(a.Steps) != len(b.Steps) {
		return false
	}
	for i := range a.Steps {
		if a.Steps[i] != b.Steps[i] {
			return false
		}
	}
	return true
}

// EqualAll reports whether two diagnostic slices are element-wise Equal.
func EqualAll(a, b []*Diagnostic) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
