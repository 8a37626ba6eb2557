// Package library implements interface libraries: the serialized interface
// information (function signatures with annotations, global variables,
// enum constants) that lets a single module be re-checked without
// re-parsing the rest of the program. This is the mechanism behind the
// paper's §7 modular-checking result ("By using libraries to store
// interface information, a representative 5000 line module is checked in
// under 10 seconds", versus four minutes for the whole program).
//
// Types form cyclic graphs (recursive structs), which encoding/gob cannot
// serialize directly, so the library flattens types into an indexed table.
package library

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"sync"

	"golclint/internal/annot"
	"golclint/internal/ctoken"
	"golclint/internal/ctypes"
	"golclint/internal/sema"
)

// typeRec is the flattened form of one type.
type typeRec struct {
	Kind        int
	Elem        int32 // type index or -1
	Len         int
	Tag         string
	Fields      []fieldRec
	Enumerators []ctypes.EnumConst
	Params      []paramRec
	Return      int32
	Variadic    bool
	Name        string
	Underlying  int32
	Annots      uint32
}

type fieldRec struct {
	Name   string
	Type   int32
	Annots uint32
}

type paramRec struct {
	Name   string
	Type   int32
	Annots uint32
}

// funcRec is a serialized function signature.
type funcRec struct {
	Name         string
	Result       int32
	ResultAnnots uint32
	Params       []paramRec
	Variadic     bool
	NoReturn     bool
	GlobalsUsed  []string
	File         string
	Line         int
}

// globalRec is a serialized global variable.
type globalRec struct {
	Name    string
	Type    int32
	Annots  uint32
	Static  bool
	HasInit bool
	File    string
	Line    int
}

// enumRec is a serialized enum constant.
type enumRec struct {
	Name  string
	Value int64
}

// Library is the serializable interface summary of a program. It is
// immutable once built or decoded; the fingerprint memo below relies on
// that. Every table is a slice in a fixed order, never a map: gob writes
// maps in iteration order, and a library's bytes must not vary between
// runs.
type Library struct {
	Types   []typeRec
	Funcs   []funcRec
	Globals []globalRec
	Enums   []enumRec // by name

	// fp memoizes Fingerprints (not serialized; gob ignores unexported
	// fields).
	fpOnce sync.Once
	fp     map[string]string
}

// ---------------------------------------------------------------------------
// Building

type builder struct {
	lib   *Library
	index map[*ctypes.Type]int32
}

// Build summarizes an analyzed program's interface into a library.
// Builtin (standard library) functions are omitted: every checker
// installation already has them.
func Build(prog *sema.Program) *Library {
	b := &builder{lib: &Library{}, index: map[*ctypes.Type]int32{}}
	var fnames []string
	for n := range prog.Funcs {
		fnames = append(fnames, n)
	}
	sort.Strings(fnames)
	for _, n := range fnames {
		sig := prog.Funcs[n]
		if sig.Builtin {
			continue
		}
		fr := funcRec{
			Name: sig.Name, Result: b.typeID(sig.Result),
			ResultAnnots: uint32(sig.ResultAnnots),
			Variadic:     sig.Variadic, NoReturn: sig.NoReturn,
			GlobalsUsed: sig.GlobalsUsed,
			File:        sig.Pos.File.String(), Line: int(sig.Pos.Line),
		}
		for _, p := range sig.Params {
			fr.Params = append(fr.Params, paramRec{Name: p.Name, Type: b.typeID(p.Type), Annots: uint32(p.Annots)})
		}
		b.lib.Funcs = append(b.lib.Funcs, fr)
	}
	var gnames []string
	for n := range prog.Globals {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	for _, n := range gnames {
		g := prog.Globals[n]
		b.lib.Globals = append(b.lib.Globals, globalRec{
			Name: g.Name, Type: b.typeID(g.Type), Annots: uint32(g.Annots),
			Static: g.Static, HasInit: g.HasInit,
			File: g.Pos.File.String(), Line: int(g.Pos.Line),
		})
	}
	for k, v := range prog.Enums {
		b.lib.Enums = append(b.lib.Enums, enumRec{Name: k, Value: v})
	}
	sort.Slice(b.lib.Enums, func(i, j int) bool { return b.lib.Enums[i].Name < b.lib.Enums[j].Name })
	return b.lib
}

// typeID flattens a type (cycle-safe) and returns its table index.
func (b *builder) typeID(t *ctypes.Type) int32 {
	if t == nil {
		return -1
	}
	if id, ok := b.index[t]; ok {
		return id
	}
	id := int32(len(b.lib.Types))
	b.index[t] = id
	b.lib.Types = append(b.lib.Types, typeRec{}) // reserve before recursing
	rec := typeRec{
		Kind: int(t.Kind), Len: t.Len, Tag: t.Tag,
		Enumerators: t.Enumerators, Variadic: t.Variadic,
		Name: t.Name, Annots: uint32(t.Annots),
		Elem: -1, Return: -1, Underlying: -1,
	}
	rec.Elem = b.typeID(t.Elem)
	rec.Return = b.typeID(t.Return)
	rec.Underlying = b.typeID(t.Underlying)
	for _, f := range t.Fields {
		rec.Fields = append(rec.Fields, fieldRec{Name: f.Name, Type: b.typeID(f.Type), Annots: uint32(f.Annots)})
	}
	for _, p := range t.Params {
		rec.Params = append(rec.Params, paramRec{Name: p.Name, Type: b.typeID(p.Type), Annots: uint32(p.Annots)})
	}
	b.lib.Types[id] = rec
	return id
}

// ---------------------------------------------------------------------------
// Serialization

// Encode writes the library in gob form.
func (l *Library) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(l)
}

// Decode reads a library written by Encode.
func Decode(r io.Reader) (*Library, error) {
	var l Library
	if err := gob.NewDecoder(r).Decode(&l); err != nil {
		return nil, fmt.Errorf("decoding interface library: %w", err)
	}
	return &l, nil
}

// ---------------------------------------------------------------------------
// Installation

// recPos is the position of a decoded record. Build never writes a line
// outside the int32 range of ctoken.Pos; a decoded one that is outside it
// becomes line 0 (no position) instead of wrapping.
func recPos(file string, line int) ctoken.Pos {
	if int(int32(line)) != line {
		line = 0
	}
	return ctoken.Pos{File: ctoken.FileOf(file), Line: int32(line), Col: 1}
}

// Install merges the library's interface information into a program
// environment (as if every function had a prototype and every global an
// extern declaration). Existing entries — e.g. from the module being
// re-checked — are kept.
func (l *Library) Install(prog *sema.Program) error {
	types := make([]*ctypes.Type, len(l.Types))
	for i := range types {
		types[i] = &ctypes.Type{}
	}
	at := func(id int32) *ctypes.Type {
		if id < 0 || int(id) >= len(types) {
			return nil
		}
		return types[id]
	}
	for i, rec := range l.Types {
		t := types[i]
		t.Kind = ctypes.Kind(rec.Kind)
		t.Elem = at(rec.Elem)
		t.Len = rec.Len
		t.Tag = rec.Tag
		t.Enumerators = rec.Enumerators
		t.Return = at(rec.Return)
		t.Variadic = rec.Variadic
		t.Name = rec.Name
		t.Underlying = at(rec.Underlying)
		t.Annots = annot.Set(rec.Annots)
		for _, f := range rec.Fields {
			t.Fields = append(t.Fields, ctypes.Field{Name: f.Name, Type: at(f.Type), Annots: annot.Set(f.Annots)})
		}
		for _, p := range rec.Params {
			t.Params = append(t.Params, ctypes.Param{Name: p.Name, Type: at(p.Type), Annots: annot.Set(p.Annots)})
		}
	}
	for _, fr := range l.Funcs {
		if existing, ok := prog.Funcs[fr.Name]; ok && existing.HasBody {
			continue // module under re-check provides the definition
		}
		sig := &sema.FuncSig{
			Name: fr.Name, Result: at(fr.Result),
			ResultAnnots: annot.Set(fr.ResultAnnots),
			Variadic:     fr.Variadic, NoReturn: fr.NoReturn,
			GlobalsUsed: fr.GlobalsUsed,
			Pos:         recPos(fr.File, fr.Line),
		}
		for _, p := range fr.Params {
			sig.Params = append(sig.Params, ctypes.Param{Name: p.Name, Type: at(p.Type), Annots: annot.Set(p.Annots)})
		}
		prog.Funcs[fr.Name] = sig
	}
	for _, gr := range l.Globals {
		if _, ok := prog.Globals[gr.Name]; ok {
			continue
		}
		prog.Globals[gr.Name] = &sema.Global{
			Name: gr.Name, Type: at(gr.Type), Annots: annot.Set(gr.Annots),
			Static: gr.Static, HasInit: gr.HasInit,
			Pos: recPos(gr.File, gr.Line),
		}
	}
	for _, e := range l.Enums {
		if _, ok := prog.Enums[e.Name]; !ok {
			prog.Enums[e.Name] = e.Value
		}
	}
	return nil
}

// Stats summarizes the library for reports.
func (l *Library) Stats() string {
	return fmt.Sprintf("%d functions, %d globals, %d types, %d enum constants",
		len(l.Funcs), len(l.Globals), len(l.Types), len(l.Enums))
}

// EntryCount returns the total number of interface entries (functions,
// globals, types, enum constants) the library supplies.
func (l *Library) EntryCount() int {
	return len(l.Funcs) + len(l.Globals) + len(l.Types) + len(l.Enums)
}
