// Package sema builds the checked program's environment: function
// signatures with their interface annotations, global variables, enum
// constants, and the annotated standard library (malloc, free, strcpy, ...)
// exactly as specified in the paper. The checker (internal/core) consumes
// this environment to check each function body independently.
package sema

import (
	"fmt"
	"sort"

	"golclint/internal/annot"
	"golclint/internal/cast"
	"golclint/internal/ctoken"
	"golclint/internal/ctypes"
	"golclint/internal/flags"
)

// Error is a semantic error with its location.
type Error struct {
	Pos ctoken.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// FuncSig describes a function's interface: its type plus the annotations
// that govern checking at call sites and within its own body.
type FuncSig struct {
	Name         string
	Result       *ctypes.Type
	ResultAnnots annot.Set // explicit annotations on the return value
	Params       []ctypes.Param
	Variadic     bool
	Pos          ctoken.Pos
	Builtin      bool
	NoReturn     bool // exit/abort-like: control does not continue
	HasBody      bool
	// GlobalsUsed lists global variables referenced by the function's
	// body (empty for prototypes and builtins).
	GlobalsUsed []string
}

// EffectiveParam returns the annotations in force for parameter i,
// applying type-level annotations and the paper's defaults: an unqualified
// formal parameter is temp, non-null, and completely defined.
func (s *FuncSig) EffectiveParam(i int) annot.Set {
	if i >= len(s.Params) {
		return defaultedParam(annot.Set(0))
	}
	p := s.Params[i]
	eff := annot.Set(0)
	if p.Type != nil {
		eff = p.Type.EffectiveAnnots(p.Annots)
	} else {
		eff = p.Annots
	}
	return defaultedParam(eff)
}

func defaultedParam(eff annot.Set) annot.Set {
	if _, ok := eff.InCategory(annot.CatAllocation); !ok {
		eff = eff.With(annot.Temp)
	}
	if _, ok := eff.InCategory(annot.CatNullness); !ok {
		eff = eff.With(annot.NotNull)
	}
	if _, ok := eff.InCategory(annot.CatDefinition); !ok {
		eff = eff.With(annot.In)
	}
	return eff
}

// EffectiveResult returns the annotations in force for the return value.
// With implicit-only enabled (the default), a pointer-returning function
// with no allocation annotation is treated as returning only storage.
func (s *FuncSig) EffectiveResult(fl *flags.Flags) annot.Set {
	eff := s.ResultAnnots
	if s.Result != nil {
		eff = s.Result.EffectiveAnnots(s.ResultAnnots)
	}
	if _, ok := eff.InCategory(annot.CatAllocation); !ok {
		if fl != nil && fl.ImplicitOnly && s.Result != nil && s.Result.IsPointer() {
			eff = eff.With(annot.Only)
		} else {
			eff = eff.With(annot.Temp)
		}
	}
	if _, ok := eff.InCategory(annot.CatNullness); !ok {
		eff = eff.With(annot.NotNull)
	}
	if _, ok := eff.InCategory(annot.CatDefinition); !ok {
		eff = eff.With(annot.In)
	}
	return eff
}

// IsTrueNull reports whether the function is annotated truenull (returns
// true iff its argument is null).
func (s *FuncSig) IsTrueNull() bool { return s.ResultAnnots.Has(annot.TrueNull) }

// IsFalseNull reports whether the function is annotated falsenull.
func (s *FuncSig) IsFalseNull() bool { return s.ResultAnnots.Has(annot.FalseNull) }

// Global describes a global or file-static variable.
type Global struct {
	Name    string
	Type    *ctypes.Type
	Annots  annot.Set
	Pos     ctoken.Pos
	Static  bool
	HasInit bool
}

// Effective returns the annotations in force for the global, applying
// type-level annotations and defaults (non-null, completely defined;
// implicit only for pointer globals when enabled).
func (g *Global) Effective(fl *flags.Flags) annot.Set {
	eff := g.Annots
	if g.Type != nil {
		eff = g.Type.EffectiveAnnots(g.Annots)
	}
	if _, ok := eff.InCategory(annot.CatAllocation); !ok {
		// Unannotated globals hold shared storage: no release obligation
		// can be recorded through them (assigning owned storage to one is
		// the obligation-lost anomaly). Implicit only applies to returns
		// and structure fields, not to bare globals, so the paper's
		// Figure 2 reports exactly the null anomaly.
		eff = eff.With(annot.Shared)
	}
	if _, ok := eff.InCategory(annot.CatNullness); !ok {
		eff = eff.With(annot.NotNull)
	}
	if _, ok := eff.InCategory(annot.CatDefinition); !ok {
		eff = eff.With(annot.In)
	}
	return eff
}

// Program is the analyzed environment for a set of translation units.
type Program struct {
	Funcs   map[string]*FuncSig
	Globals map[string]*Global
	Enums   map[string]int64
	Units   []*cast.Unit
	Errors  []*Error
}

// Lookup returns the signature of a named function, if known.
func (p *Program) Lookup(name string) (*FuncSig, bool) {
	s, ok := p.Funcs[name]
	return s, ok
}

// Global returns the named global, if known.
func (p *Program) Global(name string) (*Global, bool) {
	g, ok := p.Globals[name]
	return g, ok
}

// FuncNames returns all function names, sorted.
func (p *Program) FuncNames() []string {
	var ns []string
	for n := range p.Funcs {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

func (p *Program) errorf(pos ctoken.Pos, format string, args ...interface{}) {
	p.Errors = append(p.Errors, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Analyze builds a Program from parsed translation units. The standard
// library is always available; user declarations may override it.
func Analyze(units []*cast.Unit) *Program {
	p := &Program{
		Funcs:   map[string]*FuncSig{},
		Globals: map[string]*Global{},
		Enums:   map[string]int64{},
		Units:   units,
	}
	registerStdlib(p)
	for _, u := range units {
		for _, d := range u.Decls {
			p.addDecl(d)
		}
	}
	for _, u := range units {
		for _, f := range u.Funcs() {
			if sig, ok := p.Funcs[f.Name]; ok {
				sig.GlobalsUsed = p.globalsUsed(f)
			}
		}
	}
	return p
}

// addDecl registers one external declaration.
func (p *Program) addDecl(d cast.Decl) {
	switch v := d.(type) {
	case *cast.VarDecl:
		if v.IsPrototype() {
			p.addPrototype(v)
			return
		}
		p.checkPlacement(v.Pos(), v.Annots, func(vo annot.ValidOn) bool { return vo.Global })
		if old, ok := p.Globals[v.Name]; ok && !old.Static {
			// Redeclaration: merge annotations, keep first position.
			old.Annots = old.Annots.Union(v.Annots)
			old.HasInit = old.HasInit || v.Init != nil
			return
		}
		p.Globals[v.Name] = &Global{
			Name: v.Name, Type: v.Type, Annots: v.Annots, Pos: v.Pos(),
			Static: v.Storage == cast.StorageStatic, HasInit: v.Init != nil,
		}
	case *cast.FuncDef:
		sig := &FuncSig{
			Name: v.Name, Result: v.Result, ResultAnnots: v.ResultAnnots,
			Variadic: v.Variadic, Pos: v.Pos(), HasBody: true,
		}
		for _, prm := range v.Params {
			p.checkPlacement(prm.Pos(), prm.Annots, func(vo annot.ValidOn) bool { return vo.Param })
			sig.Params = append(sig.Params, ctypes.Param{Name: prm.Name, Type: prm.Type, Annots: prm.Annots})
		}
		p.checkPlacement(v.Pos(), v.ResultAnnots, func(vo annot.ValidOn) bool { return vo.Result })
		if old, ok := p.Funcs[v.Name]; ok {
			if old.HasBody && !old.Builtin {
				p.errorf(v.Pos(), "redefinition of function %s (previous at %s)", v.Name, old.Pos)
			}
			p.mergeSig(sig, old)
		}
		p.Funcs[v.Name] = sig
	case *cast.TagDecl:
		p.collectEnums(v.Type)
	case *cast.TypedefDecl:
		if v.Type != nil {
			p.collectEnums(v.Type.Resolve())
		}
	}
}

// addPrototype registers a function prototype declaration.
func (p *Program) addPrototype(v *cast.VarDecl) {
	ft := v.Type.Resolve()
	sig := &FuncSig{
		Name: v.Name, Result: ft.Return, ResultAnnots: v.Annots,
		Params: ft.Params, Variadic: ft.Variadic, Pos: v.Pos(),
	}
	p.checkPlacement(v.Pos(), v.Annots, func(vo annot.ValidOn) bool { return vo.Result })
	for _, prm := range ft.Params {
		p.checkPlacement(v.Pos(), prm.Annots, func(vo annot.ValidOn) bool { return vo.Param })
	}
	if old, ok := p.Funcs[v.Name]; ok {
		if old.HasBody {
			// Definition seen first: keep it, but adopt prototype
			// annotations where the definition had none.
			old.ResultAnnots = old.ResultAnnots.Union(v.Annots)
			p.checkSigCompat(sig, old, v.Pos())
			return
		}
		p.checkSigCompat(sig, old, v.Pos())
	}
	p.Funcs[v.Name] = sig
}

// mergeSig carries prototype annotations into a definition signature when
// the definition itself is unannotated.
func (p *Program) mergeSig(def, proto *FuncSig) {
	def.ResultAnnots = def.ResultAnnots.Union(proto.ResultAnnots)
	for i := range def.Params {
		if i < len(proto.Params) && def.Params[i].Annots.IsEmpty() {
			def.Params[i].Annots = proto.Params[i].Annots
		}
	}
	p.checkSigCompat(def, proto, def.Pos)
}

// checkSigCompat reports prototype/definition mismatches.
func (p *Program) checkSigCompat(a, b *FuncSig, pos ctoken.Pos) {
	if b.Builtin {
		return
	}
	if len(a.Params) != len(b.Params) || a.Variadic != b.Variadic {
		p.errorf(pos, "conflicting declarations of %s: %d parameter(s) vs %d", a.Name, len(a.Params), len(b.Params))
		return
	}
	if !ctypes.Equal(a.Result, b.Result) {
		p.errorf(pos, "conflicting return types for %s: %s vs %s", a.Name, a.Result, b.Result)
	}
	for i := range a.Params {
		if !ctypes.Equal(a.Params[i].Type, b.Params[i].Type) {
			p.errorf(pos, "conflicting types for parameter %d of %s: %s vs %s",
				i+1, a.Name, a.Params[i].Type, b.Params[i].Type)
		}
	}
}

// checkPlacement validates that each annotation may appear in this
// declaration context.
func (p *Program) checkPlacement(pos ctoken.Pos, as annot.Set, ok func(annot.ValidOn) bool) {
	for _, a := range as.List() {
		if !ok(annot.Placement(a)) {
			p.errorf(pos, "annotation %s is not valid in this position", a)
		}
	}
}

// collectEnums records enum constants for constant resolution.
func (p *Program) collectEnums(t *ctypes.Type) {
	if t == nil {
		return
	}
	r := t.Resolve()
	if r == nil {
		return
	}
	if r.Kind == ctypes.Enum {
		for _, e := range r.Enumerators {
			p.Enums[e.Name] = e.Value
		}
	}
	if r.Kind == ctypes.Pointer || r.Kind == ctypes.Array {
		p.collectEnums(r.Elem)
	}
}

// globalsUsed scans a function body for references to known globals.
// Names declared as a parameter or as a local anywhere in the body are
// excluded, wherever the declaration sits relative to the use. One walk
// collects both the global references and the local declarations; the
// result is sorted and deduplicated, and nil when no global is used.
func (p *Program) globalsUsed(f *cast.FuncDef) []string {
	var used, locals []string
	cast.Inspect(f.Body, func(n cast.Node) bool {
		switch v := n.(type) {
		case *cast.Ident:
			if _, isGlobal := p.Globals[v.Name]; isGlobal {
				used = append(used, v.Name)
			}
		case *cast.DeclStmt:
			for _, d := range v.Decls {
				if vd, ok := d.(*cast.VarDecl); ok {
					locals = append(locals, vd.Name)
				}
			}
		}
		return true
	})
	if len(used) == 0 {
		return nil
	}
	for _, prm := range f.Params {
		locals = append(locals, prm.Name)
	}
	sort.Strings(used)
	sort.Strings(locals)
	var names []string
	for i, n := range used {
		if i > 0 && n == used[i-1] {
			continue
		}
		if j := sort.SearchStrings(locals, n); j < len(locals) && locals[j] == n {
			continue
		}
		names = append(names, n)
	}
	return names
}
