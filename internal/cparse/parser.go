// Package cparse implements a recursive-descent parser for the C subset
// checked by golclint. It consumes preprocessed source (see internal/cpp),
// resolves typedef names during parsing (as C requires), and attaches
// /*@...@*/ annotations to the declarations they qualify.
package cparse

import (
	"fmt"
	"strings"

	"golclint/internal/annot"
	"golclint/internal/cast"
	"golclint/internal/ctoken"
	"golclint/internal/ctypes"
)

// ParseError is a syntax error at a position.
type ParseError struct {
	Pos ctoken.Pos
	Msg string
}

// Error implements the error interface.
func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Control is a checker-control comment (/*@i@*/, /*@ignore@*/, /*@end@*/,
// /*@+flag@*/, /*@-flag@*/) with its position, collected during parsing for
// the diagnostics layer.
type Control struct {
	Pos  ctoken.Pos
	Text string
}

// Result bundles the outcome of parsing one translation unit.
type Result struct {
	Unit     *cast.Unit
	Controls []Control
	Errors   []*ParseError
	// Tokens is the number of tokens the lexer produced for this unit
	// (annotation comments included, terminating EOF excluded).
	Tokens int
	// Annots is the number of /*@...@*/ annotation comments among them.
	Annots int
}

// Parse parses preprocessed C source. The file name is used only as a
// fallback; positions inside src follow its line markers.
func Parse(file, src string) *Result {
	lx := ctoken.NewLexer(file, src)
	p := &parser{
		typedefs: map[string]*ctypes.Type{},
		tags:     map[string]*ctypes.Type{},
	}
	return p.parseFile(file, lx.All(), lx.Errors())
}

// parseFile parses an already-lexed token stream (shared by Parse and
// Session.Parse). The parser may be reused across files: per-file state
// resets here while the node arena, scratch stacks, and map capacity carry
// over. It must not retain toks: Session reuses the buffer.
func (p *parser) parseFile(file string, toks []ctoken.Token, lexErrs []*ctoken.LexError) *Result {
	p.toks = toks
	p.i = 0
	p.errs = nil
	p.controls = nil
	p.unit = &cast.Unit{File: file}
	clear(p.typedefs)
	clear(p.tags)
	if p.enums != nil {
		clear(p.enums)
	}
	for _, le := range lexErrs {
		p.errs = append(p.errs, &ParseError{Pos: le.Pos, Msg: le.Msg})
	}
	p.parseUnit()
	nAnnots := 0
	for _, t := range toks {
		if t.Kind == ctoken.Annot {
			nAnnots++
		}
	}
	p.toks = nil
	return &Result{
		Unit: p.unit, Controls: p.controls, Errors: p.errs,
		Tokens: len(toks) - 1, // exclude the terminating EOF
		Annots: nAnnots,
	}
}

type parser struct {
	toks     []ctoken.Token
	i        int
	errs     []*ParseError
	unit     *cast.Unit
	controls []Control
	ar       nodeArena

	// Scratch stacks for building retained slices with one exact-size
	// allocation each (see sliceStack).
	stmtStack   sliceStack[cast.Stmt]
	declStack   sliceStack[cast.Decl]
	exprStack   sliceStack[cast.Expr]
	paramStack  sliceStack[ctypes.Param]
	pdeclStack  sliceStack[*cast.ParamDecl]
	suffixStack sliceStack[declSuffix]

	// typedefs maps typedef names to their Named types. Block-scoped
	// typedefs are rare in our subset; a single namespace suffices.
	typedefs map[string]*ctypes.Type
	// tags maps "struct s"/"union u"/"enum e" keys to their types.
	tags map[string]*ctypes.Type
	// enums maps enumerator names to their values (sema consumes these
	// via the Unit's tag declarations; the parser needs them for array
	// sizes and case labels only in constant folding).
	enums map[string]int64
}

// maxParseErrors bounds error cascades.
const maxParseErrors = 200

func (p *parser) errorf(pos ctoken.Pos, format string, args ...interface{}) {
	if len(p.errs) < maxParseErrors {
		p.errs = append(p.errs, &ParseError{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

// cur returns the current token, with control comments filtered out. The
// pointer aims into the token buffer and is valid until the parse returns;
// callers copy out the fields they keep.
func (p *parser) cur() *ctoken.Token {
	if p.toks[p.i].Kind == ctoken.Annot {
		p.filterControls()
	}
	return &p.toks[p.i]
}

// kind returns the current token's kind, with control comments filtered
// out.
func (p *parser) kind() ctoken.Kind { return p.cur().Kind }

// filterControls consumes any control comments at the cursor, recording
// them. Speculative lookahead can re-scan a control token after the cursor
// is restored, so duplicates (same position) are dropped.
func (p *parser) filterControls() {
	for p.toks[p.i].Kind == ctoken.Annot && annot.ControlWord(p.toks[p.i].Text) {
		c := Control{Pos: p.toks[p.i].Pos, Text: strings.TrimSpace(p.toks[p.i].Text)}
		if n := len(p.controls); n == 0 || p.controls[n-1].Pos != c.Pos {
			p.controls = append(p.controls, c)
		}
		p.i++
	}
}

func (p *parser) at(k ctoken.Kind) bool { return p.kind() == k }

// next consumes the current token and returns it (EOF is never consumed).
func (p *parser) next() *ctoken.Token {
	t := p.cur()
	if t.Kind != ctoken.EOF {
		p.i++
	}
	return t
}

// accept consumes the current token if it has kind k.
func (p *parser) accept(k ctoken.Kind) bool {
	if p.at(k) {
		p.i++
		return true
	}
	return false
}

// expect consumes a token of kind k or reports an error, returning a
// stand-in token of kind k at the offending position.
func (p *parser) expect(k ctoken.Kind) *ctoken.Token {
	t := p.cur()
	if t.Kind == k {
		p.i++
		return t
	}
	p.errorf(t.Pos, "expected %s, found %s", k, *t)
	return &ctoken.Token{Kind: k, Pos: t.Pos}
}

// sync skips tokens until a likely statement/declaration boundary.
func (p *parser) sync() {
	depth := 0
	for {
		t := p.cur()
		switch t.Kind {
		case ctoken.EOF:
			return
		case ctoken.LBrace:
			depth++
		case ctoken.RBrace:
			if depth == 0 {
				return
			}
			depth--
		case ctoken.Semi:
			if depth == 0 {
				p.i++
				return
			}
		}
		p.i++
	}
}

// collectAnnots consumes consecutive declaration annotations at the cursor,
// reporting unknown words and category conflicts.
func (p *parser) collectAnnots(into annot.Set) annot.Set {
	for p.at(ctoken.Annot) {
		t := p.next()
		s, unknown := annot.ParseWords(t.Text)
		for _, w := range unknown {
			p.errorf(t.Pos, "unknown annotation %q", w)
		}
		into = into.Union(s)
	}
	for _, c := range into.Conflicts() {
		p.errorf(p.cur().Pos, "incompatible annotations %s and %s (both %s)", c[0], c[1], annot.CategoryOf(c[0]))
	}
	return into
}

// isTypeStart reports whether the current token can begin a type
// (declaration specifiers), using typedef knowledge.
func (p *parser) isTypeStart() bool {
	t := p.cur()
	switch t.Kind {
	case ctoken.KwVoid, ctoken.KwChar, ctoken.KwShort, ctoken.KwInt,
		ctoken.KwLong, ctoken.KwFloat, ctoken.KwDouble, ctoken.KwSigned,
		ctoken.KwUnsigned, ctoken.KwStruct, ctoken.KwUnion, ctoken.KwEnum,
		ctoken.KwConst, ctoken.KwVolatile:
		return true
	case ctoken.Ident:
		_, ok := p.typedefs[t.Text]
		return ok
	}
	return false
}

// isDeclStart reports whether a declaration begins at the cursor
// (annotations, storage class, or type specifiers).
func (p *parser) isDeclStart() bool {
	switch p.kind() {
	case ctoken.Annot, ctoken.KwTypedef, ctoken.KwExtern, ctoken.KwStatic,
		ctoken.KwAuto, ctoken.KwRegister:
		return true
	}
	return p.isTypeStart()
}

// parseUnit parses the whole translation unit.
func (p *parser) parseUnit() {
	for !p.at(ctoken.EOF) {
		if p.accept(ctoken.Semi) {
			continue
		}
		before := p.i
		decls := p.parseExternalDecl()
		p.unit.Decls = append(p.unit.Decls, decls...)
		if p.i == before {
			// No progress: skip the offending token.
			p.errorf(p.cur().Pos, "unexpected %s at top level", p.cur())
			p.next()
		}
	}
}

// parseExternalDecl parses one external declaration (possibly declaring
// several names) or a function definition.
func (p *parser) parseExternalDecl() []cast.Decl {
	startPos := p.cur().Pos
	as := p.collectAnnots(0)
	storage, base, as := p.parseDeclSpecifiers(as)

	// "struct s { ... };" with no declarator.
	if p.accept(ctoken.Semi) {
		if base != nil && base.Resolve() != nil && (base.Resolve().Kind == ctypes.Struct ||
			base.Resolve().Kind == ctypes.Union || base.Resolve().Kind == ctypes.Enum) {
			return []cast.Decl{&cast.TagDecl{P: startPos, Type: base}}
		}
		p.errorf(startPos, "declaration declares nothing")
		return nil
	}
	if base == nil {
		p.errorf(startPos, "expected declaration specifiers, found %s", p.cur())
		p.sync()
		return nil
	}

	mark := p.declStack.mark()
	for {
		declPos := p.cur().Pos
		as = p.collectAnnots(as)
		name, typ, paramDecls, moreAs := p.parseDeclarator(base)
		as = as.Union(moreAs)

		if storage == cast.StorageTypedef {
			if name == "" {
				p.errorf(declPos, "typedef requires a name")
			} else {
				named := ctypes.NamedOf(name, typ, as)
				p.typedefs[name] = named
				p.declStack.push(&cast.TypedefDecl{P: declPos, Name: name, Type: named})
			}
			as = 0
			if p.accept(ctoken.Comma) {
				continue
			}
			p.expect(ctoken.Semi)
			return p.declStack.take(mark)
		}

		// Function definition: function declarator followed by '{'.
		if typ != nil && typ.Kind == ctypes.Func && p.at(ctoken.LBrace) {
			if p.declStack.len() > mark {
				p.errorf(declPos, "function definition cannot follow other declarators")
				p.declStack.drop(mark)
			}
			fd := &cast.FuncDef{
				P: declPos, Name: name, Result: typ.Return,
				ResultAnnots: as, Variadic: typ.Variadic, Storage: storage,
			}
			if paramDecls != nil {
				fd.Params = paramDecls
			} else {
				for _, prm := range typ.Params {
					fd.Params = append(fd.Params, p.ar.param.alloc(cast.ParamDecl{P: declPos, Name: prm.Name, Type: prm.Type, Annots: prm.Annots}))
				}
			}
			fd.Body = p.parseBlock()
			return []cast.Decl{fd}
		}

		d := p.ar.varDecl.alloc(cast.VarDecl{P: declPos, Name: name, Type: typ, Annots: as, Storage: storage})
		if name == "" {
			p.errorf(declPos, "expected declarator name")
		}
		if p.accept(ctoken.Assign) {
			d.Init = p.parseInitializer()
		}
		p.declStack.push(d)
		as = 0
		if p.accept(ctoken.Comma) {
			continue
		}
		p.expect(ctoken.Semi)
		return p.declStack.take(mark)
	}
}

// parseInitializer parses a scalar or braced initializer.
func (p *parser) parseInitializer() cast.Expr {
	if p.at(ctoken.LBrace) {
		pos := p.next().Pos
		il := &cast.InitList{P: pos}
		for !p.at(ctoken.RBrace) && !p.at(ctoken.EOF) {
			il.Elems = append(il.Elems, p.parseInitializer())
			if !p.accept(ctoken.Comma) {
				break
			}
		}
		p.expect(ctoken.RBrace)
		return il
	}
	return p.parseAssignExpr()
}
