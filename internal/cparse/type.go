package cparse

import (
	"golclint/internal/annot"
	"golclint/internal/cast"
	"golclint/internal/ctoken"
	"golclint/internal/ctypes"
)

// parseDeclSpecifiers parses storage-class specifiers, type specifiers,
// qualifiers, and interleaved annotations. It returns the storage class,
// the base type (nil if none was present), and the accumulated annotations.
func (p *parser) parseDeclSpecifiers(as annot.Set) (cast.Storage, *ctypes.Type, annot.Set) {
	storage := cast.StorageNone
	var typ *ctypes.Type
	var words specWords
	sawBasic := false

	setStorage := func(s cast.Storage, pos ctoken.Pos) {
		if storage != cast.StorageNone {
			p.errorf(pos, "multiple storage classes in declaration")
		}
		storage = s
	}

	for {
		t := p.cur()
		switch t.Kind {
		case ctoken.Annot:
			as = p.collectAnnots(as)
			continue
		case ctoken.KwTypedef:
			setStorage(cast.StorageTypedef, t.Pos)
		case ctoken.KwExtern:
			setStorage(cast.StorageExtern, t.Pos)
		case ctoken.KwStatic:
			setStorage(cast.StorageStatic, t.Pos)
		case ctoken.KwAuto:
			setStorage(cast.StorageAuto, t.Pos)
		case ctoken.KwRegister:
			setStorage(cast.StorageRegister, t.Pos)
		case ctoken.KwConst, ctoken.KwVolatile:
			// Qualifiers are accepted and ignored by the checker.
		case ctoken.KwVoid, ctoken.KwChar, ctoken.KwShort, ctoken.KwInt,
			ctoken.KwLong, ctoken.KwFloat, ctoken.KwDouble,
			ctoken.KwSigned, ctoken.KwUnsigned:
			if typ != nil {
				p.errorf(t.Pos, "two or more data types in declaration")
			}
			words = words.with(t.Kind)
			sawBasic = true
		case ctoken.KwStruct, ctoken.KwUnion:
			if typ != nil || sawBasic {
				p.errorf(t.Pos, "two or more data types in declaration")
			}
			p.next()
			typ = p.parseStructSpec(t.Kind == ctoken.KwUnion, t.Pos)
			continue
		case ctoken.KwEnum:
			if typ != nil || sawBasic {
				p.errorf(t.Pos, "two or more data types in declaration")
			}
			p.next()
			typ = p.parseEnumSpec(t.Pos)
			continue
		case ctoken.Ident:
			if td, ok := p.typedefs[t.Text]; ok && typ == nil && !sawBasic {
				typ = td
				p.next()
				continue
			}
			goto done
		default:
			goto done
		}
		p.next()
	}
done:
	if sawBasic {
		typ = basicFromWords(words)
		if typ == nil {
			p.errorf(p.cur().Pos, "invalid type specifier combination")
			typ = ctypes.IntType
		}
	}
	return storage, typ, as
}

// specWords is the set of basic type-specifier keywords seen in one
// declaration, one bit per keyword kind (repeats, as in "long long",
// collapse).
type specWords uint64

func (w specWords) with(k ctoken.Kind) specWords { return w | 1<<(k-ctoken.KwAuto) }
func (w specWords) has(k ctoken.Kind) bool       { return w&(1<<(k-ctoken.KwAuto)) != 0 }

// basicFromWords combines basic type-specifier keywords into a type.
func basicFromWords(w specWords) *ctypes.Type {
	unsigned := w.has(ctoken.KwUnsigned)
	signed := w.has(ctoken.KwSigned)
	if unsigned && signed {
		return nil
	}
	switch {
	case w.has(ctoken.KwVoid):
		return ctypes.VoidType
	case w.has(ctoken.KwChar):
		if unsigned {
			return ctypes.UCharType
		}
		return ctypes.CharType
	case w.has(ctoken.KwShort):
		if unsigned {
			return ctypes.UShortType
		}
		return ctypes.ShortType
	case w.has(ctoken.KwLong) && w.has(ctoken.KwDouble):
		return ctypes.DoubleType
	case w.has(ctoken.KwLong):
		if unsigned {
			return ctypes.ULongType
		}
		return ctypes.LongType
	case w.has(ctoken.KwDouble):
		return ctypes.DoubleType
	case w.has(ctoken.KwFloat):
		return ctypes.FloatType
	case w.has(ctoken.KwInt) || signed:
		if unsigned {
			return ctypes.UIntType
		}
		return ctypes.IntType
	case unsigned:
		return ctypes.UIntType
	}
	return nil
}

// tagType finds or creates the tag table entry for key, with the given kind.
func (p *parser) tagType(key string, kind ctypes.Kind, tag string) *ctypes.Type {
	if t, ok := p.tags[key]; ok {
		return t
	}
	t := &ctypes.Type{Kind: kind, Tag: tag, Incomplete: true}
	p.tags[key] = t
	return t
}

// parseStructSpec parses a struct/union specifier after the keyword.
func (p *parser) parseStructSpec(isUnion bool, pos ctoken.Pos) *ctypes.Type {
	kind := ctypes.Struct
	key := "struct "
	if isUnion {
		kind = ctypes.Union
		key = "union "
	}
	tag := ""
	if p.at(ctoken.Ident) {
		tag = p.next().Text
	}
	var typ *ctypes.Type
	if tag != "" {
		typ = p.tagType(key+tag, kind, tag)
	} else {
		typ = &ctypes.Type{Kind: kind, Incomplete: true}
	}
	if !p.at(ctoken.LBrace) {
		if tag == "" {
			p.errorf(pos, "anonymous %s without body", kind)
		}
		return typ
	}
	p.next() // {
	if !typ.Incomplete {
		p.errorf(pos, "redefinition of %s %s", kind, tag)
	}
	var fields []ctypes.Field
	for !p.at(ctoken.RBrace) && !p.at(ctoken.EOF) {
		fields = append(fields, p.parseFieldDecl()...)
	}
	p.expect(ctoken.RBrace)
	typ.Fields = fields
	typ.Incomplete = false
	return typ
}

// parseFieldDecl parses one struct/union member declaration line.
func (p *parser) parseFieldDecl() []ctypes.Field {
	startPos := p.cur().Pos
	as := p.collectAnnots(0)
	storage, base, as := p.parseDeclSpecifiers(as)
	if storage != cast.StorageNone {
		p.errorf(startPos, "storage class in struct member")
	}
	if base == nil {
		p.errorf(startPos, "expected member type, found %s", p.cur())
		p.sync()
		return nil
	}
	var fields []ctypes.Field
	for {
		fAs := p.collectAnnots(as)
		name, typ, _, moreAs := p.parseDeclarator(base)
		fAs = fAs.Union(moreAs)
		if p.accept(ctoken.Colon) {
			// Bit-field width: parsed and ignored.
			p.parseCondExpr()
		}
		if name == "" {
			p.errorf(startPos, "expected member name")
		} else {
			fields = append(fields, ctypes.Field{Name: name, Type: typ, Annots: fAs})
		}
		if p.accept(ctoken.Comma) {
			continue
		}
		p.expect(ctoken.Semi)
		return fields
	}
}

// parseEnumSpec parses an enum specifier after the keyword.
func (p *parser) parseEnumSpec(pos ctoken.Pos) *ctypes.Type {
	tag := ""
	if p.at(ctoken.Ident) {
		tag = p.next().Text
	}
	var typ *ctypes.Type
	if tag != "" {
		typ = p.tagType("enum "+tag, ctypes.Enum, tag)
	} else {
		typ = &ctypes.Type{Kind: ctypes.Enum, Incomplete: true}
	}
	if !p.at(ctoken.LBrace) {
		if tag == "" {
			p.errorf(pos, "anonymous enum without body")
		}
		return typ
	}
	p.next() // {
	if p.enums == nil {
		p.enums = map[string]int64{}
	}
	next := int64(0)
	var consts []ctypes.EnumConst
	for !p.at(ctoken.RBrace) && !p.at(ctoken.EOF) {
		nameTok := p.expect(ctoken.Ident)
		val := next
		if p.accept(ctoken.Assign) {
			e := p.parseCondExpr()
			if v, ok := p.evalConst(e); ok {
				val = v
			} else {
				p.errorf(nameTok.Pos, "enumerator value is not a constant expression")
			}
		}
		consts = append(consts, ctypes.EnumConst{Name: nameTok.Text, Value: val})
		p.enums[nameTok.Text] = val
		next = val + 1
		if !p.accept(ctoken.Comma) {
			break
		}
	}
	p.expect(ctoken.RBrace)
	typ.Enumerators = consts
	typ.Incomplete = false
	return typ
}

// parseDeclarator parses a (possibly abstract) declarator against base. It
// returns the declared name ("" for abstract declarators), the full type,
// parameter declarations when the declarator is directly a function (for
// function definitions), and annotations encountered inside the declarator.
func (p *parser) parseDeclarator(base *ctypes.Type) (string, *ctypes.Type, []*cast.ParamDecl, annot.Set) {
	var as annot.Set
	// Pointer part: each * wraps the base.
	for {
		if p.accept(ctoken.Star) {
			base = ctypes.PointerTo(base)
			continue
		}
		if p.at(ctoken.KwConst) || p.at(ctoken.KwVolatile) {
			p.next()
			continue
		}
		if p.at(ctoken.Annot) {
			as = p.collectAnnots(as)
			continue
		}
		break
	}

	// Parenthesized nested declarator?
	if p.at(ctoken.LParen) && p.nestedDeclaratorAhead() {
		p.next() // (
		nestedStart := p.i
		p.skipBalancedParens()
		// Parse the suffixes that follow ')' against base.
		typ, pds := p.parseDeclSuffixes(base)
		// Re-parse the nested declarator against the suffixed type.
		save := p.i
		p.i = nestedStart
		name, full, innerPds, innerAs := p.parseDeclarator(typ)
		if !p.at(ctoken.RParen) {
			p.errorf(p.cur().Pos, "malformed nested declarator")
		}
		p.i = save
		if innerPds != nil {
			pds = innerPds
		}
		return name, full, pds, as.Union(innerAs)
	}

	name := ""
	if p.at(ctoken.Ident) {
		name = p.next().Text
	}
	typ, pds := p.parseDeclSuffixes(base)
	return name, typ, pds, as
}

// nestedDeclaratorAhead distinguishes "(declarator)" from "(params)" after
// a direct-declarator position.
func (p *parser) nestedDeclaratorAhead() bool {
	// Look at the token after '('.
	save := p.i
	p.i++ // step over '(' tentatively (control comments filtered by cur)
	t := p.cur()
	p.i = save
	switch t.Kind {
	case ctoken.Star, ctoken.LParen:
		return true
	case ctoken.Ident:
		_, isType := p.typedefs[t.Text]
		return !isType
	}
	return false
}

// skipBalancedParens advances past a balanced ')' assuming the opening '('
// was already consumed.
func (p *parser) skipBalancedParens() {
	depth := 1
	for depth > 0 && !p.at(ctoken.EOF) {
		switch p.kind() {
		case ctoken.LParen:
			depth++
		case ctoken.RParen:
			depth--
		}
		if depth > 0 {
			p.next()
		}
	}
	p.expect(ctoken.RParen)
}

// declSuffix is one array or function suffix of a declarator, staged on
// the parser's suffix scratch stack while the declarator is assembled.
type declSuffix struct {
	isArray  bool
	n        int
	params   []ctypes.Param
	variadic bool
	decls    []*cast.ParamDecl
}

// parseDeclSuffixes parses array and function suffixes, returning the
// completed type and, if the first suffix was a parameter list, its
// parameter declarations.
func (p *parser) parseDeclSuffixes(base *ctypes.Type) (*ctypes.Type, []*cast.ParamDecl) {
	mark := p.suffixStack.mark()
	for {
		if p.accept(ctoken.LBracket) {
			n := -1
			if !p.at(ctoken.RBracket) {
				e := p.parseCondExpr()
				if v, ok := p.evalConst(e); ok {
					n = int(v)
				} else {
					p.errorf(p.cur().Pos, "array size is not a constant expression")
				}
			}
			p.expect(ctoken.RBracket)
			p.suffixStack.push(declSuffix{isArray: true, n: n})
			continue
		}
		if p.at(ctoken.LParen) && !p.nestedDeclaratorAhead() {
			p.next() // (
			params, variadic, decls := p.parseParamList()
			p.suffixStack.push(declSuffix{params: params, variadic: variadic, decls: decls})
			continue
		}
		break
	}
	// Rightmost suffix binds closest to the base type.
	ss := p.suffixStack.buf[mark:]
	t := base
	for i := len(ss) - 1; i >= 0; i-- {
		s := ss[i]
		if s.isArray {
			t = ctypes.ArrayOf(t, s.n)
		} else {
			t = ctypes.FuncOf(t, s.params, s.variadic)
		}
	}
	var decls []*cast.ParamDecl
	if len(ss) > 0 && !ss[0].isArray {
		decls = ss[0].decls
	}
	p.suffixStack.drop(mark)
	return t, decls
}

// parseParamList parses a parameter list after '(' up to and including ')'.
func (p *parser) parseParamList() ([]ctypes.Param, bool, []*cast.ParamDecl) {
	if p.accept(ctoken.RParen) {
		// Empty parens: unspecified parameters (old-style); treat as
		// "no information", i.e. zero declared params, variadic.
		return nil, true, nil
	}
	// (void) means exactly zero parameters.
	if p.at(ctoken.KwVoid) {
		save := p.i
		p.next()
		if p.accept(ctoken.RParen) {
			return nil, false, nil
		}
		p.i = save
	}
	pmark := p.paramStack.mark()
	dmark := p.pdeclStack.mark()
	variadic := false
	for {
		if p.accept(ctoken.Ellipsis) {
			variadic = true
			break
		}
		pos := p.cur().Pos
		as := p.collectAnnots(0)
		storage, base, as := p.parseDeclSpecifiers(as)
		if storage != cast.StorageNone && storage != cast.StorageRegister {
			p.errorf(pos, "storage class %q in parameter", storage)
		}
		if base == nil {
			p.errorf(pos, "expected parameter type, found %s", p.cur())
			p.sync()
			break
		}
		name, typ, _, moreAs := p.parseDeclarator(base)
		as = as.Union(moreAs)
		// Arrays decay to pointers in parameters.
		if r := typ.Resolve(); r != nil && r.Kind == ctypes.Array {
			typ = ctypes.PointerTo(r.Elem)
		}
		p.paramStack.push(ctypes.Param{Name: name, Type: typ, Annots: as})
		p.pdeclStack.push(p.ar.param.alloc(cast.ParamDecl{P: pos, Name: name, Type: typ, Annots: as}))
		if !p.accept(ctoken.Comma) {
			break
		}
	}
	p.expect(ctoken.RParen)
	return p.paramStack.take(pmark), variadic, p.pdeclStack.take(dmark)
}

// parseTypeName parses a type-name (specifiers plus abstract declarator),
// as used in casts and sizeof.
func (p *parser) parseTypeName() *ctypes.Type {
	pos := p.cur().Pos
	as := p.collectAnnots(0)
	storage, base, _ := p.parseDeclSpecifiers(as)
	if storage != cast.StorageNone {
		p.errorf(pos, "storage class in type name")
	}
	if base == nil {
		p.errorf(pos, "expected type name, found %s", p.cur())
		return ctypes.IntType
	}
	name, typ, _, _ := p.parseDeclarator(base)
	if name != "" {
		p.errorf(pos, "unexpected name %q in type name", name)
	}
	return typ
}

// evalConst evaluates a parsed expression as an integer constant.
func (p *parser) evalConst(e cast.Expr) (int64, bool) {
	switch v := e.(type) {
	case *cast.IntLit:
		return v.Value, true
	case *cast.CharLit:
		return v.Value, true
	case *cast.Ident:
		if p.enums != nil {
			if val, ok := p.enums[v.Name]; ok {
				return val, true
			}
		}
		return 0, false
	case *cast.Unary:
		x, ok := p.evalConst(v.X)
		if !ok {
			return 0, false
		}
		switch v.Op {
		case cast.Neg:
			return -x, true
		case cast.Pos:
			return x, true
		case cast.BitNot:
			return ^x, true
		case cast.LogNot:
			if x == 0 {
				return 1, true
			}
			return 0, true
		}
		return 0, false
	case *cast.Binary:
		x, ok1 := p.evalConst(v.X)
		y, ok2 := p.evalConst(v.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch v.Op {
		case cast.Add:
			return x + y, true
		case cast.Sub:
			return x - y, true
		case cast.Mul:
			return x * y, true
		case cast.Div:
			if y == 0 {
				return 0, false
			}
			return x / y, true
		case cast.Mod:
			if y == 0 {
				return 0, false
			}
			return x % y, true
		case cast.ShlOp:
			return x << uint(y&63), true
		case cast.ShrOp:
			return x >> uint(y&63), true
		case cast.BitAnd:
			return x & y, true
		case cast.BitOr:
			return x | y, true
		case cast.BitXor:
			return x ^ y, true
		}
		return 0, false
	case *cast.Cast:
		return p.evalConst(v.X)
	case *cast.SizeofType, *cast.SizeofExpr:
		// Size is model-dependent; any positive value works for array
		// bounds in the checker's collapsed-index model.
		return 8, true
	}
	return 0, false
}
