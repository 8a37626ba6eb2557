package cparse

import (
	"strconv"
	"strings"

	"golclint/internal/cast"
	"golclint/internal/ctoken"
)

// parseExpr parses a full expression, including the comma operator.
func (p *parser) parseExpr() cast.Expr {
	e := p.parseAssignExpr()
	for p.at(ctoken.Comma) {
		pos := p.next().Pos
		y := p.parseAssignExpr()
		e = &cast.Comma{P: pos, X: e, Y: y}
	}
	return e
}

// assignOps maps assignment-operator tokens (Kind.IsAssignOp) to their
// cast ops.
var assignOps = [ctoken.NumKinds]cast.AssignOp{
	ctoken.Assign: cast.AssignEq, ctoken.MulEq: cast.AssignMul,
	ctoken.DivEq: cast.AssignDiv, ctoken.ModEq: cast.AssignMod,
	ctoken.AddEq: cast.AssignAdd, ctoken.SubEq: cast.AssignSub,
	ctoken.ShlEq: cast.AssignShl, ctoken.ShrEq: cast.AssignShr,
	ctoken.AndEq: cast.AssignAnd, ctoken.XorEq: cast.AssignXor,
	ctoken.OrEq: cast.AssignOr,
}

// parseAssignExpr parses an assignment expression.
func (p *parser) parseAssignExpr() cast.Expr {
	lhs := p.parseCondExpr()
	if k := p.kind(); k.IsAssignOp() {
		pos := p.next().Pos
		rhs := p.parseAssignExpr()
		return p.ar.newAssign(pos, assignOps[k], lhs, rhs)
	}
	return lhs
}

// parseCondExpr parses a conditional (?:) expression.
func (p *parser) parseCondExpr() cast.Expr {
	c := p.parseBinaryExpr(1)
	if !p.at(ctoken.Question) {
		return c
	}
	pos := p.next().Pos
	thenE := p.parseExpr()
	p.expect(ctoken.Colon)
	elseE := p.parseCondExpr()
	return &cast.Cond{P: pos, C: c, Then: thenE, Else: elseE}
}

// binPrec maps binary operator tokens to precedence levels (higher binds
// tighter); 0 means not a binary operator.
var binPrec = [ctoken.NumKinds]int{
	ctoken.OrOr: 1, ctoken.AndAnd: 2, ctoken.Pipe: 3, ctoken.Caret: 4,
	ctoken.Amp: 5, ctoken.EqEq: 6, ctoken.NotEq: 6,
	ctoken.Lt: 7, ctoken.Gt: 7, ctoken.Le: 7, ctoken.Ge: 7,
	ctoken.Shl: 8, ctoken.Shr: 8, ctoken.Plus: 9, ctoken.Minus: 9,
	ctoken.Star: 10, ctoken.Slash: 10, ctoken.Percent: 10,
}

// binOps maps binary operator tokens (binPrec > 0) to their cast ops.
var binOps = [ctoken.NumKinds]cast.BinaryOp{
	ctoken.OrOr: cast.LogOr, ctoken.AndAnd: cast.LogAnd, ctoken.Pipe: cast.BitOr,
	ctoken.Caret: cast.BitXor, ctoken.Amp: cast.BitAnd, ctoken.EqEq: cast.EqOp,
	ctoken.NotEq: cast.NeOp, ctoken.Lt: cast.LtOp, ctoken.Gt: cast.GtOp,
	ctoken.Le: cast.LeOp, ctoken.Ge: cast.GeOp, ctoken.Shl: cast.ShlOp,
	ctoken.Shr: cast.ShrOp, ctoken.Plus: cast.Add, ctoken.Minus: cast.Sub,
	ctoken.Star: cast.Mul, ctoken.Slash: cast.Div, ctoken.Percent: cast.Mod,
}

// parseBinaryExpr parses binary operators with precedence climbing.
func (p *parser) parseBinaryExpr(minPrec int) cast.Expr {
	lhs := p.parseUnaryExpr()
	for {
		k := p.kind()
		prec := binPrec[k]
		if prec == 0 || prec < minPrec {
			return lhs
		}
		pos := p.next().Pos
		rhs := p.parseBinaryExpr(prec + 1)
		lhs = p.ar.newBinary(pos, binOps[k], lhs, rhs)
	}
}

// parseUnaryExpr parses prefix operators, casts, and sizeof.
func (p *parser) parseUnaryExpr() cast.Expr {
	t := p.cur()
	switch t.Kind {
	case ctoken.Inc, ctoken.Dec:
		p.next()
		x := p.parseUnaryExpr()
		op := cast.PreInc
		if t.Kind == ctoken.Dec {
			op = cast.PreDec
		}
		return p.ar.newUnary(t.Pos, op, x)
	case ctoken.Star:
		p.next()
		return p.ar.newUnary(t.Pos, cast.Deref, p.parseUnaryExpr())
	case ctoken.Amp:
		p.next()
		return p.ar.newUnary(t.Pos, cast.AddrOf, p.parseUnaryExpr())
	case ctoken.Plus:
		p.next()
		return p.ar.newUnary(t.Pos, cast.Pos, p.parseUnaryExpr())
	case ctoken.Minus:
		p.next()
		return p.ar.newUnary(t.Pos, cast.Neg, p.parseUnaryExpr())
	case ctoken.Not:
		p.next()
		return p.ar.newUnary(t.Pos, cast.LogNot, p.parseUnaryExpr())
	case ctoken.Tilde:
		p.next()
		return p.ar.newUnary(t.Pos, cast.BitNot, p.parseUnaryExpr())
	case ctoken.KwSizeof:
		p.next()
		if p.at(ctoken.LParen) && p.typeAheadInParens() {
			p.next() // (
			ty := p.parseTypeName()
			p.expect(ctoken.RParen)
			return &cast.SizeofType{P: t.Pos, Of: ty}
		}
		return &cast.SizeofExpr{P: t.Pos, X: p.parseUnaryExpr()}
	case ctoken.LParen:
		if p.typeAheadInParens() {
			p.next() // (
			ty := p.parseTypeName()
			p.expect(ctoken.RParen)
			x := p.parseUnaryExpr()
			return &cast.Cast{P: t.Pos, To: ty, X: x}
		}
	}
	return p.parsePostfixExpr()
}

// typeAheadInParens reports whether '(' is followed by a type name,
// distinguishing casts from parenthesized expressions.
func (p *parser) typeAheadInParens() bool {
	save := p.i
	defer func() { p.i = save }()
	p.i++ // step over '('
	switch p.kind() {
	case ctoken.KwVoid, ctoken.KwChar, ctoken.KwShort, ctoken.KwInt,
		ctoken.KwLong, ctoken.KwFloat, ctoken.KwDouble, ctoken.KwSigned,
		ctoken.KwUnsigned, ctoken.KwStruct, ctoken.KwUnion, ctoken.KwEnum,
		ctoken.KwConst, ctoken.KwVolatile:
		return true
	case ctoken.Ident:
		_, ok := p.typedefs[p.cur().Text]
		return ok
	}
	return false
}

// parsePostfixExpr parses a primary expression and its postfix operators.
func (p *parser) parsePostfixExpr() cast.Expr {
	e := p.parsePrimaryExpr()
	for {
		t := p.cur()
		switch t.Kind {
		case ctoken.LParen:
			p.next()
			call := p.ar.call.alloc(cast.Call{P: t.Pos, Fun: e})
			mark := p.exprStack.mark()
			for !p.at(ctoken.RParen) && !p.at(ctoken.EOF) {
				p.exprStack.push(p.parseAssignExpr())
				if !p.accept(ctoken.Comma) {
					break
				}
			}
			p.expect(ctoken.RParen)
			call.Args = p.exprStack.take(mark)
			e = call
		case ctoken.LBracket:
			p.next()
			idx := p.parseExpr()
			p.expect(ctoken.RBracket)
			e = p.ar.index.alloc(cast.Index{P: t.Pos, X: e, Idx: idx})
		case ctoken.Dot, ctoken.Arrow:
			p.next()
			name := p.expect(ctoken.Ident)
			e = p.ar.fieldSel.alloc(cast.FieldSel{P: t.Pos, X: e, Name: name.Text, Arrow: t.Kind == ctoken.Arrow})
		case ctoken.Inc:
			p.next()
			e = p.ar.newUnary(t.Pos, cast.PostInc, e)
		case ctoken.Dec:
			p.next()
			e = p.ar.newUnary(t.Pos, cast.PostDec, e)
		default:
			return e
		}
	}
}

// parsePrimaryExpr parses identifiers, literals, and parenthesized
// expressions.
func (p *parser) parsePrimaryExpr() cast.Expr {
	t := p.cur()
	switch t.Kind {
	case ctoken.Ident:
		p.next()
		return p.ar.newIdent(t.Pos, t.Text)
	case ctoken.IntLit:
		p.next()
		text := t.Text
		if c := text[len(text)-1]; c == 'u' || c == 'U' || c == 'l' || c == 'L' {
			text = strings.TrimRight(text, "uUlL")
		}
		v, err := strconv.ParseInt(text, 0, 64)
		if err != nil {
			// Values beyond int64 are clamped; the checker does not fold
			// them.
			u, uerr := strconv.ParseUint(text, 0, 64)
			if uerr != nil {
				p.errorf(t.Pos, "bad integer literal %q", t.Text)
			}
			v = int64(u)
		}
		return p.ar.newIntLit(t.Pos, t.Text, v)
	case ctoken.FloatLit:
		p.next()
		text := strings.TrimRight(t.Text, "fFlL")
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			p.errorf(t.Pos, "bad float literal %q", t.Text)
		}
		return &cast.FloatLit{P: t.Pos, Text: t.Text, Value: v}
	case ctoken.CharLit:
		p.next()
		return &cast.CharLit{P: t.Pos, Text: t.Text, Value: charValue(t.Text)}
	case ctoken.StringLit:
		p.next()
		val := stringValue(t.Text)
		// Adjacent string literals concatenate.
		text := t.Text
		for p.at(ctoken.StringLit) {
			nt := p.next()
			val += stringValue(nt.Text)
			text += " " + nt.Text
		}
		return &cast.StringLit{P: t.Pos, Text: text, Value: val}
	case ctoken.LParen:
		p.next()
		e := p.parseExpr()
		p.expect(ctoken.RParen)
		return e
	default:
		p.errorf(t.Pos, "expected expression, found %s", t)
		p.next()
		return p.ar.newIntLit(t.Pos, "0", 0)
	}
}

// charValue decodes a character literal's value.
func charValue(text string) int64 {
	s := strings.TrimSuffix(strings.TrimPrefix(text, "'"), "'")
	if s == "" {
		return 0
	}
	if s[0] != '\\' {
		return int64(s[0])
	}
	if len(s) < 2 {
		return 0
	}
	switch s[1] {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		if len(s) > 2 {
			v, _ := strconv.ParseInt(s[1:], 8, 64)
			return v
		}
		return 0
	case 'a':
		return 7
	case 'b':
		return 8
	case 'f':
		return 12
	case 'v':
		return 11
	case 'x':
		v, _ := strconv.ParseInt(s[2:], 16, 64)
		return v
	case '\\', '\'', '"', '?':
		return int64(s[1])
	default:
		return int64(s[1])
	}
}

// stringValue decodes a string literal's contents.
func stringValue(text string) string {
	s := strings.TrimSuffix(strings.TrimPrefix(text, `"`), `"`)
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 >= len(s) {
			b.WriteByte(s[i])
			continue
		}
		i++
		switch s[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case '0':
			b.WriteByte(0)
		case 'a':
			b.WriteByte(7)
		case 'b':
			b.WriteByte(8)
		case 'f':
			b.WriteByte(12)
		case 'v':
			b.WriteByte(11)
		case 'x':
			j := i + 1
			for j < len(s) && isHexDigit(s[j]) {
				j++
			}
			v, _ := strconv.ParseInt(s[i+1:j], 16, 32)
			b.WriteByte(byte(v))
			i = j - 1
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func isHexDigit(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
