package cparse

import (
	"golclint/internal/cast"
	"golclint/internal/ctoken"
)

// parseBlock parses a brace-delimited compound statement.
func (p *parser) parseBlock() *cast.Block {
	pos := p.expect(ctoken.LBrace).Pos
	b := p.ar.block.alloc(cast.Block{P: pos})
	mark := p.stmtStack.mark()
	for !p.at(ctoken.RBrace) && !p.at(ctoken.EOF) {
		before := p.i
		p.stmtStack.push(p.parseStmt())
		if p.i == before {
			p.errorf(p.cur().Pos, "unexpected %s in block", p.cur())
			p.next()
		}
	}
	p.expect(ctoken.RBrace)
	b.Items = p.stmtStack.take(mark)
	return b
}

// parseStmt parses one statement (including local declarations).
func (p *parser) parseStmt() cast.Stmt {
	t := p.cur()
	switch t.Kind {
	case ctoken.LBrace:
		return p.parseBlock()
	case ctoken.Semi:
		p.next()
		return &cast.Empty{P: t.Pos}
	case ctoken.KwIf:
		p.next()
		p.expect(ctoken.LParen)
		cond := p.parseExpr()
		p.expect(ctoken.RParen)
		s := p.ar.ifStmt.alloc(cast.If{P: t.Pos, Cond: cond, Then: p.parseStmt()})
		if p.accept(ctoken.KwElse) {
			s.Else = p.parseStmt()
		}
		return s
	case ctoken.KwWhile:
		p.next()
		p.expect(ctoken.LParen)
		cond := p.parseExpr()
		p.expect(ctoken.RParen)
		return p.ar.while.alloc(cast.While{P: t.Pos, Cond: cond, Body: p.parseStmt()})
	case ctoken.KwDo:
		p.next()
		body := p.parseStmt()
		p.expect(ctoken.KwWhile)
		p.expect(ctoken.LParen)
		cond := p.parseExpr()
		p.expect(ctoken.RParen)
		p.expect(ctoken.Semi)
		return &cast.DoWhile{P: t.Pos, Body: body, Cond: cond}
	case ctoken.KwFor:
		p.next()
		p.expect(ctoken.LParen)
		s := p.ar.forStmt.alloc(cast.For{P: t.Pos})
		if !p.at(ctoken.Semi) {
			if p.isDeclStart() {
				s.Init = p.parseDeclStmt()
			} else {
				e := p.parseExpr()
				s.Init = p.ar.newExprStmt(e)
				p.expect(ctoken.Semi)
			}
		} else {
			p.next()
		}
		if !p.at(ctoken.Semi) {
			s.Cond = p.parseExpr()
		}
		p.expect(ctoken.Semi)
		if !p.at(ctoken.RParen) {
			s.Post = p.parseExpr()
		}
		p.expect(ctoken.RParen)
		s.Body = p.parseStmt()
		return s
	case ctoken.KwSwitch:
		p.next()
		p.expect(ctoken.LParen)
		tag := p.parseExpr()
		p.expect(ctoken.RParen)
		return &cast.Switch{P: t.Pos, Tag: tag, Body: p.parseStmt()}
	case ctoken.KwCase:
		p.next()
		v := p.parseCondExpr()
		p.expect(ctoken.Colon)
		return &cast.Case{P: t.Pos, Value: v}
	case ctoken.KwDefault:
		p.next()
		p.expect(ctoken.Colon)
		return &cast.Case{P: t.Pos}
	case ctoken.KwBreak:
		p.next()
		p.expect(ctoken.Semi)
		return &cast.Break{P: t.Pos}
	case ctoken.KwContinue:
		p.next()
		p.expect(ctoken.Semi)
		return &cast.Continue{P: t.Pos}
	case ctoken.KwReturn:
		p.next()
		s := p.ar.ret.alloc(cast.Return{P: t.Pos})
		if !p.at(ctoken.Semi) {
			s.X = p.parseExpr()
		}
		p.expect(ctoken.Semi)
		return s
	case ctoken.KwGoto:
		p.next()
		lbl := p.expect(ctoken.Ident)
		p.expect(ctoken.Semi)
		return &cast.Goto{P: t.Pos, Label: lbl.Text}
	case ctoken.Ident:
		// Label "name:" (but not a declaration of a typedef'd type).
		if p.peekAfterIdentIsColon() {
			p.next()
			p.expect(ctoken.Colon)
			return &cast.Label{P: t.Pos, Name: t.Text}
		}
	}
	if p.isDeclStart() {
		return p.parseDeclStmt()
	}
	e := p.parseExpr()
	p.expect(ctoken.Semi)
	return p.ar.newExprStmt(e)
}

// peekAfterIdentIsColon reports whether the current Ident is immediately
// followed by ':' (a statement label), excluding "a ? b : c" which never
// starts with Ident Colon.
func (p *parser) peekAfterIdentIsColon() bool {
	save := p.i
	defer func() { p.i = save }()
	p.i++
	return p.kind() == ctoken.Colon
}

// parseDeclStmt parses a local declaration statement (consuming ';').
func (p *parser) parseDeclStmt() cast.Stmt {
	pos := p.cur().Pos
	decls := p.parseExternalDecl()
	ds := p.ar.declStmt.alloc(cast.DeclStmt{P: pos})
	// The decls slice is freshly built for this call, so filter it in
	// place rather than copying into a second slice.
	keep := decls[:0]
	for _, d := range decls {
		switch d.(type) {
		case *cast.FuncDef:
			p.errorf(d.Pos(), "nested function definitions are not allowed")
		default:
			keep = append(keep, d)
		}
	}
	ds.Decls = keep
	return ds
}
