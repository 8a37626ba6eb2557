// Package cast defines the abstract syntax tree for the C subset: external
// declarations, statements, and expressions. Types are represented with
// internal/ctypes and are attached during parsing (declarations) and
// semantic analysis (expressions).
package cast

import (
	"golclint/internal/annot"
	"golclint/internal/ctoken"
	"golclint/internal/ctypes"
)

// Node is implemented by every AST node.
type Node interface {
	Pos() ctoken.Pos
}

// ---------------------------------------------------------------------------
// Declarations

// Unit is a translation unit: the parsed contents of one source file.
type Unit struct {
	File  string
	Decls []Decl
}

// Pos implements Node.
func (u *Unit) Pos() ctoken.Pos {
	if len(u.Decls) > 0 {
		return u.Decls[0].Pos()
	}
	return ctoken.Pos{File: ctoken.FileOf(u.File), Line: 1, Col: 1}
}

// Funcs returns the function definitions in the unit.
func (u *Unit) Funcs() []*FuncDef {
	var fs []*FuncDef
	for _, d := range u.Decls {
		if f, ok := d.(*FuncDef); ok {
			fs = append(fs, f)
		}
	}
	return fs
}

// Decl is an external or block-level declaration.
type Decl interface {
	Node
	declNode()
}

// Storage classifies a declaration's storage class.
type Storage int

// Storage classes.
const (
	StorageNone Storage = iota
	StorageExtern
	StorageStatic
	StorageTypedef
	StorageAuto
	StorageRegister
)

var storageNames = map[Storage]string{
	StorageNone: "", StorageExtern: "extern", StorageStatic: "static",
	StorageTypedef: "typedef", StorageAuto: "auto", StorageRegister: "register",
}

// String returns the storage-class keyword ("" for none).
func (s Storage) String() string { return storageNames[s] }

// VarDecl declares a variable (global, static, or local) or provides a
// function prototype when Type is a function type.
type VarDecl struct {
	P       ctoken.Pos
	Name    string
	Type    *ctypes.Type
	Annots  annot.Set // declaration-level annotations
	Storage Storage
	Init    Expr // optional initializer
}

// Pos implements Node.
func (d *VarDecl) Pos() ctoken.Pos { return d.P }
func (d *VarDecl) declNode()       {}

// IsPrototype reports whether this declares a function rather than an
// object.
func (d *VarDecl) IsPrototype() bool { return d.Type != nil && d.Type.IsFunc() }

// TypedefDecl names a type.
type TypedefDecl struct {
	P    ctoken.Pos
	Name string
	Type *ctypes.Type // the Named type created for this typedef
}

// Pos implements Node.
func (d *TypedefDecl) Pos() ctoken.Pos { return d.P }
func (d *TypedefDecl) declNode()       {}

// TagDecl records a standalone struct/union/enum definition
// ("struct s { ... };" with no declarator).
type TagDecl struct {
	P    ctoken.Pos
	Type *ctypes.Type
}

// Pos implements Node.
func (d *TagDecl) Pos() ctoken.Pos { return d.P }
func (d *TagDecl) declNode()       {}

// ParamDecl is one formal parameter of a function definition.
type ParamDecl struct {
	P      ctoken.Pos
	Name   string
	Type   *ctypes.Type
	Annots annot.Set
}

// Pos implements Node.
func (d *ParamDecl) Pos() ctoken.Pos { return d.P }

// FuncDef is a function definition with a body.
type FuncDef struct {
	P            ctoken.Pos
	Name         string
	Params       []*ParamDecl
	Result       *ctypes.Type
	ResultAnnots annot.Set // annotations on the return value
	Variadic     bool
	Storage      Storage
	Body         *Block
}

// Pos implements Node.
func (d *FuncDef) Pos() ctoken.Pos { return d.P }
func (d *FuncDef) declNode()       {}

// Signature returns the function type of the definition.
func (d *FuncDef) Signature() *ctypes.Type {
	ps := make([]ctypes.Param, len(d.Params))
	for i, p := range d.Params {
		ps[i] = ctypes.Param{Name: p.Name, Type: p.Type, Annots: p.Annots}
	}
	return ctypes.FuncOf(d.Result, ps, d.Variadic)
}

// ---------------------------------------------------------------------------
// Statements

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// Block is a brace-delimited statement list.
type Block struct {
	P     ctoken.Pos
	Items []Stmt
}

// DeclStmt wraps local declarations as a statement.
type DeclStmt struct {
	P     ctoken.Pos
	Decls []Decl // VarDecl or TypedefDecl
}

// ExprStmt is an expression evaluated for effect.
type ExprStmt struct {
	P ctoken.Pos
	X Expr
}

// Empty is a lone semicolon.
type Empty struct{ P ctoken.Pos }

// If is an if/else statement.
type If struct {
	P    ctoken.Pos
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// While is a while loop.
type While struct {
	P    ctoken.Pos
	Cond Expr
	Body Stmt
}

// DoWhile is a do { } while loop.
type DoWhile struct {
	P    ctoken.Pos
	Body Stmt
	Cond Expr
}

// For is a for loop. Init may be a DeclStmt or ExprStmt (or nil);
// Cond/Post may be nil.
type For struct {
	P    ctoken.Pos
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
}

// Switch is a switch statement; its Body contains Case/Default labels.
type Switch struct {
	P    ctoken.Pos
	Tag  Expr
	Body Stmt
}

// Case labels a switch arm. Nil Value means "default:".
type Case struct {
	P     ctoken.Pos
	Value Expr // nil for default
}

// Break exits the innermost loop or switch.
type Break struct{ P ctoken.Pos }

// Continue advances the innermost loop.
type Continue struct{ P ctoken.Pos }

// Return exits the function, optionally with a value.
type Return struct {
	P ctoken.Pos
	X Expr // may be nil
}

// Goto jumps to a label.
type Goto struct {
	P     ctoken.Pos
	Label string
}

// Label marks a goto target.
type Label struct {
	P    ctoken.Pos
	Name string
}

// Pos implementations and sealed-interface markers.
func (s *Block) Pos() ctoken.Pos    { return s.P }
func (s *DeclStmt) Pos() ctoken.Pos { return s.P }
func (s *ExprStmt) Pos() ctoken.Pos { return s.P }
func (s *Empty) Pos() ctoken.Pos    { return s.P }
func (s *If) Pos() ctoken.Pos       { return s.P }
func (s *While) Pos() ctoken.Pos    { return s.P }
func (s *DoWhile) Pos() ctoken.Pos  { return s.P }
func (s *For) Pos() ctoken.Pos      { return s.P }
func (s *Switch) Pos() ctoken.Pos   { return s.P }
func (s *Case) Pos() ctoken.Pos     { return s.P }
func (s *Break) Pos() ctoken.Pos    { return s.P }
func (s *Continue) Pos() ctoken.Pos { return s.P }
func (s *Return) Pos() ctoken.Pos   { return s.P }
func (s *Goto) Pos() ctoken.Pos     { return s.P }
func (s *Label) Pos() ctoken.Pos    { return s.P }

func (*Block) stmtNode()    {}
func (*DeclStmt) stmtNode() {}
func (*ExprStmt) stmtNode() {}
func (*Empty) stmtNode()    {}
func (*If) stmtNode()       {}
func (*While) stmtNode()    {}
func (*DoWhile) stmtNode()  {}
func (*For) stmtNode()      {}
func (*Switch) stmtNode()   {}
func (*Case) stmtNode()     {}
func (*Break) stmtNode()    {}
func (*Continue) stmtNode() {}
func (*Return) stmtNode()   {}
func (*Goto) stmtNode()     {}
func (*Label) stmtNode()    {}

// ---------------------------------------------------------------------------
// Expressions

// Expr is an expression node. Every expression carries its computed type
// after semantic analysis (nil until then).
type Expr interface {
	Node
	exprNode()
	// Type returns the expression's resolved C type (may be nil before
	// semantic analysis).
	Type() *ctypes.Type
	// SetType records the expression's resolved type.
	SetType(*ctypes.Type)
}

// typed provides the Type/SetType plumbing for expression nodes.
type typed struct {
	T *ctypes.Type
}

// Type returns the expression's resolved type.
func (t *typed) Type() *ctypes.Type { return t.T }

// SetType records the expression's resolved type.
func (t *typed) SetType(ty *ctypes.Type) { t.T = ty }

// Ident is a name reference.
type Ident struct {
	typed
	P    ctoken.Pos
	Name string
}

// IntLit is an integer literal.
type IntLit struct {
	typed
	P     ctoken.Pos
	Text  string
	Value int64
}

// FloatLit is a floating literal.
type FloatLit struct {
	typed
	P     ctoken.Pos
	Text  string
	Value float64
}

// CharLit is a character literal.
type CharLit struct {
	typed
	P     ctoken.Pos
	Text  string
	Value int64
}

// StringLit is a string literal.
type StringLit struct {
	typed
	P     ctoken.Pos
	Text  string // raw, with quotes
	Value string // decoded
}

// UnaryOp enumerates unary operators.
type UnaryOp int

// Unary operators.
const (
	Neg     UnaryOp = iota // -
	Pos                    // +
	LogNot                 // !
	BitNot                 // ~
	Deref                  // *
	AddrOf                 // &
	PreInc                 // ++x
	PreDec                 // --x
	PostInc                // x++
	PostDec                // x--
)

var unaryNames = map[UnaryOp]string{
	Neg: "-", Pos: "+", LogNot: "!", BitNot: "~", Deref: "*", AddrOf: "&",
	PreInc: "++", PreDec: "--", PostInc: "++", PostDec: "--",
}

// String returns the operator spelling.
func (op UnaryOp) String() string { return unaryNames[op] }

// Unary applies a unary operator.
type Unary struct {
	typed
	P  ctoken.Pos
	Op UnaryOp
	X  Expr
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	Mul BinaryOp = iota
	Div
	Mod
	Add
	Sub
	ShlOp
	ShrOp
	LtOp
	GtOp
	LeOp
	GeOp
	EqOp
	NeOp
	BitAnd
	BitXor
	BitOr
	LogAnd
	LogOr
)

var binaryNames = map[BinaryOp]string{
	Mul: "*", Div: "/", Mod: "%", Add: "+", Sub: "-", ShlOp: "<<", ShrOp: ">>",
	LtOp: "<", GtOp: ">", LeOp: "<=", GeOp: ">=", EqOp: "==", NeOp: "!=",
	BitAnd: "&", BitXor: "^", BitOr: "|", LogAnd: "&&", LogOr: "||",
}

// String returns the operator spelling.
func (op BinaryOp) String() string { return binaryNames[op] }

// IsComparison reports whether op is a relational or equality operator.
func (op BinaryOp) IsComparison() bool { return op >= LtOp && op <= NeOp }

// Binary applies a binary operator.
type Binary struct {
	typed
	P  ctoken.Pos
	Op BinaryOp
	X  Expr
	Y  Expr
}

// Assign is an assignment (Op is the compound operator, or AssignEq).
type Assign struct {
	typed
	P   ctoken.Pos
	Op  AssignOp
	LHS Expr
	RHS Expr
}

// AssignOp enumerates assignment operators.
type AssignOp int

// Assignment operators.
const (
	AssignEq AssignOp = iota // =
	AssignMul
	AssignDiv
	AssignMod
	AssignAdd
	AssignSub
	AssignShl
	AssignShr
	AssignAnd
	AssignXor
	AssignOr
)

var assignNames = map[AssignOp]string{
	AssignEq: "=", AssignMul: "*=", AssignDiv: "/=", AssignMod: "%=",
	AssignAdd: "+=", AssignSub: "-=", AssignShl: "<<=", AssignShr: ">>=",
	AssignAnd: "&=", AssignXor: "^=", AssignOr: "|=",
}

// String returns the operator spelling.
func (op AssignOp) String() string { return assignNames[op] }

// Cond is the ternary conditional c ? a : b.
type Cond struct {
	typed
	P    ctoken.Pos
	C    Expr
	Then Expr
	Else Expr
}

// Call is a function call.
type Call struct {
	typed
	P    ctoken.Pos
	Fun  Expr
	Args []Expr
}

// FunName returns the called function's name for direct calls, else "".
func (c *Call) FunName() string {
	if id, ok := c.Fun.(*Ident); ok {
		return id.Name
	}
	return ""
}

// Index is array indexing x[i].
type Index struct {
	typed
	P   ctoken.Pos
	X   Expr
	Idx Expr
}

// FieldSel is member selection x.f or x->f.
type FieldSel struct {
	typed
	P     ctoken.Pos
	X     Expr
	Name  string
	Arrow bool // -> rather than .
}

// Cast is an explicit type conversion.
type Cast struct {
	typed
	P  ctoken.Pos
	To *ctypes.Type
	X  Expr
}

// SizeofExpr is sizeof applied to an expression.
type SizeofExpr struct {
	typed
	P ctoken.Pos
	X Expr
}

// SizeofType is sizeof applied to a type name.
type SizeofType struct {
	typed
	P  ctoken.Pos
	Of *ctypes.Type
}

// Comma is the comma operator.
type Comma struct {
	typed
	P ctoken.Pos
	X Expr
	Y Expr
}

// InitList is a braced initializer { e1, e2, ... }.
type InitList struct {
	typed
	P     ctoken.Pos
	Elems []Expr
}

// Pos implementations and sealed-interface markers.
func (e *Ident) Pos() ctoken.Pos      { return e.P }
func (e *IntLit) Pos() ctoken.Pos     { return e.P }
func (e *FloatLit) Pos() ctoken.Pos   { return e.P }
func (e *CharLit) Pos() ctoken.Pos    { return e.P }
func (e *StringLit) Pos() ctoken.Pos  { return e.P }
func (e *Unary) Pos() ctoken.Pos      { return e.P }
func (e *Binary) Pos() ctoken.Pos     { return e.P }
func (e *Assign) Pos() ctoken.Pos     { return e.P }
func (e *Cond) Pos() ctoken.Pos       { return e.P }
func (e *Call) Pos() ctoken.Pos       { return e.P }
func (e *Index) Pos() ctoken.Pos      { return e.P }
func (e *FieldSel) Pos() ctoken.Pos   { return e.P }
func (e *Cast) Pos() ctoken.Pos       { return e.P }
func (e *SizeofExpr) Pos() ctoken.Pos { return e.P }
func (e *SizeofType) Pos() ctoken.Pos { return e.P }
func (e *Comma) Pos() ctoken.Pos      { return e.P }
func (e *InitList) Pos() ctoken.Pos   { return e.P }

func (*Ident) exprNode()      {}
func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*CharLit) exprNode()    {}
func (*StringLit) exprNode()  {}
func (*Unary) exprNode()      {}
func (*Binary) exprNode()     {}
func (*Assign) exprNode()     {}
func (*Cond) exprNode()       {}
func (*Call) exprNode()       {}
func (*Index) exprNode()      {}
func (*FieldSel) exprNode()   {}
func (*Cast) exprNode()       {}
func (*SizeofExpr) exprNode() {}
func (*SizeofType) exprNode() {}
func (*Comma) exprNode()      {}
func (*InitList) exprNode()   {}

// IsNullConstant reports whether e is a null pointer constant: the literal
// 0, possibly cast to a pointer type (covering the conventional NULL macro
// expansion (void*)0).
func IsNullConstant(e Expr) bool {
	switch v := e.(type) {
	case *IntLit:
		return v.Value == 0
	case *Cast:
		return v.To.IsPointerLike() && IsNullConstant(v.X)
	}
	return false
}
