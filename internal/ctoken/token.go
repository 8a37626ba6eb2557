// Package ctoken defines the lexical tokens of the C subset understood by
// golclint, along with source positions and the scanner that produces them.
//
// Annotation comments (/*@...@*/) are first-class tokens: unlike ordinary
// comments, they are surfaced to the parser so annotations can qualify
// declarations exactly as described in the paper (Evans, PLDI '96, §4).
package ctoken

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Punctuation kinds are named after their spelling.
const (
	EOF Kind = iota
	Ident
	IntLit
	FloatLit
	CharLit
	StringLit

	// Annot is an annotation comment /*@text@*/. The token's Text holds the
	// trimmed interior (e.g. "null", "only", "ignore", "end", "i").
	Annot

	// Keywords.
	KwAuto
	KwBreak
	KwCase
	KwChar
	KwConst
	KwContinue
	KwDefault
	KwDo
	KwDouble
	KwElse
	KwEnum
	KwExtern
	KwFloat
	KwFor
	KwGoto
	KwIf
	KwInt
	KwLong
	KwRegister
	KwReturn
	KwShort
	KwSigned
	KwSizeof
	KwStatic
	KwStruct
	KwSwitch
	KwTypedef
	KwUnion
	KwUnsigned
	KwVoid
	KwVolatile
	KwWhile

	// Punctuation and operators.
	LParen   // (
	RParen   // )
	LBrace   // {
	RBrace   // }
	LBracket // [
	RBracket // ]
	Semi     // ;
	Comma    // ,
	Dot      // .
	Arrow    // ->
	Inc      // ++
	Dec      // --
	Amp      // &
	Star     // *
	Plus     // +
	Minus    // -
	Tilde    // ~
	Not      // !
	Slash    // /
	Percent  // %
	Shl      // <<
	Shr      // >>
	Lt       // <
	Gt       // >
	Le       // <=
	Ge       // >=
	EqEq     // ==
	NotEq    // !=
	Caret    // ^
	Pipe     // |
	AndAnd   // &&
	OrOr     // ||
	Question // ?
	Colon    // :
	Assign   // =
	MulEq    // *=
	DivEq    // /=
	ModEq    // %=
	AddEq    // +=
	SubEq    // -=
	ShlEq    // <<=
	ShrEq    // >>=
	AndEq    // &=
	XorEq    // ^=
	OrEq     // |=
	Ellipsis // ...

	// NumKinds is the number of token kinds: tables indexed by Kind
	// (such as the parser's operator tables) have this length.
	NumKinds
)

var kindNames = map[Kind]string{
	EOF:       "EOF",
	Ident:     "identifier",
	IntLit:    "integer literal",
	FloatLit:  "float literal",
	CharLit:   "character literal",
	StringLit: "string literal",
	Annot:     "annotation",
	KwAuto:    "auto", KwBreak: "break", KwCase: "case", KwChar: "char",
	KwConst: "const", KwContinue: "continue", KwDefault: "default", KwDo: "do",
	KwDouble: "double", KwElse: "else", KwEnum: "enum", KwExtern: "extern",
	KwFloat: "float", KwFor: "for", KwGoto: "goto", KwIf: "if", KwInt: "int",
	KwLong: "long", KwRegister: "register", KwReturn: "return", KwShort: "short",
	KwSigned: "signed", KwSizeof: "sizeof", KwStatic: "static",
	KwStruct: "struct", KwSwitch: "switch", KwTypedef: "typedef",
	KwUnion: "union", KwUnsigned: "unsigned", KwVoid: "void",
	KwVolatile: "volatile", KwWhile: "while",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}",
	LBracket: "[", RBracket: "]", Semi: ";", Comma: ",", Dot: ".",
	Arrow: "->", Inc: "++", Dec: "--", Amp: "&", Star: "*", Plus: "+",
	Minus: "-", Tilde: "~", Not: "!", Slash: "/", Percent: "%",
	Shl: "<<", Shr: ">>", Lt: "<", Gt: ">", Le: "<=", Ge: ">=",
	EqEq: "==", NotEq: "!=", Caret: "^", Pipe: "|", AndAnd: "&&", OrOr: "||",
	Question: "?", Colon: ":", Assign: "=",
	MulEq: "*=", DivEq: "/=", ModEq: "%=", AddEq: "+=", SubEq: "-=",
	ShlEq: "<<=", ShrEq: ">>=", AndEq: "&=", XorEq: "^=", OrEq: "|=",
	Ellipsis: "...",
}

// String returns a human-readable name for the kind (the spelling, for
// keywords and punctuation).
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsKeyword reports whether k is a C keyword token.
func (k Kind) IsKeyword() bool { return k >= KwAuto && k <= KwWhile }

// IsAssignOp reports whether k is an assignment operator (=, +=, ...).
func (k Kind) IsAssignOp() bool { return k == Assign || (k >= MulEq && k <= OrEq) }

// Keywords maps keyword spellings to their token kinds.
var Keywords = map[string]Kind{
	"auto": KwAuto, "break": KwBreak, "case": KwCase, "char": KwChar,
	"const": KwConst, "continue": KwContinue, "default": KwDefault,
	"do": KwDo, "double": KwDouble, "else": KwElse, "enum": KwEnum,
	"extern": KwExtern, "float": KwFloat, "for": KwFor, "goto": KwGoto,
	"if": KwIf, "int": KwInt, "long": KwLong, "register": KwRegister,
	"return": KwReturn, "short": KwShort, "signed": KwSigned,
	"sizeof": KwSizeof, "static": KwStatic, "struct": KwStruct,
	"switch": KwSwitch, "typedef": KwTypedef, "union": KwUnion,
	"unsigned": KwUnsigned, "void": KwVoid, "volatile": KwVolatile,
	"while": KwWhile,
}

// Pos is a source position: file name, 1-based line and column, and the
// 0-based byte offset into the (preprocessed) source.
type Pos struct {
	File string
	Line int
	Col  int
	Off  int
}

// String formats the position as file:line (the style used in the paper's
// messages, e.g. "sample.c:5").
func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("line %d", p.Line)
	}
	return fmt.Sprintf("%s:%d", p.File, p.Line)
}

// IsValid reports whether the position carries real location information.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Before reports whether p occurs strictly before q in the same file.
func (p Pos) Before(q Pos) bool {
	if p.File != q.File {
		return p.File < q.File
	}
	if p.Line != q.Line {
		return p.Line < q.Line
	}
	return p.Col < q.Col
}

// Token is a single lexical token.
type Token struct {
	Kind Kind
	Text string // raw spelling for Ident/literals; interior text for Annot
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case Ident, IntLit, FloatLit, CharLit, StringLit:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	case Annot:
		return fmt.Sprintf("/*@%s@*/", t.Text)
	default:
		return t.Kind.String()
	}
}
