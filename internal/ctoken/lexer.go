package ctoken

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// A LexError describes a lexical error at a source position.
type LexError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *LexError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans C source text into tokens. It recognizes annotation comments
// (/*@...@*/) as tokens and skips ordinary comments and whitespace. The
// input is expected to already be preprocessed (see internal/cpp); however,
// the lexer tolerates preprocessor line markers of the form
//
//	# <line> "<file>"
//
// which the preprocessor emits to preserve original source positions.
//
// The scanner is a byte cursor over an immutable string: token text is
// zero-copy (a slice of the source, or a canonical atom when an Interner
// is installed), Peek buffers by value, and no token allocates on its own.
type Lexer struct {
	src       string
	file      FileID // current logical file (updated by line markers)
	off       int
	line      int
	col       int
	errs      []*LexError
	peeked    Token
	hasPeeked bool
	in        InternTable // optional; canonicalizes identifier/keyword atoms
}

// MaxSourceLen is the longest source a Lexer accepts: every offset, line
// and column of a Pos must fit in an int32.
const MaxSourceLen = math.MaxInt32

// checkSourceLen rejects a source of n bytes if it is longer than
// MaxSourceLen.
func checkSourceLen(n int) error {
	if n > MaxSourceLen {
		return fmt.Errorf("preprocessed source is %d bytes, longer than the %d-byte limit", n, MaxSourceLen)
	}
	return nil
}

// NewLexer returns a lexer over src, reporting positions against file. A
// src longer than MaxSourceLen is not scanned: the lexer reports the
// bound as its one error and yields only EOF.
func NewLexer(file, src string) *Lexer {
	lx := &Lexer{src: src, line: 1, col: 1}
	lx.start(file)
	return lx
}

// start interns file and refuses a src longer than MaxSourceLen. It is
// split from NewLexer so that NewLexer stays inlinable: a caller's Lexer
// then lives on its stack instead of being allocated per file.
func (lx *Lexer) start(file string) {
	lx.file = FileOf(file)
	if err := checkSourceLen(len(lx.src)); err != nil {
		lx.src = ""
		lx.errs = append(lx.errs, &LexError{Pos: lx.pos(), Msg: err.Error()})
	}
}

// SetInterner installs an identifier intern table: identifier and keyword
// tokens then carry canonical atom strings shared across every lexer using
// the same table. Call before scanning begins.
func (lx *Lexer) SetInterner(in InternTable) { lx.in = in }

// Errors returns the lexical errors encountered so far.
func (lx *Lexer) Errors() []*LexError { return lx.errs }

func (lx *Lexer) errorf(p Pos, format string, args ...interface{}) {
	lx.errs = append(lx.errs, &LexError{Pos: p, Msg: fmt.Sprintf(format, args...)})
}

func (lx *Lexer) pos() Pos {
	return Pos{File: lx.file, Line: int32(lx.line), Col: int32(lx.col), Off: int32(lx.off)}
}

func (lx *Lexer) cur() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) at(i int) byte {
	if lx.off+i >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+i]
}

func (lx *Lexer) advance() {
	if lx.off >= len(lx.src) {
		return
	}
	if lx.src[lx.off] == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	lx.off++
}

// bump advances the cursor n bytes over a span known to contain no
// newlines, updating the column in one step instead of per byte.
func (lx *Lexer) bump(n int) {
	lx.off += n
	lx.col += n
}

func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isHex(c byte) bool    { return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') }
func isLetter(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isIdent(c byte) bool  { return isLetter(c) || isDigit(c) }
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}

// skipBlanks consumes whitespace, ordinary comments, and line markers.
func (lx *Lexer) skipBlanks() {
	for {
		c := lx.cur()
		switch {
		case c == 0:
			return
		case isSpace(c):
			lx.skipSpaces()
		case c == '/' && lx.at(1) == '/':
			for lx.cur() != 0 && lx.cur() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.at(1) == '*' && lx.at(2) != '@':
			p := lx.pos()
			lx.bump(2)
			closed := false
			for lx.cur() != 0 {
				if lx.cur() == '*' && lx.at(1) == '/' {
					lx.bump(2)
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				lx.errorf(p, "unterminated comment")
			}
		case c == '#' && lx.col == 1:
			lx.lineMarker()
		default:
			return
		}
	}
}

// skipSpaces consumes a run of whitespace, keeping the cursor, line and
// column in locals until the run ends.
func (lx *Lexer) skipSpaces() {
	off, line, col := lx.off, lx.line, lx.col
scan:
	for ; off < len(lx.src); off++ {
		switch lx.src[off] {
		case '\n':
			line++
			col = 1
		case ' ', '\t', '\r', '\v', '\f':
			col++
		default:
			break scan
		}
	}
	lx.off, lx.line, lx.col = off, line, col
}

// lineMarker parses "# <line> \"file\"" directives (and skips any other
// residual preprocessor line, reporting it as an error). The marker is
// hand-parsed — the markers are machine-generated by internal/cpp, so the
// fast path never needs fmt's reflection-based scanning.
func (lx *Lexer) lineMarker() {
	p := lx.pos()
	start := lx.off
	for lx.cur() != 0 && lx.cur() != '\n' {
		lx.advance()
	}
	text := lx.src[start:lx.off]
	if ln, f, ok := parseLineMarker(text); ok {
		// Positions restart at the marked line of the named file. The
		// newline following the marker advances to exactly line ln.
		if lx.cur() == '\n' {
			lx.advance()
		}
		lx.line = ln
		lx.col = 1
		lx.file = FileOf(f)
		return
	}
	lx.errorf(p, "unexpected preprocessor directive %q (input not preprocessed?)", strings.TrimSpace(text))
}

// parseLineMarker decodes `# <line> "<file>"` (the format fmt.Sscanf
// previously matched with "# %d %q"). The file name is zero-copy unless the
// quoted form contains escapes.
func parseLineMarker(text string) (line int, file string, ok bool) {
	i := 0
	skip := func() {
		for i < len(text) && (text[i] == ' ' || text[i] == '\t') {
			i++
		}
	}
	if i >= len(text) || text[i] != '#' {
		return 0, "", false
	}
	i++
	skip()
	neg := false
	if i < len(text) && text[i] == '-' {
		neg = true
		i++
	}
	d := i
	n := 0
	for i < len(text) && isDigit(text[i]) {
		n = n*10 + int(text[i]-'0')
		if n > math.MaxInt32 {
			return 0, "", false // no Pos can hold the line
		}
		i++
	}
	if i == d {
		return 0, "", false
	}
	if neg {
		n = -n
	}
	skip()
	if i >= len(text) || text[i] != '"' {
		return 0, "", false
	}
	j := i + 1
	escaped := false
	for j < len(text) && text[j] != '"' {
		if text[j] == '\\' {
			escaped = true
			j++
			if j >= len(text) {
				return 0, "", false
			}
		}
		j++
	}
	if j >= len(text) {
		return 0, "", false
	}
	if !escaped {
		return n, text[i+1 : j], true
	}
	f, err := strconv.Unquote(text[i : j+1])
	if err != nil {
		return 0, "", false
	}
	return n, f, true
}

// Next returns the next token, consuming it.
func (lx *Lexer) Next() Token {
	if lx.hasPeeked {
		lx.hasPeeked = false
		return lx.peeked
	}
	var t Token
	lx.scan(&t)
	return t
}

// Peek returns the next token without consuming it.
func (lx *Lexer) Peek() Token {
	if !lx.hasPeeked {
		lx.scan(&lx.peeked)
		lx.hasPeeked = true
	}
	return lx.peeked
}

// All scans the remaining input and returns every token up to and including
// the terminating EOF token.
func (lx *Lexer) All() []Token {
	return lx.AllInto(nil)
}

// AllInto is All appending into buf (reusing its capacity), so a caller
// lexing many files — the parse worker's Session — amortizes the token
// slice across all of them. Each token is scanned straight into its slot
// of buf: no Token is built elsewhere and copied in.
func (lx *Lexer) AllInto(buf []Token) []Token {
	if lx.hasPeeked {
		lx.hasPeeked = false
		buf = append(buf, lx.peeked)
		if lx.peeked.Kind == EOF {
			return buf
		}
	}
	for {
		buf = slices.Grow(buf, 1)
		buf = buf[:len(buf)+1]
		t := &buf[len(buf)-1]
		lx.scan(t)
		if t.Kind == EOF {
			return buf
		}
	}
}

// scan scans the next token into t, overwriting every field (t may be a
// reused buffer slot holding a stale token).
func (lx *Lexer) scan(t *Token) {
	for {
		lx.skipBlanks()
		t.Pos = lx.pos()
		c := lx.cur()
		switch {
		case c == 0:
			t.Kind, t.Text = EOF, ""
		case c == '/' && lx.at(1) == '*' && lx.at(2) == '@':
			lx.scanAnnot(t)
		case isLetter(c):
			start := lx.off
			off := lx.off
			for off < len(lx.src) && isIdent(lx.src[off]) {
				off++
			}
			lx.bump(off - start)
			text := lx.src[start:off]
			if lx.in != nil {
				t.Text, t.Kind = lx.in.Intern(text)
			} else if kw, ok := Keywords[text]; ok {
				t.Kind, t.Text = kw, text
			} else {
				t.Kind, t.Text = Ident, text
			}
		case isDigit(c) || (c == '.' && isDigit(lx.at(1))):
			lx.scanNumber(t)
		case c == '\'':
			lx.scanQuoted(t, CharLit, '\'', "character")
		case c == '"':
			lx.scanQuoted(t, StringLit, '"', "string")
		default:
			if !lx.scanPunct(t) {
				continue // unexpected byte: reported and skipped
			}
		}
		return
	}
}

// scanAnnot scans an annotation comment /*@ ... @*/. Its Text is the interior
// with surrounding whitespace trimmed. Both "/*@null@*/" and the multi-word
// form "/*@ null out only @*/" are accepted; the parser splits words.
func (lx *Lexer) scanAnnot(t *Token) {
	t.Kind = Annot
	lx.bump(3) // consume /*@
	start := lx.off
	for {
		c := lx.cur()
		if c == 0 {
			lx.errorf(t.Pos, "unterminated annotation comment")
			t.Text = strings.TrimSpace(lx.src[start:lx.off])
			return
		}
		// Terminators: "@*/" (canonical) or "*/" (tolerated, as LCLint does).
		if c == '@' && lx.at(1) == '*' && lx.at(2) == '/' {
			t.Text = strings.TrimSpace(lx.src[start:lx.off])
			lx.bump(3)
			return
		}
		if c == '*' && lx.at(1) == '/' {
			t.Text = strings.TrimSpace(lx.src[start:lx.off])
			lx.bump(2)
			return
		}
		lx.advance()
	}
}

func (lx *Lexer) scanNumber(t *Token) {
	start := lx.off
	isFloat := false
	// Digits, dots, exponents, and suffixes never contain newlines, so the
	// whole literal advances on the byte cursor and bumps the column once.
	off := lx.off
	src := lx.src
	if src[off] == '0' && off+1 < len(src) && (src[off+1] == 'x' || src[off+1] == 'X') {
		off += 2
		for off < len(src) && isHex(src[off]) {
			off++
		}
	} else {
		for off < len(src) && isDigit(src[off]) {
			off++
		}
		if off < len(src) && src[off] == '.' {
			isFloat = true
			off++
			for off < len(src) && isDigit(src[off]) {
				off++
			}
		}
		if off < len(src) && (src[off] == 'e' || src[off] == 'E') {
			next := byte(0)
			if off+1 < len(src) {
				next = src[off+1]
			}
			nnext := byte(0)
			if off+2 < len(src) {
				nnext = src[off+2]
			}
			if isDigit(next) || ((next == '+' || next == '-') && isDigit(nnext)) {
				isFloat = true
				off++
				if src[off] == '+' || src[off] == '-' {
					off++
				}
				for off < len(src) && isDigit(src[off]) {
					off++
				}
			}
		}
	}
	// Suffixes: u, l, f (any order/case, as in C).
	for off < len(src) {
		c := src[off]
		if c == 'u' || c == 'U' || c == 'l' || c == 'L' {
			off++
			continue
		}
		if (c == 'f' || c == 'F') && isFloat {
			off++
			continue
		}
		break
	}
	lx.bump(off - start)
	t.Kind = IntLit
	if isFloat {
		t.Kind = FloatLit
	}
	t.Text = src[start:off]
}

func (lx *Lexer) scanEscape(p Pos) {
	lx.advance() // backslash
	c := lx.cur()
	switch c {
	case 'n', 't', 'r', '0', '\\', '\'', '"', 'a', 'b', 'f', 'v', '?':
		lx.advance()
	case 'x':
		lx.advance()
		for isHex(lx.cur()) {
			lx.advance()
		}
	default:
		if isDigit(c) {
			for isDigit(lx.cur()) {
				lx.advance()
			}
		} else {
			lx.errorf(p, "unknown escape sequence \\%c", c)
			lx.advance()
		}
	}
}

// scanQuoted scans a character (quote ') or string (quote ") literal,
// keeping the raw spelling, quotes and escapes included, as its Text.
func (lx *Lexer) scanQuoted(t *Token, kind Kind, quote byte, what string) {
	t.Kind = kind
	start := lx.off
	lx.advance() // opening quote
	for lx.cur() != quote {
		if lx.cur() == 0 || lx.cur() == '\n' {
			lx.errorf(t.Pos, "unterminated %s literal", what)
			t.Text = lx.src[start:lx.off]
			return
		}
		if lx.cur() == '\\' {
			lx.scanEscape(t.Pos)
		} else {
			lx.advance()
		}
	}
	lx.advance() // closing quote
	t.Text = lx.src[start:lx.off]
}

// scanPunct classifies operators with a switch on the leading byte and at
// most two lookaheads — no map probes, no per-token substrings. An
// unexpected byte is reported and skipped, and scanPunct returns false
// without setting t.
func (lx *Lexer) scanPunct(t *Token) bool {
	c := lx.cur()
	var k Kind
	n := 1
	switch c {
	case '(':
		k = LParen
	case ')':
		k = RParen
	case '{':
		k = LBrace
	case '}':
		k = RBrace
	case '[':
		k = LBracket
	case ']':
		k = RBracket
	case ';':
		k = Semi
	case ',':
		k = Comma
	case '~':
		k = Tilde
	case '?':
		k = Question
	case ':':
		k = Colon
	case '.':
		if lx.at(1) == '.' && lx.at(2) == '.' {
			k, n = Ellipsis, 3
		} else {
			k = Dot
		}
	case '-':
		switch lx.at(1) {
		case '>':
			k, n = Arrow, 2
		case '-':
			k, n = Dec, 2
		case '=':
			k, n = SubEq, 2
		default:
			k = Minus
		}
	case '+':
		switch lx.at(1) {
		case '+':
			k, n = Inc, 2
		case '=':
			k, n = AddEq, 2
		default:
			k = Plus
		}
	case '&':
		switch lx.at(1) {
		case '&':
			k, n = AndAnd, 2
		case '=':
			k, n = AndEq, 2
		default:
			k = Amp
		}
	case '|':
		switch lx.at(1) {
		case '|':
			k, n = OrOr, 2
		case '=':
			k, n = OrEq, 2
		default:
			k = Pipe
		}
	case '*':
		if lx.at(1) == '=' {
			k, n = MulEq, 2
		} else {
			k = Star
		}
	case '/':
		if lx.at(1) == '=' {
			k, n = DivEq, 2
		} else {
			k = Slash
		}
	case '%':
		if lx.at(1) == '=' {
			k, n = ModEq, 2
		} else {
			k = Percent
		}
	case '^':
		if lx.at(1) == '=' {
			k, n = XorEq, 2
		} else {
			k = Caret
		}
	case '!':
		if lx.at(1) == '=' {
			k, n = NotEq, 2
		} else {
			k = Not
		}
	case '=':
		if lx.at(1) == '=' {
			k, n = EqEq, 2
		} else {
			k = Assign
		}
	case '<':
		switch lx.at(1) {
		case '<':
			if lx.at(2) == '=' {
				k, n = ShlEq, 3
			} else {
				k, n = Shl, 2
			}
		case '=':
			k, n = Le, 2
		default:
			k = Lt
		}
	case '>':
		switch lx.at(1) {
		case '>':
			if lx.at(2) == '=' {
				k, n = ShrEq, 3
			} else {
				k, n = Shr, 2
			}
		case '=':
			k, n = Ge, 2
		default:
			k = Gt
		}
	default:
		lx.errorf(t.Pos, "unexpected character %q", string(rune(c)))
		lx.advance()
		return false
	}
	lx.bump(n)
	t.Kind, t.Text = k, ""
	return true
}
