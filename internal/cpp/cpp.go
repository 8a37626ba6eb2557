// Package cpp implements a miniature C preprocessor sufficient for the
// programs the checker consumes: #include "file", object- and function-like
// #define with recursive expansion, #undef, #ifdef/#ifndef/#if/#elif/#else/
// #endif with a small constant-expression evaluator, and backslash line
// continuations. Output is plain C text carrying "# <line> \"<file>\""
// markers so downstream positions refer to the original sources.
//
// The real LCLint used the system preprocessor; this one exists so the
// reproduction is self-contained (DESIGN.md, substitutions table).
//
// A Preprocessor is built for reuse across the files of one run: expansion
// appends into a reusable byte buffer (one string copy per file, at the
// end), predefined macros live in a shared immutable BaseDefines layer
// consulted beneath the per-file overlay, and Reset rewinds the overlay so
// one Preprocessor per worker serves every file that worker touches.
package cpp

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Includer resolves #include "name" to file contents.
type Includer interface {
	// Include returns the contents of the named file, or an error. A file
	// that simply does not exist should be reported as a *NotFoundError so
	// layered includers can distinguish "try the next layer" from real I/O
	// failures (see IsNotFound).
	Include(name string) (string, error)
}

// NotFoundError reports that an includer has no file by the given name.
type NotFoundError struct {
	Name string
}

// Error implements the error interface.
func (e *NotFoundError) Error() string { return fmt.Sprintf("include file %q not found", e.Name) }

// IsNotFound reports whether err is (or wraps) a NotFoundError.
func IsNotFound(err error) bool {
	var nf *NotFoundError
	return errors.As(err, &nf)
}

// MapIncluder resolves includes from an in-memory map.
type MapIncluder map[string]string

// Include implements Includer.
func (m MapIncluder) Include(name string) (string, error) {
	if s, ok := m[name]; ok {
		return s, nil
	}
	return "", &NotFoundError{Name: name}
}

// Error is a preprocessing error with its source location.
type Error struct {
	File string
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg) }

// Macro is a preprocessor macro definition.
type Macro struct {
	Name     string
	Params   []string // nil for object-like macros
	IsFunc   bool
	Body     string
	Variadic bool
}

// BaseDefines is an immutable table of predefined object-like macros,
// built once per run and shared (read-only, so safely concurrently) by
// every Preprocessor in that run. It replaces re-installing the same
// predefinitions from scratch for each file.
type BaseDefines struct {
	macros map[string]*Macro
	names  nameFilter
}

// NewBaseDefines builds a shared base layer from name -> body pairs.
func NewBaseDefines(defs map[string]string) *BaseDefines {
	b := &BaseDefines{macros: make(map[string]*Macro, len(defs))}
	for k, v := range defs {
		b.macros[k] = &Macro{Name: k, Body: v}
		b.names.add(k)
	}
	return b
}

// nameFilter is a 64-bit set over the first bytes of macro names, folded
// modulo 64. It is conservative: a name whose first byte is absent was
// never defined, while a present bit only means "look in the maps". Most
// identifiers in C source are not macros, and the filter lets them skip
// both map lookups. It is only ever added to — #undef leaves it alone,
// since a stale bit costs only a lookup — and Reset restores the base
// layer's set.
type nameFilter uint64

func (f *nameFilter) add(name string) {
	if name != "" {
		*f |= 1 << (name[0] & 63)
	}
}

func (f nameFilter) mayHave(name string) bool {
	return name != "" && f&(1<<(name[0]&63)) != 0
}

// Preprocessor holds macro state across files. Macro definitions from
// directives land in a per-run overlay consulted before the shared base
// layer; #undef writes a nil tombstone so a base macro can be undefined
// without mutating the shared table.
type Preprocessor struct {
	inc    Includer
	base   *BaseDefines      // shared immutable layer; may be nil
	macros map[string]*Macro // overlay; nil value = #undef tombstone
	errs   []*Error
	depth  int

	buf   []byte          // reusable expansion output buffer
	busy  map[string]bool // reusable recursion guard (empty between lines)
	names nameFilter      // every name defined since Reset, base layer included
}

// maxIncludeDepth bounds nested/recursive inclusion.
const maxIncludeDepth = 40

// New returns a Preprocessor using inc to resolve #include directives.
// A nil inc rejects all includes.
func New(inc Includer) *Preprocessor {
	return NewShared(inc, nil)
}

// NewShared is New with a shared immutable base-define layer underneath
// the per-run macro table.
func NewShared(inc Includer, base *BaseDefines) *Preprocessor {
	pp := &Preprocessor{inc: inc, base: base, macros: map[string]*Macro{}}
	pp.Reset()
	return pp
}

// Reset clears per-file state — overlay macro definitions, errors, include
// depth — while keeping the shared base layer and the reusable buffers, so
// one Preprocessor serves many files in sequence.
func (pp *Preprocessor) Reset() {
	clear(pp.macros)
	pp.errs = nil
	pp.depth = 0
	pp.names = 0
	if pp.base != nil {
		pp.names = pp.base.names
	}
}

// lookup resolves a macro name through the overlay, then the base layer.
// A tombstoned (#undef) name resolves to nil even when the base defines it.
func (pp *Preprocessor) lookup(name string) *Macro {
	if !pp.names.mayHave(name) {
		return nil
	}
	if m, ok := pp.macros[name]; ok {
		return m
	}
	if pp.base != nil {
		return pp.base.macros[name]
	}
	return nil
}

// Define installs an object-like macro (e.g. predefining NULL).
func (pp *Preprocessor) Define(name, body string) {
	pp.setMacro(&Macro{Name: name, Body: body})
}

// DefineFunc installs a function-like macro.
func (pp *Preprocessor) DefineFunc(name string, params []string, body string) {
	pp.setMacro(&Macro{Name: name, Params: params, IsFunc: true, Body: body})
}

// setMacro installs m in the overlay; every definition goes through here
// so the name filter sees it.
func (pp *Preprocessor) setMacro(m *Macro) {
	pp.macros[m.Name] = m
	pp.names.add(m.Name)
}

// IsDefined reports whether the named macro is currently defined.
func (pp *Preprocessor) IsDefined(name string) bool {
	return pp.lookup(name) != nil
}

// Macros returns the names of all currently defined macros, sorted.
func (pp *Preprocessor) Macros() []string {
	seen := map[string]bool{}
	if pp.base != nil {
		for n := range pp.base.macros {
			seen[n] = true
		}
	}
	for n, m := range pp.macros {
		if m == nil {
			delete(seen, n)
		} else {
			seen[n] = true
		}
	}
	ns := make([]string, 0, len(seen))
	for n := range seen {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// Errors returns the accumulated preprocessing errors.
func (pp *Preprocessor) Errors() []*Error { return pp.errs }

func (pp *Preprocessor) errorf(file string, line int, format string, args ...interface{}) {
	pp.errs = append(pp.errs, &Error{File: file, Line: line, Msg: fmt.Sprintf(format, args...)})
}

// condState tracks one level of conditional inclusion.
type condState struct {
	active     bool // this branch is being emitted
	everActive bool // some earlier branch of this #if chain was emitted
	parentLive bool // the enclosing context is being emitted
	sawElse    bool
	startLine  int
}

// appendLineMarker writes "# <line> \"<file>\"\n" (byte-identical to the
// fmt.Fprintf("# %d %q\n", ...) form it replaces).
func appendLineMarker(b []byte, line int, file string) []byte {
	b = append(b, '#', ' ')
	b = strconv.AppendInt(b, int64(line), 10)
	b = append(b, ' ')
	b = strconv.AppendQuote(b, file)
	return append(b, '\n')
}

// Process preprocesses src (logical name file) and returns the expanded text
// with line markers. The expansion builds in the Preprocessor's reusable
// buffer, grown up front to the source's size plus slack so a fresh
// Preprocessor does not regrow it line by line; the returned string is
// the single copy made per file.
func (pp *Preprocessor) Process(file, src string) string {
	pp.buf = slices.Grow(pp.buf[:0], len(src)+len(src)/4+256)
	pp.buf = appendLineMarker(pp.buf, 1, file)
	pp.processInto(file, src)
	return string(pp.buf)
}

func (pp *Preprocessor) processInto(file, src string) {
	lines := lineCursor{src: src, line: 1}
	var conds []condState

	live := func() bool {
		for _, c := range conds {
			if !c.active {
				return false
			}
		}
		return true
	}

	if pp.busy == nil {
		pp.busy = map[string]bool{}
	}

	for {
		text, lineNo, extra, ok := lines.next()
		if !ok {
			break
		}
		trimmed := strings.TrimSpace(text)
		if strings.HasPrefix(trimmed, "#") {
			dir, rest := splitDirective(trimmed)
			switch dir {
			case "ifdef", "ifndef":
				// A missing name is an error, not a test of the empty name;
				// the conditional is still pushed, inactive, so #else and
				// #endif still pair with it.
				name := strings.TrimSpace(rest)
				val := false
				if name == "" {
					if live() {
						pp.errorf(file, lineNo, "#%s without macro name", dir)
					}
				} else {
					val = pp.IsDefined(name) == (dir == "ifdef")
				}
				conds = append(conds, condState{active: val && live(), everActive: val, parentLive: live(), startLine: lineNo})
			case "if":
				v, err := pp.evalCond(rest)
				if err != nil {
					pp.errorf(file, lineNo, "bad #if expression: %v", err)
					v = false
				}
				conds = append(conds, condState{active: v && live(), everActive: v, parentLive: live(), startLine: lineNo})
			case "elif":
				if len(conds) == 0 {
					pp.errorf(file, lineNo, "#elif without #if")
					break
				}
				c := &conds[len(conds)-1]
				if c.sawElse {
					pp.errorf(file, lineNo, "#elif after #else")
				}
				v, err := pp.evalCond(rest)
				if err != nil {
					pp.errorf(file, lineNo, "bad #elif expression: %v", err)
					v = false
				}
				c.active = v && !c.everActive && c.parentLive
				if v {
					c.everActive = true
				}
			case "else":
				if len(conds) == 0 {
					pp.errorf(file, lineNo, "#else without #if")
					break
				}
				c := &conds[len(conds)-1]
				if c.sawElse {
					pp.errorf(file, lineNo, "duplicate #else")
				}
				c.sawElse = true
				c.active = !c.everActive && c.parentLive
			case "endif":
				if len(conds) == 0 {
					pp.errorf(file, lineNo, "#endif without #if")
					break
				}
				conds = conds[:len(conds)-1]
			case "define":
				if live() {
					pp.define(file, lineNo, rest)
				}
			case "undef":
				if live() {
					// Tombstone, not delete: the name may be defined in the
					// shared base layer, which must stay untouched.
					pp.macros[strings.TrimSpace(rest)] = nil
				}
			case "include":
				if live() {
					pp.include(file, lineNo, rest)
				}
			case "pragma", "error", "line":
				// #pragma ignored; #error reported only when live.
				if dir == "error" && live() {
					pp.errorf(file, lineNo, "#error %s", strings.TrimSpace(rest))
				}
			default:
				if live() {
					pp.errorf(file, lineNo, "unknown directive #%s", dir)
				}
			}
			// Keep line numbering aligned (including joined continuations).
			for i := 0; i <= extra; i++ {
				pp.buf = append(pp.buf, '\n')
			}
			continue
		}
		if !live() {
			for i := 0; i <= extra; i++ {
				pp.buf = append(pp.buf, '\n')
			}
			continue
		}
		pp.expandInto(text, pp.busy, file, lineNo)
		pp.buf = append(pp.buf, '\n')
		// Logical lines that consumed continuations must re-pad so that
		// subsequent lines keep their original numbers.
		for i := 0; i < extra; i++ {
			pp.buf = append(pp.buf, '\n')
		}
	}
	for _, c := range conds {
		pp.errorf(file, c.startLine, "unterminated conditional (#if without #endif)")
	}
}

// lineCursor yields src's logical lines one at a time: physical lines
// with backslash continuations joined, so no per-file slice of lines is
// built. A line's text is a substring of src except when a continuation
// forces a join.
type lineCursor struct {
	src  string
	pos  int // offset of the next physical line; past len(src) once done
	line int // 1-based number of the physical line at pos
}

// next returns the next logical line's text, its original 1-based starting
// line, and how many physical lines it joined beyond the first. ok is false
// once src is exhausted. An empty src is one empty line, and a trailing
// newline does not start a phantom empty line after it.
func (c *lineCursor) next() (text string, line, extra int, ok bool) {
	if c.pos > len(c.src) || (c.pos == len(c.src) && c.pos > 0) {
		return "", 0, 0, false
	}
	line = c.line
	end := c.lineEnd(c.pos)
	text = c.src[c.pos:end]
	for strings.HasSuffix(text, "\\") && end < len(c.src) {
		nend := c.lineEnd(end + 1)
		text = text[:len(text)-1] + " " + c.src[end+1:nend]
		end = nend
		extra++
	}
	c.pos = end + 1
	c.line += extra + 1
	return text, line, extra, true
}

// lineEnd returns the offset of the first newline at or after i, or
// len(src) when there is none.
func (c *lineCursor) lineEnd(i int) int {
	if n := strings.IndexByte(c.src[i:], '\n'); n >= 0 {
		return i + n
	}
	return len(c.src)
}

func splitDirective(trimmed string) (dir, rest string) {
	s := strings.TrimSpace(trimmed[1:]) // after '#'
	i := 0
	for i < len(s) && (s[i] >= 'a' && s[i] <= 'z') {
		i++
	}
	return s[:i], s[i:]
}

func (pp *Preprocessor) define(file string, line int, rest string) {
	rest = strings.TrimLeft(rest, " \t")
	i := 0
	for i < len(rest) && isIdentChar(rest[i]) {
		i++
	}
	if i == 0 {
		pp.errorf(file, line, "#define missing name")
		return
	}
	name := rest[:i]
	if i < len(rest) && rest[i] == '(' {
		// Function-like: parse parameter list.
		j := strings.IndexByte(rest[i:], ')')
		if j < 0 {
			pp.errorf(file, line, "#define %s: unterminated parameter list", name)
			return
		}
		paramsText := rest[i+1 : i+j]
		body := strings.TrimSpace(rest[i+j+1:])
		var params []string
		variadic := false
		for _, p := range strings.Split(paramsText, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			if p == "..." {
				variadic = true
				continue
			}
			params = append(params, p)
		}
		pp.setMacro(&Macro{Name: name, Params: params, IsFunc: true, Body: body, Variadic: variadic})
		return
	}
	pp.setMacro(&Macro{Name: name, Body: strings.TrimSpace(rest[i:])})
}

func (pp *Preprocessor) include(file string, line int, rest string) {
	rest = strings.TrimSpace(rest)
	var name string
	switch {
	case strings.HasPrefix(rest, "\""):
		end := strings.IndexByte(rest[1:], '"')
		if end < 0 {
			pp.errorf(file, line, "bad #include syntax")
			return
		}
		name = rest[1 : 1+end]
	case strings.HasPrefix(rest, "<"):
		end := strings.IndexByte(rest, '>')
		if end < 0 {
			pp.errorf(file, line, "bad #include syntax")
			return
		}
		name = rest[1:end]
	default:
		pp.errorf(file, line, "bad #include syntax")
		return
	}
	if pp.inc == nil {
		pp.errorf(file, line, "includes not supported here (%q)", name)
		return
	}
	if pp.depth >= maxIncludeDepth {
		pp.errorf(file, line, "include depth exceeds %d (recursive include of %q?)", maxIncludeDepth, name)
		return
	}
	src, err := pp.inc.Include(name)
	if err != nil {
		pp.errorf(file, line, "%v", err)
		return
	}
	pp.depth++
	pp.buf = appendLineMarker(pp.buf, 1, name)
	pp.processInto(name, src)
	pp.depth--
	// Resume at the directive's own line: the caller emits the padding
	// newline for the #include line itself, which advances to line+1.
	pp.buf = appendLineMarker(pp.buf, line, file)
}

func isIdentChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// expand performs macro expansion on one logical line and returns the
// result as a string (used by the #if evaluator). The hot path is
// expandInto, which appends to the output buffer without intermediate
// strings; this wrapper borrows the tail of that buffer as scratch.
func (pp *Preprocessor) expand(text string, busy map[string]bool, file string, line int) string {
	save := len(pp.buf)
	pp.expandInto(text, busy, file, line)
	s := string(pp.buf[save:])
	pp.buf = pp.buf[:save]
	return s
}

// expandInto performs macro expansion on one logical line of ordinary
// text, appending to pp.buf. Non-macro spans copy in bulk; only macro
// invocations recurse. busy guards against recursive self-expansion.
func (pp *Preprocessor) expandInto(text string, busy map[string]bool, file string, line int) {
	i := 0
	for i < len(text) {
		c := text[i]
		switch {
		case c == '"' || c == '\'':
			j := skipLiteral(text, i)
			pp.buf = append(pp.buf, text[i:j]...)
			i = j
		case c == '/' && i+1 < len(text) && text[i+1] == '/':
			pp.buf = append(pp.buf, text[i:]...)
			i = len(text)
		case c == '/' && i+1 < len(text) && text[i+1] == '*':
			// Copy comment verbatim (annotations live in comments!).
			j := strings.Index(text[i+2:], "*/")
			if j < 0 {
				pp.buf = append(pp.buf, text[i:]...)
				i = len(text)
			} else {
				pp.buf = append(pp.buf, text[i:i+2+j+2]...)
				i += 2 + j + 2
			}
		case isIdentStart(c):
			j := i
			for j < len(text) && isIdentChar(text[j]) {
				j++
			}
			word := text[i:j]
			m := pp.lookup(word)
			if m == nil || busy[word] {
				pp.buf = append(pp.buf, word...)
				i = j
				break
			}
			if m.IsFunc {
				// Needs a following '(' to expand.
				k := j
				for k < len(text) && (text[k] == ' ' || text[k] == '\t') {
					k++
				}
				if k >= len(text) || text[k] != '(' {
					pp.buf = append(pp.buf, word...)
					i = j
					break
				}
				args, end, err := parseMacroArgs(text, k)
				if err != nil {
					pp.errorf(file, line, "macro %s: %v", word, err)
					pp.buf = append(pp.buf, word...)
					i = j
					break
				}
				if len(args) == 1 && args[0] == "" && len(m.Params) == 0 {
					args = nil
				}
				if len(args) < len(m.Params) || (len(args) > len(m.Params) && !m.Variadic) {
					pp.errorf(file, line, "macro %s expects %d arguments, got %d", word, len(m.Params), len(args))
				}
				body := substituteParams(m, args)
				busy[word] = true
				pp.expandInto(body, busy, file, line)
				delete(busy, word)
				i = end
			} else {
				busy[word] = true
				pp.expandInto(m.Body, busy, file, line)
				delete(busy, word)
				i = j
			}
		default:
			// Bulk-copy up to the next byte that could start a literal,
			// comment, or macro name.
			j := i + 1
			for j < len(text) {
				d := text[j]
				if d == '"' || d == '\'' || d == '/' || isIdentStart(d) {
					break
				}
				j++
			}
			pp.buf = append(pp.buf, text[i:j]...)
			i = j
		}
	}
}

// skipLiteral returns the index just past the string or char literal
// starting at i.
func skipLiteral(text string, i int) int {
	q := text[i]
	j := i + 1
	for j < len(text) {
		if text[j] == '\\' {
			j += 2
			continue
		}
		if text[j] == q {
			return j + 1
		}
		j++
	}
	return len(text)
}

// parseMacroArgs parses "(a, b, ...)" starting at the '(' at index k.
// It returns raw argument texts and the index just past ')'.
func parseMacroArgs(text string, k int) ([]string, int, error) {
	depth := 0
	var args []string
	var cur strings.Builder
	i := k
	for i < len(text) {
		c := text[i]
		switch {
		case c == '"' || c == '\'':
			j := skipLiteral(text, i)
			cur.WriteString(text[i:j])
			i = j
			continue
		case c == '(':
			depth++
			if depth > 1 {
				cur.WriteByte(c)
			}
		case c == ')':
			depth--
			if depth == 0 {
				args = append(args, strings.TrimSpace(cur.String()))
				return args, i + 1, nil
			}
			cur.WriteByte(c)
		case c == ',' && depth == 1:
			args = append(args, strings.TrimSpace(cur.String()))
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
		i++
	}
	return nil, i, fmt.Errorf("unterminated argument list")
}

// substituteParams replaces parameter names in the macro body with argument
// texts (word-boundary aware; skips string literals). The # and ##
// operators: # stringizes the following parameter; ## splices by deleting
// itself and adjacent spaces.
func substituteParams(m *Macro, args []string) string {
	argOf := map[string]string{}
	for i, p := range m.Params {
		if i < len(args) {
			argOf[p] = args[i]
		} else {
			argOf[p] = ""
		}
	}
	if m.Variadic {
		if len(args) > len(m.Params) {
			argOf["__VA_ARGS__"] = strings.Join(args[len(m.Params):], ", ")
		} else {
			argOf["__VA_ARGS__"] = ""
		}
	}
	body := m.Body
	var out strings.Builder
	i := 0
	for i < len(body) {
		c := body[i]
		switch {
		case c == '"' || c == '\'':
			j := skipLiteral(body, i)
			out.WriteString(body[i:j])
			i = j
		case c == '#' && i+1 < len(body) && body[i+1] == '#':
			// Token paste: trim trailing spaces already emitted and skip
			// following spaces.
			s := strings.TrimRight(out.String(), " \t")
			out.Reset()
			out.WriteString(s)
			i += 2
			for i < len(body) && (body[i] == ' ' || body[i] == '\t') {
				i++
			}
		case c == '#' && i+1 < len(body) && isIdentStart(body[i+1]):
			j := i + 1
			for j < len(body) && isIdentChar(body[j]) {
				j++
			}
			word := body[i+1 : j]
			if a, ok := argOf[word]; ok {
				out.WriteString(strconv.Quote(a))
				i = j
			} else {
				out.WriteByte(c)
				i++
			}
		case isIdentStart(c):
			j := i
			for j < len(body) && isIdentChar(body[j]) {
				j++
			}
			word := body[i:j]
			if a, ok := argOf[word]; ok {
				out.WriteString(a)
			} else {
				out.WriteString(word)
			}
			i = j
		default:
			out.WriteByte(c)
			i++
		}
	}
	return out.String()
}
