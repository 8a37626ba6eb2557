// Package diag collects, suppresses, sorts, and formats the checker's
// diagnostics. Messages follow the paper's two-level format: a primary
// line locating the anomaly, plus indented secondary notes explaining how
// the offending state arose, e.g.
//
//	sample.c:6: Function returns with non-null global gname referencing null storage
//	   sample.c:5: Storage gname may become null
//
// Suppression uses the paper's stylized comments: /*@i@*/ suppresses the
// next message on or after that line; /*@ignore@*/ ... /*@end@*/ suppresses
// every message in the region.
package diag

import (
	"fmt"
	"sort"
	"strings"

	"golclint/internal/ctoken"
)

// Code classifies a diagnostic. Codes are stable and name the anomaly
// classes from the paper.
type Code int

// Diagnostic codes.
const (
	// Null pointer anomalies (§4.1).
	NullDeref  Code = iota // dereference of possibly-null pointer
	NullPass               // possibly-null passed where non-null expected
	NullAssign             // possibly-null assigned to non-null reference
	NullReturn             // function may return null / exit with null global

	// Definition anomalies (§4.2).
	UseUndef      // undefined storage used as an rvalue
	IncompleteDef // storage not completely defined at interface point

	// Allocation anomalies (§4.3).
	Leak          // only storage not released before reference lost
	UseDead       // use of storage after obligation transferred (dead pointer)
	DoubleRelease // release obligation discharged twice
	AliasTransfer // temp/dependent storage transferred as only (paper's second sample.c message)
	Confluence    // inconsistent allocation states at a merge point
	LeakReturn    // fresh storage returned without only annotation

	// Aliasing and exposure anomalies (§4.4).
	UniqueAliased // unique parameter aliased by another parameter/global
	ObserverMod   // observer storage modified
	Exposure      // internal state exposed

	// Annotation/semantic problems.
	AnnotConflict  // incompatible annotations
	AnnotPlacement // annotation in an invalid position
	TypeError      // type mismatch
	UnknownName    // reference to undeclared identifier
	DeadCode       // statements not reachable from the function entry

	numCodes
)

var codeNames = map[Code]string{
	NullDeref: "nullderef", NullPass: "nullpass", NullAssign: "nullassign",
	NullReturn: "nullreturn", UseUndef: "usedef", IncompleteDef: "compdef",
	Leak: "mustfree", UseDead: "usereleased", DoubleRelease: "doublerelease",
	AliasTransfer: "aliastransfer", Confluence: "branchstate",
	LeakReturn: "mustfreereturn", UniqueAliased: "aliasunique",
	ObserverMod: "observermod", Exposure: "exposure",
	AnnotConflict: "annotconflict", AnnotPlacement: "annotplace",
	TypeError: "type", UnknownName: "unknown", DeadCode: "unreachable",
}

// String returns the code's short name (used in message suffixes and
// category counts).
func (c Code) String() string {
	if s, ok := codeNames[c]; ok {
		return s
	}
	return fmt.Sprintf("code(%d)", int(c))
}

// codeByName is the reverse of codeNames, for parsing machine-readable
// output back into Codes.
var codeByName = func() map[string]Code {
	m := make(map[string]Code, len(codeNames))
	for c, n := range codeNames {
		m[n] = c
	}
	return m
}()

// Codes returns every diagnostic code in declaration order. The -stats,
// -stats-json, and trace surfaces all key on these codes' String() names,
// which are stable and unique (asserted by TestCodeNamesRoundTrip).
func Codes() []Code {
	cs := make([]Code, 0, int(numCodes))
	for c := Code(0); c < numCodes; c++ {
		cs = append(cs, c)
	}
	return cs
}

// ParseCode resolves a short name (as printed by String and used as a JSON
// key) back to its Code.
func ParseCode(name string) (Code, bool) {
	c, ok := codeByName[name]
	return c, ok
}

// MarshalText implements encoding.TextMarshaler so Codes serialize by name
// (including as JSON map keys).
func (c Code) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (c *Code) UnmarshalText(b []byte) error {
	parsed, ok := ParseCode(string(b))
	if !ok {
		return fmt.Errorf("unknown diagnostic code %q", b)
	}
	*c = parsed
	return nil
}

// Note is a secondary location attached to a diagnostic.
type Note struct {
	Pos ctoken.Pos
	Msg string
}

// ProvStep is one step of a witness path: a position, a stable step kind,
// and a human-readable message. The kinds are part of the machine-readable
// surface (the planned replay engine keys on them), so existing spellings
// must not change:
//
//	entry   — the function whose analysis emitted the diagnostic
//	path    — the CFG block path from entry to the report site
//	branch  — a branch decision taken at a split
//	decl    — declaration of the implicated ref
//	alloc   — the ref acquired a release obligation (fresh or annotated)
//	release — the obligation was discharged (ref became dead)
//	null    — the ref may have become null
//	bind    — the ref was bound/assigned a new object
type ProvStep struct {
	Pos  ctoken.Pos
	Kind string
	Msg  string
}

// Provenance is the witness the checker followed to a diagnostic: the CFG
// block path, the branch decisions at each split, and the state transitions
// of the implicated ref. Recorded only under -explain; Diagnostic.String
// ignores it, so default output is byte-identical with or without it.
type Provenance struct {
	Ref   string // display name of the implicated reference ("" if none)
	Steps []ProvStep
}

// ValidationTag classifies the outcome of replaying a diagnostic's witness
// path through the instrumented interpreter (-validate). The names are part
// of the machine-readable surface (stats-json, JSONL trace, cache entries),
// so existing spellings must not change.
type ValidationTag int

// Validation outcomes.
const (
	// ValidationNone marks a diagnostic that was never validated (the
	// zero value; such diagnostics carry no Validation record at all).
	ValidationNone ValidationTag = iota
	// Confirmed: the interpreter reproduced the matching run-time fault at
	// the witness line from a generated input.
	Confirmed
	// Unreproduced: the search budget was exhausted without reproducing
	// the fault (or the anomaly has no run-time manifestation to replay).
	Unreproduced
	// PathInfeasible: no generated input ever reached the fault site, so
	// the witness path was never driven to completion.
	PathInfeasible
)

var validationNames = map[ValidationTag]string{
	ValidationNone: "none", Confirmed: "confirmed",
	Unreproduced: "unreproduced", PathInfeasible: "path-infeasible",
}

// String returns the tag's stable name.
func (t ValidationTag) String() string {
	if s, ok := validationNames[t]; ok {
		return s
	}
	return fmt.Sprintf("validation(%d)", int(t))
}

// ParseValidationTag resolves a stable tag name back to its value.
func ParseValidationTag(name string) (ValidationTag, bool) {
	for t, n := range validationNames {
		if n == name {
			return t, true
		}
	}
	return ValidationNone, false
}

// Validation records the outcome of counterexample validation for one
// diagnostic: the tag plus a human-readable detail line (the reproducing
// harness input, or why no input reproduced the fault).
type Validation struct {
	Tag    ValidationTag
	Detail string
}

// Diagnostic is one reported anomaly.
type Diagnostic struct {
	Code  Code
	Pos   ctoken.Pos
	Msg   string
	Notes []Note
	// Prov is the optional witness path (-explain). It is excluded from
	// String, carried through the cache record, and compared by Equal.
	Prov *Provenance
	// Validation is the optional counterexample-validation outcome
	// (-validate). Like Prov it is excluded from String, carried through
	// the cache record, and compared by Equal.
	Validation *Validation
}

// Equal reports whether two diagnostics are identical, notes included.
// Compare only orders by (pos, code, msg); Equal is the full-field check the
// serialization round-trip and cache-replay tests rely on.
func Equal(a, b *Diagnostic) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Code != b.Code || a.Pos != b.Pos || a.Msg != b.Msg || len(a.Notes) != len(b.Notes) {
		return false
	}
	for i := range a.Notes {
		if a.Notes[i] != b.Notes[i] {
			return false
		}
	}
	return equalProv(a.Prov, b.Prov) && equalValidation(a.Validation, b.Validation)
}

// equalValidation compares two validation records field-for-field.
func equalValidation(a, b *Validation) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// equalProv compares two witness paths field-for-field.
func equalProv(a, b *Provenance) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Ref != b.Ref || len(a.Steps) != len(b.Steps) {
		return false
	}
	for i := range a.Steps {
		if a.Steps[i] != b.Steps[i] {
			return false
		}
	}
	return true
}

// EqualAll reports whether two diagnostic slices are element-wise Equal.
func EqualAll(a, b []*Diagnostic) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// WithNote appends a secondary note and returns d for chaining.
func (d *Diagnostic) WithNote(pos ctoken.Pos, format string, args ...interface{}) *Diagnostic {
	if d == nil {
		return nil
	}
	d.Notes = append(d.Notes, Note{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	return d
}

// String formats the diagnostic in the paper's style.
func (d *Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s", d.Pos, d.Msg)
	for _, n := range d.Notes {
		fmt.Fprintf(&b, "\n   %s: %s", n.Pos, n.Msg)
	}
	return b.String()
}

// StepString renders one witness step in the stable "pos: [kind] msg" form
// shared by -explain output and the JSONL diag events.
func (s ProvStep) StepString() string {
	if !s.Pos.IsValid() {
		return fmt.Sprintf("[%s] %s", s.Kind, s.Msg)
	}
	return fmt.Sprintf("%s: [%s] %s", s.Pos, s.Kind, s.Msg)
}

// ValidationString renders the diagnostic's validation line ("" when the
// diagnostic was never validated), in the stable form shared by -validate
// output and Explain.
func (d *Diagnostic) ValidationString() string {
	if d.Validation == nil || d.Validation.Tag == ValidationNone {
		return ""
	}
	if d.Validation.Detail == "" {
		return fmt.Sprintf("validation: %s", d.Validation.Tag)
	}
	return fmt.Sprintf("validation: %s — %s", d.Validation.Tag, d.Validation.Detail)
}

// Validated formats the diagnostic with its validation line appended (the
// -validate surface). Identical to String when no validation was recorded.
func (d *Diagnostic) Validated() string {
	var b strings.Builder
	b.WriteString(d.String())
	if v := d.ValidationString(); v != "" {
		fmt.Fprintf(&b, "\n   %s", v)
	}
	return b.String()
}

// Explain formats the diagnostic with its witness path appended, one
// indented step per line, followed by the validation line when the
// diagnostic was validated. Without provenance or validation it is
// identical to String.
func (d *Diagnostic) Explain() string {
	var b strings.Builder
	b.WriteString(d.String())
	if d.Prov != nil && len(d.Prov.Steps) > 0 {
		if d.Prov.Ref != "" {
			fmt.Fprintf(&b, "\n   witness (%s):", d.Prov.Ref)
		} else {
			b.WriteString("\n   witness:")
		}
		for _, s := range d.Prov.Steps {
			fmt.Fprintf(&b, "\n      %s", s.StepString())
		}
	}
	if v := d.ValidationString(); v != "" {
		fmt.Fprintf(&b, "\n   %s", v)
	}
	return b.String()
}

// Region is a suppressed source region (from /*@ignore@*/ ... /*@end@*/).
type Region struct {
	File     string
	FromLine int
	ToLine   int // inclusive; 1<<30 if unterminated
}

// classOf maps local-flag names to the diagnostic codes they gate (the
// same classes as the global flags in internal/flags).
var classOf = map[string][]Code{
	"null":  {NullDeref, NullPass, NullAssign, NullReturn},
	"def":   {UseUndef, IncompleteDef},
	"alloc": {Leak, UseDead, DoubleRelease, AliasTransfer, Confluence, LeakReturn},
	"alias": {UniqueAliased, ObserverMod, Exposure},
}

// offSpan is a region of one file where a message class is disabled by a
// local /*@-name@*/ ... /*@+name@*/ toggle.
type offSpan struct {
	file     ctoken.FileID
	fromLine int32
	toLine   int32
	codes    []Code
}

// flagKey names one local flag toggle in one file.
type flagKey struct {
	file ctoken.FileID
	name string
}

// Reporter accumulates diagnostics and applies suppression.
type Reporter struct {
	diags      []*Diagnostic
	suppressed int
	offSpans   []offSpan

	// iLines holds file:line keys carrying an /*@i@*/ marker: the next
	// message reported for that line or the following one is dropped.
	iLines map[string]bool
	// regions holds ignore/end spans.
	regions []Region
	// max bounds the number of retained diagnostics (0 = unbounded).
	max int
}

// NewReporter returns an empty reporter. maxMessages bounds retained
// diagnostics (0 for unbounded).
func NewReporter(maxMessages int) *Reporter {
	return &Reporter{iLines: map[string]bool{}, max: maxMessages}
}

// Control mirrors a parsed checker-control comment ("i", "ignore", "end",
// or a flag toggle) with its position.
type Control struct {
	Pos  ctoken.Pos
	Text string
}

// AddSuppressions installs the control comments collected by the parser:
// message suppression ("i", "ignore"/"end") and local flag toggles
// ("-name" disables a message class from its line until a matching
// "+name" in the same file, per §2's "an LCLint flag that may be set
// locally").
func (r *Reporter) AddSuppressions(controls []Control) {
	var open []Region
	openFlags := map[flagKey]*offSpan{}
	for _, c := range controls {
		switch {
		case c.Text == "i":
			r.iLines[fmt.Sprintf("%s:%d", c.Pos.File, c.Pos.Line)] = true
		case c.Text == "ignore":
			open = append(open, Region{File: c.Pos.File.String(), FromLine: int(c.Pos.Line), ToLine: 1 << 30})
		case c.Text == "end":
			if len(open) > 0 {
				open[len(open)-1].ToLine = int(c.Pos.Line)
				r.regions = append(r.regions, open[len(open)-1])
				open = open[:len(open)-1]
			}
		case len(c.Text) > 1 && c.Text[0] == '-':
			name := c.Text[1:]
			if codes, ok := classOf[name]; ok {
				sp := &offSpan{file: c.Pos.File, fromLine: c.Pos.Line, toLine: 1 << 30, codes: codes}
				openFlags[flagKey{c.Pos.File, name}] = sp
				r.offSpans = append(r.offSpans, *sp)
			}
		case len(c.Text) > 1 && c.Text[0] == '+':
			name := c.Text[1:]
			if _, ok := classOf[name]; ok {
				key := flagKey{c.Pos.File, name}
				if sp, isOpen := openFlags[key]; isOpen {
					// Close the most recent span for this flag/file.
					for i := len(r.offSpans) - 1; i >= 0; i-- {
						if r.offSpans[i].file == sp.file && r.offSpans[i].fromLine == sp.fromLine &&
							r.offSpans[i].toLine == 1<<30 {
							r.offSpans[i].toLine = c.Pos.Line
							break
						}
					}
					delete(openFlags, key)
				}
			}
		}
	}
	r.regions = append(r.regions, open...)
}

// MarkILine registers an /*@i@*/ marker directly (used by tests).
func (r *Reporter) MarkILine(file string, line int) {
	r.iLines[fmt.Sprintf("%s:%d", file, line)] = true
}

// AddRegion registers an ignore region directly.
func (r *Reporter) AddRegion(reg Region) { r.regions = append(r.regions, reg) }

// classOff reports whether code is disabled at pos by a local flag toggle.
func (r *Reporter) classOff(code Code, pos ctoken.Pos) bool {
	for _, sp := range r.offSpans {
		if sp.file != pos.File || pos.Line < sp.fromLine || pos.Line > sp.toLine {
			continue
		}
		for _, c := range sp.codes {
			if c == code {
				return true
			}
		}
	}
	return false
}

// isSuppressed reports whether a message at pos should be dropped, and
// consumes one-shot /*@i@*/ markers.
func (r *Reporter) isSuppressed(pos ctoken.Pos) bool {
	for _, reg := range r.regions {
		if reg.File == pos.File.String() && int(pos.Line) >= reg.FromLine && int(pos.Line) <= reg.ToLine {
			return true
		}
	}
	// /*@i@*/ on the same line or the line before the anomaly.
	for _, ln := range []int32{pos.Line, pos.Line - 1} {
		key := fmt.Sprintf("%s:%d", pos.File, ln)
		if r.iLines[key] {
			delete(r.iLines, key)
			return true
		}
	}
	return false
}

// Report files a diagnostic unless suppressed; it returns the diagnostic
// (nil if suppressed or over the message bound) for attaching notes.
func (r *Reporter) Report(code Code, pos ctoken.Pos, format string, args ...interface{}) *Diagnostic {
	if r.isSuppressed(pos) || r.classOff(code, pos) {
		r.suppressed++
		return nil
	}
	if r.max > 0 && len(r.diags) >= r.max {
		r.suppressed++
		return nil
	}
	d := &Diagnostic{Code: code, Pos: pos, Msg: fmt.Sprintf(format, args...)}
	r.diags = append(r.diags, d)
	return d
}

// Compare orders diagnostics by the stable sort key (file, line, column,
// code, message). It is the single ordering used everywhere diagnostics are
// sorted or merged, so serial and parallel runs render byte-identical
// output.
func Compare(a, b *Diagnostic) int {
	if a.Pos != b.Pos {
		if a.Pos.Before(b.Pos) {
			return -1
		}
		return 1
	}
	if a.Code != b.Code {
		if a.Code < b.Code {
			return -1
		}
		return 1
	}
	return strings.Compare(a.Msg, b.Msg)
}

// Sort stably sorts diagnostics by the Compare key.
func Sort(ds []*Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool { return Compare(ds[i], ds[j]) < 0 })
}

// Diags returns the retained diagnostics sorted by position then code.
func (r *Reporter) Diags() []*Diagnostic {
	Sort(r.diags)
	return r.diags
}

// Buffered returns the retained diagnostics in report (arrival) order,
// without sorting. The parallel checking engine uses per-worker reporters
// as ordered buffers and replays them into the run's main reporter.
func (r *Reporter) Buffered() []*Diagnostic { return r.diags }

// Len returns the number of retained diagnostics.
func (r *Reporter) Len() int { return len(r.diags) }

// Suppressed returns the number of messages dropped by suppression or the
// message bound.
func (r *Reporter) Suppressed() int { return r.suppressed }

// CountByCode tallies retained diagnostics per code.
func (r *Reporter) CountByCode() map[Code]int {
	m := map[Code]int{}
	for _, d := range r.diags {
		m[d.Code]++
	}
	return m
}

// Format renders all diagnostics, one per paragraph, in source order.
func (r *Reporter) Format() string {
	var b strings.Builder
	for _, d := range r.Diags() {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
