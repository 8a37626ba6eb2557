package cache

import (
	"encoding/binary"
	"fmt"
	"sort"

	"golclint/internal/ctoken"
	"golclint/internal/diag"
)

// The entry record: the one wire form of an Entry, shared by every Store.
// The memory store keeps it unframed; the disk cache and the remote store
// wrap it in a checksummed, compressed frame (frame.go).
//
//	schema      the bytes of entrySchema
//	key         str
//	strings     count, then count × str: the string table
//	diags       count, then count × diag
//	suppressed  varint
//	parseErrs   count, then count × ref
//	semaErrs    count, then count × ref
//	deps        count, then count × (str name, ref fingerprint)
//	fn          0, or 1 then varint blocks, edges, merges
//
//	diag  = ref code, pos, ref msg, count × (pos, ref msg) notes,
//	        a byte of flags (1: prov, 2: validation), then
//	        [ref ref, count × (pos, ref kind, ref msg) steps] if prov,
//	        [ref tag, ref detail] if validation
//	pos   = ref file, varint line, varint col, varint off
//
// A count or a str's length is a uvarint; a str's bytes follow its
// length; a ref is a uvarint index into the string table; a varint is a
// zigzag-coded signed uvarint. The string table holds every file name,
// message, code and tag name, witness kind and error text once, sorted;
// codes and tags go by their stable names, so renumbering either cannot
// misread a stored record.
//
// The form is canonical: decodeEntry accepts only the bytes encodeEntry
// writes for the entry it returns — minimal varints, a sorted table whose
// every string is referenced, deps in strictly increasing name order, no
// trailing bytes. Anything else, a truncated or oversized record
// included, is a miss.

// entrySchema tags the record format; a record under any other tag is a
// miss.
const entrySchema = "golclint-cache/v3"

// Dep is one recorded interface dependency: a symbol the entry's source
// mentions and the interface fingerprint it had when the entry was
// computed ("" when the library did not supply it).
type Dep struct {
	Name, FP string
}

// Diagnostic flag bits.
const (
	flagProv       = 1
	flagValidation = 2
)

// recordWriter writes one record. The body is walked twice by the same
// code: first with idx nil, collecting every string the table must hold,
// then writing with the table's indices.
type recordWriter struct {
	buf  []byte
	strs map[string]struct{}
	idx  map[string]int
	err  error
}

func (w *recordWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

func (w *recordWriter) varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

func (w *recordWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *recordWriter) ref(s string) {
	if w.idx == nil {
		w.strs[s] = struct{}{}
		return
	}
	w.uvarint(uint64(w.idx[s]))
}

func (w *recordWriter) pos(p ctoken.Pos) {
	w.ref(p.File.String())
	w.varint(int64(p.Line))
	w.varint(int64(p.Col))
	w.varint(int64(p.Off))
}

func (w *recordWriter) body(e *Entry) {
	w.uvarint(uint64(len(e.Diags)))
	for i, d := range e.Diags {
		if d == nil {
			w.err = fmt.Errorf("encode entry: nil diagnostic at %d", i)
			return
		}
		w.ref(d.Code.String())
		w.pos(d.Pos)
		w.ref(d.Msg)
		w.uvarint(uint64(len(d.Notes)))
		for _, n := range d.Notes {
			w.pos(n.Pos)
			w.ref(n.Msg)
		}
		var flags byte
		if d.Prov != nil {
			flags |= flagProv
		}
		if d.Validation != nil {
			flags |= flagValidation
		}
		w.buf = append(w.buf, flags)
		if d.Prov != nil {
			w.ref(d.Prov.Ref)
			w.uvarint(uint64(len(d.Prov.Steps)))
			for _, s := range d.Prov.Steps {
				w.pos(s.Pos)
				w.ref(s.Kind)
				w.ref(s.Msg)
			}
		}
		if d.Validation != nil {
			w.ref(d.Validation.Tag.String())
			w.ref(d.Validation.Detail)
		}
	}
	w.varint(int64(e.Suppressed))
	for _, errs := range [][]string{e.ParseErrors, e.SemaErrors} {
		w.uvarint(uint64(len(errs)))
		for _, s := range errs {
			w.ref(s)
		}
	}
	w.uvarint(uint64(len(e.Deps)))
	for _, d := range e.Deps {
		w.str(d.Name)
		w.ref(d.FP)
	}
	if e.Fn == nil {
		w.buf = append(w.buf, 0)
	} else {
		w.buf = append(w.buf, 1)
		w.varint(e.Fn.Blocks)
		w.varint(e.Fn.Edges)
		w.varint(e.Fn.Merges)
	}
}

// encodeEntry renders e as a record addressed to key. Deps out of name
// order, or a name recorded twice, are an error.
func encodeEntry(key string, e *Entry) ([]byte, error) {
	for i := 1; i < len(e.Deps); i++ {
		if e.Deps[i].Name <= e.Deps[i-1].Name {
			return nil, fmt.Errorf("encode entry: dependency %q out of order or repeated", e.Deps[i].Name)
		}
	}

	w := &recordWriter{strs: map[string]struct{}{}}
	w.body(e)
	if w.err != nil {
		return nil, w.err
	}
	table := make([]string, 0, len(w.strs))
	for s := range w.strs {
		table = append(table, s)
	}
	sort.Strings(table)
	w.idx = make(map[string]int, len(table))
	for i, s := range table {
		w.idx[s] = i
	}

	w.buf = make([]byte, 0, len(w.buf)+len(entrySchema)+len(key)+16*len(table)+64)
	w.buf = append(w.buf, entrySchema...)
	w.str(key)
	w.uvarint(uint64(len(table)))
	for _, s := range table {
		w.str(s)
	}
	w.body(e)
	return w.buf, nil
}

// recordReader decodes one record. b is the record and s a copy of b as
// one string, so every decoded string is a substring of s and costs no
// allocation of its own. A failed read sets bad and makes every later read
// return zero values, so a decoder checks bad once per loop, not per read.
type recordReader struct {
	b     []byte
	s     string
	off   int
	bad   bool
	table []string
	used  []bool
	files []ctoken.FileID // resolved file IDs by table index, +1 (0 = unresolved)
}

func (r *recordReader) uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	// A multi-byte varint ending in a zero byte is not minimal: the writer
	// never produces it, so it cannot re-encode to the same bytes.
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

func (r *recordReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// int32 reads a varint that must fit ctoken.Pos's fields.
func (r *recordReader) int32() int32 {
	v := r.varint()
	if int64(int32(v)) != v {
		r.bad = true
	}
	return int32(v)
}

// count reads a list length. Every list element takes at least one byte,
// so a count above the bytes left is corrupt and allocates nothing.
func (r *recordReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.b)-r.off) {
		r.bad = true
		return 0
	}
	return int(n)
}

func (r *recordReader) byte() byte {
	if r.bad || r.off >= len(r.b) {
		r.bad = true
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

// str reads a str as a substring of s.
func (r *recordReader) str() string {
	n := r.count()
	if r.bad {
		return ""
	}
	r.off += n
	return r.s[r.off-n : r.off]
}

func (r *recordReader) ref() (string, int) {
	i := r.uvarint()
	if r.bad || i >= uint64(len(r.table)) {
		r.bad = true
		return "", 0
	}
	r.used[i] = true
	return r.table[i], int(i)
}

func (r *recordReader) pos() ctoken.Pos {
	name, i := r.ref()
	p := ctoken.Pos{Line: r.int32(), Col: r.int32(), Off: r.int32()}
	if r.bad {
		return ctoken.Pos{}
	}
	if r.files[i] == 0 {
		r.files[i] = ctoken.FileOf(name) + 1
	}
	p.File = r.files[i] - 1
	return p
}

func (r *recordReader) diag(d *diag.Diagnostic) {
	name, _ := r.ref()
	code, ok := diag.ParseCode(name)
	if !ok {
		r.bad = true
	}
	d.Code = code
	d.Pos = r.pos()
	d.Msg, _ = r.ref()
	if n := r.count(); n > 0 {
		d.Notes = make([]diag.Note, n)
		for i := range d.Notes {
			d.Notes[i].Pos = r.pos()
			d.Notes[i].Msg, _ = r.ref()
		}
	}
	flags := r.byte()
	if flags&^(flagProv|flagValidation) != 0 {
		r.bad = true
	}
	if flags&flagProv != 0 {
		p := &diag.Provenance{}
		p.Ref, _ = r.ref()
		if n := r.count(); n > 0 {
			p.Steps = make([]diag.ProvStep, n)
			for i := range p.Steps {
				s := &p.Steps[i]
				s.Pos = r.pos()
				s.Kind, _ = r.ref()
				s.Msg, _ = r.ref()
				if r.bad {
					break
				}
			}
		}
		d.Prov = p
	}
	if flags&flagValidation != 0 {
		name, _ := r.ref()
		tag, ok := diag.ParseValidationTag(name)
		if !ok {
			r.bad = true
		}
		v := &diag.Validation{Tag: tag}
		v.Detail, _ = r.ref()
		d.Validation = v
	}
}

// refs reads a count-prefixed list of refs.
func (r *recordReader) refs() []string {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i], _ = r.ref()
	}
	return out
}

// decodeEntry parses a record back into an Entry. Any mismatch — a wrong
// schema or key, a truncated, oversized or non-canonical record, an
// unknown code or tag — reads as a miss, exactly like a corrupted entry
// file. The entry owns everything it holds: its strings are substrings of
// one copy of b.
func decodeEntry(key string, b []byte) (*Entry, bool) {
	if len(b) < len(entrySchema) || string(b[:len(entrySchema)]) != entrySchema {
		return nil, false
	}
	r := &recordReader{b: b, s: string(b), off: len(entrySchema)}
	if r.str() != key || r.bad {
		return nil, false
	}
	e := &Entry{Size: int64(len(b))}

	n := r.count()
	r.table = make([]string, n)
	for i := range r.table {
		r.table[i] = r.str()
		if r.bad || (i > 0 && r.table[i] <= r.table[i-1]) {
			return nil, false
		}
	}
	r.used = make([]bool, n)
	r.files = make([]ctoken.FileID, n)

	if n := r.count(); n > 0 {
		ds := make([]diag.Diagnostic, n)
		e.Diags = make([]*diag.Diagnostic, n)
		for i := range ds {
			r.diag(&ds[i])
			if r.bad {
				return nil, false
			}
			e.Diags[i] = &ds[i]
		}
	}
	e.Suppressed = int(r.varint())
	e.ParseErrors = r.refs()
	e.SemaErrors = r.refs()
	if n := r.count(); n > 0 {
		e.Deps = make([]Dep, n)
		for i := range e.Deps {
			d := &e.Deps[i]
			d.Name = r.str()
			d.FP, _ = r.ref()
			if r.bad || (i > 0 && d.Name <= e.Deps[i-1].Name) {
				return nil, false
			}
		}
	}
	switch r.byte() {
	case 0:
	case 1:
		e.Fn = &FnStats{Blocks: r.varint(), Edges: r.varint(), Merges: r.varint()}
	default:
		return nil, false
	}
	if r.bad || r.off != len(b) {
		return nil, false
	}
	for _, u := range r.used {
		if !u {
			return nil, false
		}
	}
	return e, true
}
