package ctoken

import (
	"strings"
	"sync"
)

// Interner canonicalizes identifier spellings across one frontend pipeline.
// Every occurrence of an identifier — in any file, on any worker — maps to
// a single canonical string value, and keyword classification rides along
// in the same probe: Intern returns the token kind together with the
// canonical text, so the lexer pays one map lookup per word instead of a
// keyword probe plus a fresh substring per occurrence.
//
// Canonical strings are detached copies (strings.Clone), so an interned
// atom never pins a file's expanded source text, and downstream consumers
// keyed by identifier (the per-function RefID interner in
// internal/core/intern.go, sema's symbol tables) hash and compare the same
// small string values for every mention of a name.
//
// An Interner is safe for concurrent use: reads take the fast RLock path,
// and first-occurrence inserts double-check under the write lock.
type Interner struct {
	mu sync.RWMutex
	m  map[string]internEntry
}

type internEntry struct {
	text string
	kind Kind
}

// NewInterner returns an interner preseeded with every C keyword, so
// keywords classify on the read-only fast path from the first token.
func NewInterner() *Interner {
	in := &Interner{m: make(map[string]internEntry, 4*len(Keywords))}
	for s, k := range Keywords {
		in.m[s] = internEntry{text: s, kind: k}
	}
	return in
}

// Intern returns the canonical spelling of s and its token kind: the
// keyword kind for keywords, Ident for everything else. The returned
// string is stable for the interner's lifetime.
func (in *Interner) Intern(s string) (string, Kind) {
	in.mu.RLock()
	e, ok := in.m[s]
	in.mu.RUnlock()
	if ok {
		return e.text, e.kind
	}
	in.mu.Lock()
	if e, ok = in.m[s]; !ok {
		e = internEntry{text: strings.Clone(s), kind: Ident}
		in.m[e.text] = e
	}
	in.mu.Unlock()
	return e.text, e.kind
}

// Len returns the number of interned atoms (keywords included).
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.m)
}

// InternTable is what a Lexer needs from an interner. Both the shared
// Interner and the per-worker LocalInterner implement it.
type InternTable interface {
	Intern(s string) (string, Kind)
}

// LocalInterner is a lock-free read-through cache in front of a shared
// Interner, for use by a single worker: repeat occurrences of a word hit
// the local table with no atomic operations, and only first occurrences
// (per worker) touch the shared table. Atoms stay canonical across
// workers because misses resolve through the shared Interner.
//
// The local table is open-addressed (linear probing, power-of-two size,
// at most half full) and keyed by an FNV-1a hash of the spelling: a probe
// hashes a few bytes and compares one or two strings, cheaper than a map
// lookup for the short words C programs are made of.
type LocalInterner struct {
	shared *Interner
	slots  []internEntry // a free slot has empty text, which no word spells
	n      int
}

// NewLocalInterner returns a LocalInterner caching in front of shared.
func NewLocalInterner(shared *Interner) *LocalInterner {
	return &LocalInterner{shared: shared, slots: make([]internEntry, 512)}
}

// Intern implements InternTable.
func (l *LocalInterner) Intern(s string) (string, Kind) {
	if s == "" {
		return l.shared.Intern(s)
	}
	mask := uint32(len(l.slots) - 1)
	i := hashWord(s) & mask
	for ; l.slots[i].text != ""; i = (i + 1) & mask {
		if e := &l.slots[i]; e.text == s {
			return e.text, e.kind
		}
	}
	text, kind := l.shared.Intern(s)
	l.slots[i] = internEntry{text: text, kind: kind}
	if l.n++; 2*l.n > len(l.slots) {
		l.grow()
	}
	return text, kind
}

// grow doubles the table and reinserts every atom.
func (l *LocalInterner) grow() {
	old := l.slots
	l.slots = make([]internEntry, 2*len(old))
	mask := uint32(len(l.slots) - 1)
	for _, e := range old {
		if e.text == "" {
			continue
		}
		i := hashWord(e.text) & mask
		for l.slots[i].text != "" {
			i = (i + 1) & mask
		}
		l.slots[i] = e
	}
}

// hashWord is 32-bit FNV-1a over the bytes of s.
func hashWord(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
