package ctoken

import (
	"fmt"
	"testing"
	"unsafe"
)

// Two workers' LocalInterners over one shared Interner agree on every
// word's kind and return the very same atom (same bytes in memory), across
// enough distinct words to make each local table grow several times.
func TestLocalInternersShareAtoms(t *testing.T) {
	shared := NewInterner()
	a, b := NewLocalInterner(shared), NewLocalInterner(shared)
	var words []string
	for kw := range Keywords {
		words = append(words, kw)
	}
	for i := 0; i < 5000; i++ {
		words = append(words, fmt.Sprintf("name_%d", i))
	}
	for pass := 0; pass < 2; pass++ {
		for _, w := range words {
			// A fresh copy of the spelling, as a slice of some file's text
			// would be: the atom must not alias it.
			src := string([]byte(w))
			ta, ka := a.Intern(src)
			tb, kb := b.Intern(w)
			want := Ident
			if kw, ok := Keywords[w]; ok {
				want = kw
			}
			if ta != w || ka != want || kb != want {
				t.Fatalf("pass %d: Intern(%q) = (%q, %v) and (%q, %v), want kind %v", pass, w, ta, ka, tb, kb, want)
			}
			if unsafe.StringData(ta) != unsafe.StringData(tb) {
				t.Fatalf("pass %d: %q interned to two different atoms", pass, w)
			}
			if unsafe.StringData(ta) == unsafe.StringData(src) {
				t.Fatalf("pass %d: atom for %q aliases the input", pass, w)
			}
		}
	}
	if got, want := shared.Len(), len(words); got != want {
		t.Fatalf("shared interner holds %d atoms, want %d", got, want)
	}
}

func TestLocalInternerEmptyWord(t *testing.T) {
	l := NewLocalInterner(NewInterner())
	if text, kind := l.Intern(""); text != "" || kind != Ident {
		t.Fatalf(`Intern("") = (%q, %v), want ("", identifier)`, text, kind)
	}
	if text, kind := l.Intern("x"); text != "x" || kind != Ident {
		t.Fatalf(`Intern("x") = (%q, %v)`, text, kind)
	}
}
