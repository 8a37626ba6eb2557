package core

import (
	"reflect"
	"testing"
	"unsafe"

	"golclint/internal/ctoken"
)

// TestValueLayout guards the sizes that keep the checker's hot copies
// cheap. Every eval* call returns a value by value and every
// copy-on-write touch copies a refState; on amd64 the compiler copies a
// struct of more than 64 bytes through runtime.duffcopy, and up to 64
// bytes with a few inline moves. A pointer in Pos would put a write
// barrier on every token and node store and make the collector scan them.
func TestValueLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are fixed for 64-bit targets")
	}
	if got := unsafe.Sizeof(ctoken.Pos{}); got != 16 {
		t.Errorf("ctoken.Pos is %d bytes, want 16", got)
	}
	pt := reflect.TypeOf(ctoken.Pos{})
	for i := 0; i < pt.NumField(); i++ {
		switch f := pt.Field(i); f.Type.Kind() {
		case reflect.Int32, reflect.Uint32:
		default:
			t.Errorf("ctoken.Pos.%s is a %s, which may hold a pointer; want a 32-bit integer", f.Name, f.Type)
		}
	}
	if got := unsafe.Sizeof(value{}); got > 64 {
		t.Errorf("value is %d bytes, want at most 64 (the duffcopy threshold)", got)
	}
	if got := unsafe.Sizeof(refState{}); got > 96 {
		t.Errorf("refState is %d bytes, want at most 96", got)
	}
}
