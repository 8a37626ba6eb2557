package ctoken

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"unsafe"
)

func TestFileOfEmptyName(t *testing.T) {
	if id := FileOf(""); id != 0 {
		t.Fatalf(`FileOf("") = %d, want 0`, id)
	}
	if name := FileID(0).String(); name != "" {
		t.Fatalf("FileID(0).String() = %q, want \"\"", name)
	}
	if got := (Pos{Line: 3}).String(); got != "line 3" {
		t.Fatalf("Pos without a file renders %q", got)
	}
}

func TestFileOfIdempotent(t *testing.T) {
	a := FileOf("idempotent_a.c")
	if a == 0 || FileOf("idempotent_a.c") != a {
		t.Fatalf("FileOf gave %d, then %d", a, FileOf("idempotent_a.c"))
	}
	if b := FileOf("idempotent_b.c"); b == a {
		t.Fatalf("two names share ID %d", a)
	}
	if got := a.String(); got != "idempotent_a.c" {
		t.Fatalf("String() = %q", got)
	}
	if got := fmt.Sprintf("%s", a); got != "idempotent_a.c" {
		t.Fatalf("%%s renders %q", got)
	}
}

// Workers lexing different modules intern overlapping header and module
// names at once: each name must still get exactly one ID. Run under -race.
func TestFileOfConcurrent(t *testing.T) {
	const workers, names = 8, 200
	ids := make([][]FileID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]FileID, names)
			for i := 0; i < names; i++ {
				// Each worker starts at a different name, so first
				// insertions race with lookups of the same name.
				n := (i + w*names/workers) % names
				ids[w][n] = FileOf(fmt.Sprintf("concurrent_%d.h", n))
				if got, want := ids[w][n].String(), fmt.Sprintf("concurrent_%d.h", n); got != want {
					t.Errorf("worker %d: ID %d names %q, want %q", w, ids[w][n], got, want)
				}
			}
		}(w)
	}
	wg.Wait()
	seen := map[FileID]int{}
	for n := 0; n < names; n++ {
		for w := 1; w < workers; w++ {
			if ids[w][n] != ids[0][n] {
				t.Fatalf("name %d: worker %d got ID %d, worker 0 got %d", n, w, ids[w][n], ids[0][n])
			}
		}
		if prev, dup := seen[ids[0][n]]; dup {
			t.Fatalf("names %d and %d share ID %d", prev, n, ids[0][n])
		}
		seen[ids[0][n]] = n
	}
}

// A line marker's file name is a slice of the whole expanded source; the
// table must hold its own copy, or it would keep that source alive.
func TestFileOfDoesNotAlias(t *testing.T) {
	src := "# 1 \"alias_check.h\"\nint x;\n"
	name := src[5:18]
	id := FileOf(name)
	stored := id.String()
	if stored != "alias_check.h" {
		t.Fatalf("stored name %q", stored)
	}
	if unsafe.StringData(stored) == unsafe.StringData(name) {
		t.Fatal("the table stores the caller's buffer, not a copy")
	}
	lx := NewLexer("alias_main.c", src)
	tok := lx.Next()
	if tok.Pos.File != id || unsafe.StringData(tok.Pos.File.String()) == unsafe.StringData(name) {
		t.Fatalf("token file %q (ID %d) aliases the source or differs from ID %d", tok.Pos.File, tok.Pos.File, id)
	}
}

// IDs follow first-seen order; positions must still order by file name.
func TestPosBeforeOrdersByName(t *testing.T) {
	b := FileOf("order_b.c")
	a := FileOf("order_a.c")
	if a < b {
		t.Fatalf("order_a.c interned first (ID %d < %d); the test needs the reverse", a, b)
	}
	pa := Pos{File: a, Line: 9, Col: 9}
	pb := Pos{File: b, Line: 1, Col: 1}
	if !pa.Before(pb) || pb.Before(pa) {
		t.Fatal("Before orders by FileID, not by file name")
	}
}

// The bound is checked on the length alone, so no 2 GiB source is built.
func TestCheckSourceLen(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("an int cannot exceed MaxSourceLen")
	}
	if err := checkSourceLen(MaxSourceLen); err != nil {
		t.Fatalf("a source of exactly MaxSourceLen bytes is rejected: %v", err)
	}
	over := int64(MaxSourceLen) + 1
	if err := checkSourceLen(int(over)); err == nil {
		t.Fatal("a source of MaxSourceLen+1 bytes is accepted")
	}
}

func TestLineMarkerLineBound(t *testing.T) {
	ts := lexAll(t, "# 2147483647 \"max.c\"\nx\n")
	if ts[0].Pos.Line != 2147483647 || ts[0].Pos.File.String() != "max.c" {
		t.Fatalf("x at %v, want max.c:2147483647", ts[0].Pos)
	}
	lx := NewLexer("t.c", "# 2147483648 \"over.c\"\nx\n")
	ts = lx.All()
	if len(lx.Errors()) != 1 || ts[0].Pos.File.String() != "t.c" {
		t.Fatalf("a marker line past int32 was accepted: %v, errors %v", ts[0].Pos, lx.Errors())
	}
}
