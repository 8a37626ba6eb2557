package core

import (
	"testing"

	"golclint/internal/ctoken"
	"golclint/internal/diag"
)

// Tests for the path-condition reverse parser: PathConds must recover the
// structured branch assumptions from the stable witness spellings, and
// WitnessFunction must recover the enclosing function name.

func TestPathCondsParsesStableSpellings(t *testing.T) {
	p := &diag.Provenance{Steps: []diag.ProvStep{
		{Kind: "entry", Msg: "in function f", Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 1}},
		{Kind: "branch", Msg: "condition p == NULL assumed false", Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 3}},
		{Kind: "branch", Msg: "condition n > 10 assumed true", Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 5}},
		{Kind: "branch", Msg: "loop condition i < n assumed true (body analyzed as one execution)", Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 7}},
		{Kind: "branch", Msg: "loop body entered (analyzed as one execution)", Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 9}},
		{Kind: "alloc", Msg: "p acquires a release obligation here", Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 4}},
	}}
	got := PathConds(p)
	want := []PathCond{
		{Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 3}, Cond: "p == NULL", Assumed: false},
		{Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 5}, Cond: "n > 10", Assumed: true},
		{Pos: ctoken.Pos{File: ctoken.FileOf("a.c"), Line: 7}, Cond: "i < n", Assumed: true, Loop: true},
	}
	if len(got) != len(want) {
		t.Fatalf("PathConds = %+v, want %d conds", got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cond[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if fn := WitnessFunction(p); fn != "f" {
		t.Errorf("WitnessFunction = %q, want \"f\"", fn)
	}
}

func TestPathCondsNil(t *testing.T) {
	if got := PathConds(nil); got != nil {
		t.Errorf("PathConds(nil) = %v, want nil", got)
	}
	if fn := WitnessFunction(nil); fn != "" {
		t.Errorf("WitnessFunction(nil) = %q, want empty", fn)
	}
}

// End-to-end: real witnesses produced by the checker must parse, and every
// branch condition spelled "condition X assumed ..." must be recovered. The
// branch trail survives into a witness only when the report site is inside
// the branch arm, so the source leaks on a conditional return.
func TestPathCondsOnCheckerWitnesses(t *testing.T) {
	src := map[string]string{"c.c": `#include <stdlib.h>

int condLeak (int n)
{
	char *p;

	p = (char *) malloc (8);
	if (p == NULL)
	{
		exit (EXIT_FAILURE);
	}
	if (n > 0)
	{
		return n;
	}
	free (p);
	return 0;
}
`}
	res := CheckSources(src, Options{Explain: true})
	if len(res.Diags) == 0 {
		t.Fatal("no diagnostics; test is vacuous")
	}
	sawCond, sawFunc := false, false
	for _, d := range res.Diags {
		if d.Prov == nil {
			continue
		}
		if fn := WitnessFunction(d.Prov); fn != "" {
			sawFunc = true
		}
		for _, c := range PathConds(d.Prov) {
			sawCond = true
			if c.Cond == "" {
				t.Errorf("empty condition parsed from witness of %s", d.String())
			}
			if !c.Pos.IsValid() {
				t.Errorf("condition %q has invalid position", c.Cond)
			}
		}
	}
	if !sawFunc {
		t.Error("no witness yielded a function name")
	}
	if !sawCond {
		t.Error("no witness yielded a parsed branch condition")
	}
}
