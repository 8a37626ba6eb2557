package core

// Tests reproducing the paper's worked examples (Figures 1-6 and the §5
// analysis walkthrough). These are the E1-E4 experiments in DESIGN.md.

import (
	"strings"
	"testing"

	"golclint/internal/diag"
	"golclint/internal/flags"
)

// check runs the checker over one file with default flags.
func check(t *testing.T, src string) *Result {
	t.Helper()
	res := CheckSource("sample.c", src, Options{})
	for _, e := range res.ParseErrors {
		t.Fatalf("parse error: %v", e)
	}
	for _, e := range res.SemaErrors {
		t.Fatalf("sema error: %v", e)
	}
	return res
}

func checkFlags(t *testing.T, src string, fl *flags.Flags) *Result {
	t.Helper()
	res := CheckSource("sample.c", src, Options{Flags: fl})
	for _, e := range res.ParseErrors {
		t.Fatalf("parse error: %v", e)
	}
	return res
}

// requireDiag asserts that some diagnostic has the given code, contains
// want in its message, and (line > 0) sits on the given line.
func requireDiag(t *testing.T, res *Result, code diag.Code, line int, want string) {
	t.Helper()
	for _, d := range res.Diags {
		if d.Code == code && strings.Contains(d.Msg, want) && (line <= 0 || int(d.Pos.Line) == line) {
			return
		}
	}
	t.Fatalf("missing %v diagnostic at line %d containing %q; got:\n%s",
		code, line, want, res.Messages())
}

func forbidDiag(t *testing.T, res *Result, code diag.Code) {
	t.Helper()
	for _, d := range res.Diags {
		if d.Code == code {
			t.Fatalf("unexpected %v diagnostic: %s", code, d)
		}
	}
}

// E1 — Figure 2: null parameter assigned to a non-null global produces an
// exit-point anomaly with a secondary note.
func TestSampleNull(t *testing.T) {
	src := `extern char *gname;

void setName (/*@null@*/ char *pname)
{
	gname = pname;
}
`
	res := check(t, src)
	requireDiag(t, res, diag.NullReturn, 6,
		"Function returns with non-null global gname referencing null storage")
	// The paper's Figure 2 run reports exactly this one anomaly.
	if len(res.Diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic, got:\n%s", res.Messages())
	}
	// The secondary note points at the assignment on line 5.
	for _, d := range res.Diags {
		if d.Code == diag.NullReturn {
			if len(d.Notes) != 1 || d.Notes[0].Pos.Line != 5 ||
				!strings.Contains(d.Notes[0].Msg, "gname may become null") {
				t.Fatalf("wrong note: %v", d)
			}
		}
	}
}

// E1 variant: without the null annotation there is no anomaly.
func TestSampleNoAnnotationClean(t *testing.T) {
	src := `extern char *gname;

void setName (char *pname)
{
	gname = pname;
}
`
	res := check(t, src)
	forbidDiag(t, res, diag.NullReturn)
}

// E1 variant: a null annotation on the global also resolves the anomaly.
func TestSampleNullGlobalClean(t *testing.T) {
	src := `extern /*@null@*/ char *gname;

void setName (/*@null@*/ char *pname)
{
	gname = pname;
}
`
	res := check(t, src)
	forbidDiag(t, res, diag.NullReturn)
}

// E2 — Figure 3: guarding the assignment with a truenull function removes
// the anomaly.
func TestSampleTruenullFixed(t *testing.T) {
	src := `extern char *gname;
extern /*@truenull@*/ int isNull (/*@null@*/ char *x);

void setName (/*@null@*/ char *pname)
{
	if (!isNull (pname))
	{
		gname = pname;
	}
}
`
	res := check(t, src)
	forbidDiag(t, res, diag.NullReturn)
	forbidDiag(t, res, diag.NullDeref)
}

// E2 variant: an ordinary comparison guard also works.
func TestSampleComparisonGuard(t *testing.T) {
	src := `extern char *gname;

void setName (/*@null@*/ char *pname)
{
	if (pname != NULL)
	{
		gname = pname;
	}
}
`
	res := check(t, src)
	forbidDiag(t, res, diag.NullReturn)
}

// E3 — Figure 4: only global assigned a temp parameter produces both the
// leak message and the alias-transfer message.
func TestSampleOnlyTemp(t *testing.T) {
	src := `extern /*@only@*/ char *gname;

void setName (/*@temp@*/ char *pname)
{
	gname = pname;
}
`
	res := check(t, src)
	requireDiag(t, res, diag.Leak, 5, "Only storage gname not released before assignment")
	requireDiag(t, res, diag.AliasTransfer, 5, "Temp storage pname assigned to only gname")
	// Notes name the declarations (lines 1 and 3).
	for _, d := range res.Diags {
		switch d.Code {
		case diag.Leak:
			if len(d.Notes) != 1 || d.Notes[0].Pos.Line != 1 {
				t.Fatalf("leak note wrong: %v", d)
			}
		case diag.AliasTransfer:
			if len(d.Notes) != 1 || d.Notes[0].Pos.Line != 3 ||
				!strings.Contains(d.Notes[0].Msg, "pname becomes temp") {
				t.Fatalf("transfer note wrong: %v", d)
			}
		}
	}
}

// E3 variant: transferring the obligation properly (only parameter to only
// global) is clean.
func TestSampleOnlyOnlyClean(t *testing.T) {
	src := `extern /*@only@*/ char *gname;
#include <stdlib.h>

void setName (/*@only@*/ char *pname)
{
	free (gname);
	gname = pname;
}
`
	res := check(t, src)
	if len(res.Diags) != 0 {
		t.Fatalf("expected clean, got:\n%s", res.Messages())
	}
}

// E4 — Figure 5: the buggy list_addh produces (a) a confluence anomaly for
// the only parameter e (kept on one path, only on the other) and (b) an
// incomplete-definition anomaly for the next field of the new node.
func TestListAddh(t *testing.T) {
	src := `typedef /*@null@*/ struct _list {
	/*@only@*/ char *this;
	/*@null@*/ /*@only@*/ struct _list *next;
} *list;

extern /*@out@*/ /*@only@*/ void *smalloc(unsigned long);

void list_addh(/*@temp@*/ list l, /*@only@*/ char *e)
{
	if (l != NULL)
	{
		while (l->next != NULL)
		{
			l = l->next;
		}
		l->next = (list) smalloc(sizeof(*l->next));
		l->next->this = e;
	}
}
`
	res := check(t, src)
	requireDiag(t, res, diag.Confluence, 0, "e")
	requireDiag(t, res, diag.IncompleteDef, 0, "next")
}

// E4 fixed: handling the null case and defining every field is clean.
func TestListAddhFixed(t *testing.T) {
	src := `typedef /*@null@*/ struct _list {
	/*@only@*/ char *this;
	/*@null@*/ /*@only@*/ struct _list *next;
} *list;

extern /*@out@*/ /*@only@*/ void *smalloc(unsigned long);

list list_addh(/*@temp@*/ /*@null@*/ list l, /*@only@*/ char *e)
{
	if (l == NULL)
	{
		l = (list) smalloc(sizeof(*l));
		l->this = e;
		l->next = NULL;
		return l;
	}
	while (l->next != NULL)
	{
		l = l->next;
	}
	l->next = (list) smalloc(sizeof(*l->next));
	l->next->this = e;
	l->next->next = NULL;
	return l;
}
`
	res := check(t, src)
	forbidDiag(t, res, diag.Confluence)
	forbidDiag(t, res, diag.IncompleteDef)
	forbidDiag(t, res, diag.NullDeref)
	forbidDiag(t, res, diag.LeakReturn)
}

// §5 walkthrough: the alias of l is limited to argl and argl->next (one
// loop unrolling, no back edge) — an alias created on the second iteration
// is missed. This documents the paper's stated incompleteness.
func TestKnownIncompleteness(t *testing.T) {
	src := `typedef /*@null@*/ struct _list {
	/*@only@*/ char *this;
	/*@null@*/ /*@only@*/ struct _list *next;
} *list;

#include <stdlib.h>

void drop_third(/*@temp@*/ list l)
{
	if (l != NULL)
	{
		while (l->next != NULL)
		{
			l = l->next;
		}
		free (l->next);
	}
}
`
	// free(l->next) releases storage reachable from the temp parameter:
	// with one unrolling l may alias argl or argl->next, so l->next
	// aliases argl->next or argl->next->next. Either way a use of
	// released temp-derived storage later would be missed for deeper
	// aliases; here we just assert the checker terminates and the alias
	// depth stays bounded (no fixpoint).
	res := check(t, src)
	_ = res
}

// Null dereference detection: arrow access through a possibly-null field.
func TestArrowFromPossiblyNull(t *testing.T) {
	src := `typedef struct { /*@null@*/ char *vals; int size; } *erc;

char firstChar (erc c)
{
	return *(c->vals);
}
`
	res := check(t, src)
	requireDiag(t, res, diag.NullDeref, 5, "possibly null pointer c->vals")
}

// Guarding with an assert removes the anomaly.
func TestAssertGuard(t *testing.T) {
	src := `typedef struct { /*@null@*/ char *vals; int size; } *erc;
#include <assert.h>

char firstChar (erc c)
{
	assert (c->vals != NULL);
	return *(c->vals);
}
`
	res := check(t, src)
	forbidDiag(t, res, diag.NullDeref)
}

// Use after free (dead pointer).
func TestUseAfterFree(t *testing.T) {
	src := `#include <stdlib.h>

char deref (void)
{
	char *p;
	p = (char *) malloc (10);
	if (p == NULL) { exit (1); }
	*p = 'a';
	free (p);
	return *p;
}
`
	res := check(t, src)
	requireDiag(t, res, diag.UseDead, 10, "used after release")
}

// Double release.
func TestDoubleFree(t *testing.T) {
	src := `#include <stdlib.h>

void twice (void)
{
	char *p;
	p = (char *) malloc (10);
	free (p);
	free (p);
}
`
	res := check(t, src)
	requireDiag(t, res, diag.UseDead, 8, "used after release")
}

// Leak: allocation never released before return.
func TestLeakLocal(t *testing.T) {
	src := `#include <stdlib.h>

void leaky (void)
{
	char *p;
	p = (char *) malloc (10);
	if (p == NULL) { return; }
	*p = 'a';
}
`
	res := check(t, src)
	requireDiag(t, res, diag.Leak, 0, "not released before return")
}

// Leak: reassignment loses the last reference (the §6 driver bugs).
func TestLeakReassign(t *testing.T) {
	src := `#include <stdlib.h>

void lose (void)
{
	char *p;
	p = (char *) malloc (10);
	p = (char *) malloc (20);
	free (p);
}
`
	res := check(t, src)
	requireDiag(t, res, diag.Leak, 7, "not released before assignment")
}

// No leak when the storage is freed.
func TestNoLeakWhenFreed(t *testing.T) {
	src := `#include <stdlib.h>

void fine (void)
{
	char *p;
	p = (char *) malloc (10);
	free (p);
}
`
	res := check(t, src)
	forbidDiag(t, res, diag.Leak)
}

// Dereference of possibly-null malloc result.
func TestMallocNullDeref(t *testing.T) {
	src := `#include <stdlib.h>

void store (void)
{
	char *p;
	p = (char *) malloc (10);
	*p = 'a';
	free (p);
}
`
	res := check(t, src)
	requireDiag(t, res, diag.NullDeref, 7, "possibly null")
}

// Use before definition.
func TestUseBeforeDef(t *testing.T) {
	src := `int use (void)
{
	int x;
	return x;
}
`
	res := check(t, src)
	requireDiag(t, res, diag.UseUndef, 4, "used before definition")
}

// Incomplete definition: malloc'd struct passed as completely defined.
func TestIncompleteArg(t *testing.T) {
	src := `#include <stdlib.h>
typedef struct { int a; int b; } pair;
extern void take (pair *p);

void go (void)
{
	pair *p;
	p = (pair *) malloc (sizeof (pair));
	if (p == NULL) { exit (1); }
	take (p);
	free (p);
}
`
	res := check(t, src)
	requireDiag(t, res, diag.IncompleteDef, 10, "not completely defined")
}

// Out parameter: callee must define it; caller may pass allocated storage.
func TestOutParam(t *testing.T) {
	src := `#include <stdlib.h>
typedef struct { int a; int b; } pair;

void fill (/*@out@*/ pair *p)
{
	p->a = 1;
	p->b = 2;
}

void go (void)
{
	pair *p;
	p = (pair *) malloc (sizeof (pair));
	if (p == NULL) { exit (1); }
	fill (p);
	free (p);
}
`
	res := check(t, src)
	if len(res.Diags) != 0 {
		t.Fatalf("expected clean, got:\n%s", res.Messages())
	}
}

// Out parameter not fully defined by the implementation.
func TestOutParamIncomplete(t *testing.T) {
	src := `typedef struct { int a; int b; } pair;

void fill (/*@out@*/ pair *p)
{
	p->a = 1;
}
`
	res := check(t, src)
	requireDiag(t, res, diag.IncompleteDef, 0, "not completely defined")
}

// Unique parameter aliasing (the §6 employee_setName anomaly).
func TestUniqueAliased(t *testing.T) {
	src := `#include <string.h>
typedef struct { char name[8]; int salary; } employee;

int setName (employee *e, char *s)
{
	strcpy (e->name, s);
	return 1;
}
`
	res := check(t, src)
	requireDiag(t, res, diag.UniqueAliased, 6, "declared unique but may be aliased externally by parameter 2")
}

// Unique satisfied by fresh storage: no anomaly.
func TestUniqueFreshOK(t *testing.T) {
	src := `#include <stdlib.h>
#include <string.h>

char *dup (char *s)
{
	char *p;
	p = (char *) malloc (100);
	if (p == NULL) { exit (1); }
	strcpy (p, s);
	return p;
}
`
	res := checkFlags(t, src, func() *flags.Flags { f := flags.Default(); return f }())
	forbidDiag(t, res, diag.UniqueAliased)
}

// Returning fresh storage without an only annotation (§6: memory leak
// suspected) — run with -allimponly so the implicit only is off.
func TestLeakReturn(t *testing.T) {
	src := `#include <stdlib.h>

char *make (void)
{
	char *p;
	p = (char *) malloc (10);
	if (p == NULL) { exit (1); }
	*p = 'x';
	return p;
}
`
	fl := flags.Default()
	fl.ImplicitOnly = false
	res := checkFlags(t, src, fl)
	requireDiag(t, res, diag.LeakReturn, 9, "memory leak suspected")
}

// With implicit only (the default), returning fresh storage is clean.
func TestImplicitOnlyReturn(t *testing.T) {
	src := `#include <stdlib.h>

char *make (void)
{
	char *p;
	p = (char *) malloc (10);
	if (p == NULL) { exit (1); }
	*p = 'x';
	return p;
}
`
	res := check(t, src)
	forbidDiag(t, res, diag.LeakReturn)
	forbidDiag(t, res, diag.Leak)
}

// Releasing on one path only: confluence anomaly.
func TestReleaseOnePathOnly(t *testing.T) {
	src := `#include <stdlib.h>

void maybe (char *cond, /*@only@*/ char *p)
{
	if (*cond)
	{
		free (p);
	}
	*cond = 'x';
}
`
	res := check(t, src)
	requireDiag(t, res, diag.Confluence, 0, "p")
}

// GC mode disables leak reporting.
func TestGCMode(t *testing.T) {
	src := `#include <stdlib.h>

void leaky (void)
{
	char *p;
	p = (char *) malloc (10);
	if (p == NULL) { return; }
	*p = 'a';
}
`
	fl := flags.Default()
	fl.GCMode = true
	res := checkFlags(t, src, fl)
	forbidDiag(t, res, diag.Leak)
}

// Suppression comments work end to end.
func TestSuppression(t *testing.T) {
	src := `#include <stdlib.h>

void leaky (void)
{
	char *p;
	p = (char *) malloc (10);
	if (p == NULL) { return; }
	*p = 'a';
	/*@i@*/
}
`
	res := check(t, src)
	forbidDiag(t, res, diag.Leak)
	if res.Suppressed == 0 {
		t.Fatal("expected a suppressed message")
	}
}

// exit() terminates the path: no bogus merges from the error branch.
func TestNoReturnExit(t *testing.T) {
	src := `#include <stdlib.h>

char *mk (void)
{
	char *c;
	c = (char *) malloc (4);
	if (c == NULL) { exit (EXIT_FAILURE); }
	*c = 'x';
	return c;
}
`
	res := check(t, src)
	if len(res.Diags) != 0 {
		t.Fatalf("expected clean, got:\n%s", res.Messages())
	}
}
