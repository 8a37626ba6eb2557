package cfg

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"golclint/internal/cast"
	"golclint/internal/cparse"
)

func buildFor(t *testing.T, src string) *Graph {
	t.Helper()
	r := cparse.Parse("t.c", src)
	if len(r.Errors) > 0 {
		t.Fatalf("parse: %v", r.Errors)
	}
	fs := r.Unit.Funcs()
	if len(fs) == 0 {
		t.Fatal("no function")
	}
	return Build(fs[0])
}

func TestStraightLine(t *testing.T) {
	g := buildFor(t, "void f(void) { int x; x = 1; x = 2; }")
	if !g.IsAcyclic() {
		t.Fatal("cyclic")
	}
	// entry -> decl -> stmt -> stmt -> exit
	order := g.Topo()
	if order[0] != g.Entry || order[len(order)-1] != g.Exit {
		t.Fatal("topo endpoints wrong")
	}
	if len(g.Nodes) != 5 {
		t.Fatalf("nodes = %d", len(g.Nodes))
	}
}

func TestIfElse(t *testing.T) {
	g := buildFor(t, "void f(int a) { if (a) { a = 1; } else { a = 2; } a = 3; }")
	var branch, merge *Node
	for _, n := range g.Nodes {
		switch n.Kind {
		case Branch:
			branch = n
		case Merge:
			merge = n
		}
	}
	if branch == nil || merge == nil {
		t.Fatal("missing branch/merge")
	}
	if len(branch.Succs) != 2 {
		t.Fatalf("branch succs = %d", len(branch.Succs))
	}
	if len(merge.Preds) != 2 {
		t.Fatalf("merge preds = %d", len(merge.Preds))
	}
}

func TestWhileNoBackEdge(t *testing.T) {
	// The paper's Figure 6 property: loops have no back edge.
	g := buildFor(t, "void f(int n) { while (n) { n = n - 1; } n = 9; }")
	if !g.IsAcyclic() {
		t.Fatal("while loop produced a cycle")
	}
	// Zero-iteration and one-iteration paths both reach the merge.
	var merge *Node
	for _, n := range g.Nodes {
		if n.Kind == Merge {
			merge = n
		}
	}
	if merge == nil || len(merge.Preds) != 2 {
		t.Fatalf("loop merge preds = %v", merge)
	}
}

func TestFigure6Shape(t *testing.T) {
	// The list_addh graph from the paper: if around while plus two
	// statements. The dump should show the while branch with both paths.
	src := `typedef /*@null@*/ struct _list { char *this; struct _list *next; } *list;
void list_addh(list l, char *e)
{
	if (l != 0)
	{
		while (l->next != 0)
		{
			l = l->next;
		}
		l->next = smalloc(8);
		l->next->this = e;
	}
}
`
	g := buildFor(t, src)
	if !g.IsAcyclic() {
		t.Fatal("cyclic")
	}
	d := g.Dump()
	for _, want := range []string{"Function Entrance", "if (l != 0)", "while (l->next != 0)", "l = l->next", "Function Exit"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
	branches := 0
	for _, n := range g.Nodes {
		if n.Kind == Branch {
			branches++
		}
	}
	if branches != 2 {
		t.Fatalf("branches = %d, want 2", branches)
	}
}

func TestReturnEndsPath(t *testing.T) {
	g := buildFor(t, "int f(int a) { if (a) { return 1; } return 2; }")
	if !g.IsAcyclic() {
		t.Fatal("cyclic")
	}
	if len(g.Exit.Preds) != 2 {
		t.Fatalf("exit preds = %d", len(g.Exit.Preds))
	}
}

func TestUnreachableAfterReturn(t *testing.T) {
	g := buildFor(t, "int f(void) { return 1; f(); return 2; }")
	dead := g.Unreachable()
	if len(dead) == 0 {
		t.Fatal("expected unreachable nodes")
	}
}

func TestBreakContinue(t *testing.T) {
	g := buildFor(t, `void f(int n) {
	while (n) {
		if (n == 1) { break; }
		if (n == 2) { continue; }
		n = n - 1;
	}
}`)
	if !g.IsAcyclic() {
		t.Fatal("cyclic")
	}
}

func TestForLoop(t *testing.T) {
	g := buildFor(t, "void f(void) { int i; for (i = 0; i < 4; i++) { g2(i); } }")
	if !g.IsAcyclic() {
		t.Fatal("cyclic")
	}
	d := g.Dump()
	if !strings.Contains(d, "for (i < 4)") {
		t.Fatalf("dump:\n%s", d)
	}
}

func TestForInfinite(t *testing.T) {
	g := buildFor(t, "void f(void) { for (;;) { g2(1); break; } g2(2); }")
	if !g.IsAcyclic() {
		t.Fatal("cyclic")
	}
}

func TestDoWhile(t *testing.T) {
	g := buildFor(t, "void f(int n) { do { n--; } while (n > 0); }")
	if !g.IsAcyclic() {
		t.Fatal("cyclic")
	}
	if !strings.Contains(g.Dump(), "do-while") {
		t.Fatal("missing do-while node")
	}
}

func TestSwitch(t *testing.T) {
	g := buildFor(t, `void f(int n) {
	switch (n) {
	case 0: n = 1; break;
	case 1: n = 2; break;
	default: n = 3; break;
	}
}`)
	if !g.IsAcyclic() {
		t.Fatal("cyclic")
	}
	d := g.Dump()
	for _, want := range []string{"switch (n)", "case 0:", "default:"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q", want)
		}
	}
}

func TestSwitchNoDefaultHasSkipPath(t *testing.T) {
	g := buildFor(t, "void f(int n) { switch (n) { case 0: n = 1; break; } n = 5; }")
	var sw *Node
	for _, n := range g.Nodes {
		if n.Kind == Branch && strings.Contains(n.Label, "switch") {
			sw = n
		}
	}
	if sw == nil || len(sw.Succs) != 2 {
		t.Fatalf("switch succs: %v", sw)
	}
}

func TestGotoEndsPath(t *testing.T) {
	g := buildFor(t, "void f(void) { goto done; g2(); done: ; }")
	if !g.IsAcyclic() {
		t.Fatal("cyclic")
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g := buildFor(t, "void f(int a) { if (a) { a = 1; } while (a) { a--; } return; }")
	index := map[*Node]int{}
	for i, n := range g.Topo() {
		index[n] = i
	}
	for _, n := range g.Nodes {
		for _, s := range n.Succs {
			if index[n] >= index[s] {
				// Unreached nodes are appended at the end; only check
				// reachable ones.
				if reach := g.reachable(); reach[n.ID] && reach[s.ID] {
					t.Fatalf("edge %d->%d violates topo order", n.ID, s.ID)
				}
			}
		}
	}
}

// Property: every CFG built from generated structured programs is acyclic
// (the no-fixpoint guarantee) and entry reaches exit for terminating shapes.
func TestAcyclicProperty(t *testing.T) {
	stmts := []string{
		"x = 1;", "if (x) { x = 2; }", "if (x) { x = 3; } else { x = 4; }",
		"while (x) { x = x - 1; }", "for (x = 0; x < 3; x++) { g2(x); }",
		"do { x--; } while (x);",
		"switch (x) { case 1: x = 0; break; default: x = 2; }",
		"if (x) { return; }",
		"while (x) { if (x == 2) { break; } x--; }",
	}
	f := func(picks []uint8) bool {
		var b strings.Builder
		b.WriteString("void f(int x) {\n")
		for _, p := range picks {
			b.WriteString(stmts[int(p)%len(stmts)])
			b.WriteByte('\n')
		}
		b.WriteString("}\n")
		r := cparse.Parse("gen.c", b.String())
		if len(r.Errors) > 0 {
			return false
		}
		g := Build(r.Unit.Funcs()[0])
		return g.IsAcyclic()
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: node count grows linearly with statement count (no blowup).
func TestLinearSize(t *testing.T) {
	mk := func(n int) string {
		var b strings.Builder
		b.WriteString("void f(int x) {\n")
		for i := 0; i < n; i++ {
			b.WriteString("if (x) { x = x + 1; } while (x) { x = x - 1; }\n")
		}
		b.WriteString("}\n")
		return b.String()
	}
	r10 := cparse.Parse("a.c", mk(10))
	r100 := cparse.Parse("b.c", mk(100))
	g10 := Build(r10.Unit.Funcs()[0])
	g100 := Build(r100.Unit.Funcs()[0])
	ratio := float64(len(g100.Nodes)) / float64(len(g10.Nodes))
	if ratio > 11 {
		t.Fatalf("superlinear growth: %d vs %d nodes", len(g10.Nodes), len(g100.Nodes))
	}
}

func TestEmptyFunction(t *testing.T) {
	g := buildFor(t, "void f(void) { }")
	if !g.IsAcyclic() || len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("empty function CFG wrong: %s", g.Dump())
	}
}

var _ = cast.ExprString // keep import for label helpers used indirectly

func TestPathToLine(t *testing.T) {
	g := buildFor(t, `void f(int a) {
int x;
if (a) {
x = 1;
} else {
x = 2;
}
x = 3;
}`)
	// Line 4 ("x = 1") sits inside the then-arm: the path must start at
	// Entry, pass through the branch, and end on the line-4 node.
	path := g.PathToLine(4)
	if len(path) < 3 {
		t.Fatalf("path = %v", path)
	}
	if path[0] != g.Entry {
		t.Error("path does not start at entry")
	}
	last := path[len(path)-1]
	if last.Pos.Line != 4 || last.Kind != Stmt {
		t.Errorf("path ends at %+v, want the line-4 statement", last)
	}
	for _, n := range path[:len(path)-1] {
		if n.Pos.Line == 4 {
			t.Error("interior node already on target line; path not minimal")
		}
	}
	if g.PathToLine(999) != nil {
		t.Error("nonexistent line produced a path")
	}
	// Determinism: repeated queries return the identical node sequence.
	again := g.PathToLine(4)
	if len(again) != len(path) {
		t.Fatalf("path length changed across calls: %d vs %d", len(again), len(path))
	}
	for i := range path {
		if path[i] != again[i] {
			t.Errorf("path step %d differs across calls", i)
		}
	}
}
