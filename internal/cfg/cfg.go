// Package cfg builds per-function control-flow graphs with the paper's
// simplifications (§2, §5): loops contribute no back edges (a while loop is
// "treated identically to an if statement"), so every graph is acyclic and
// the checker's single forward pass visits each node once. The package also
// renders graphs in the style of the paper's Figure 6 and provides
// reachability queries used for unreachable-code reporting and the
// no-fixpoint benchmarks (experiment E14).
package cfg

import (
	"fmt"
	"strings"

	"golclint/internal/cast"
	"golclint/internal/ctoken"
)

// NodeKind classifies CFG nodes.
type NodeKind int

// Node kinds.
const (
	Entry NodeKind = iota
	Exit
	Stmt   // a simple statement (expression, declaration, return, ...)
	Branch // a two-way condition test
	Merge  // a confluence point
)

var kindNames = map[NodeKind]string{
	Entry: "entry", Exit: "exit", Stmt: "stmt", Branch: "branch", Merge: "merge",
}

// String returns the kind name.
func (k NodeKind) String() string { return kindNames[k] }

// Node is one vertex of the control-flow graph.
type Node struct {
	ID    int
	Kind  NodeKind
	Label string // source text or description ("" when built without labels)
	Pos   ctoken.Pos
	Succs []*Node
	Preds []*Node
}

// Graph is the control-flow graph of one function.
type Graph struct {
	FuncName string
	Nodes    []*Node
	Entry    *Node
	Exit     *Node
}

// Builder constructs CFGs repeatedly, recycling node storage between calls.
// A graph returned by (*Builder).Build is valid only until the next Build on
// the same Builder, and its nodes carry no labels — the checker never reads
// them; callers that render graphs (-cfg dumps) use the package-level Build,
// which keeps labels and allocates fresh nodes.
type Builder struct {
	g          Graph
	breakTo    []*Node
	continueTo []*Node
	labels     bool

	pool []*Node
	used int
}

// NewBuilder returns a Builder that recycles node storage and skips label
// rendering.
func NewBuilder() *Builder { return &Builder{} }

// Build constructs the acyclic CFG of a function definition with labeled,
// freshly allocated nodes (safe to retain).
func Build(f *cast.FuncDef) *Graph {
	b := &Builder{labels: true}
	g := b.Build(f)
	return g
}

// Build constructs the acyclic CFG of f, reusing the Builder's node storage.
func (b *Builder) Build(f *cast.FuncDef) *Graph {
	b.used = 0
	b.breakTo = b.breakTo[:0]
	b.continueTo = b.continueTo[:0]
	g := &b.g
	*g = Graph{FuncName: f.Name, Nodes: g.Nodes[:0]}
	g.Entry = b.newNode(Entry, f.Pos())
	g.Exit = b.newNode(Exit, f.Pos())
	if b.labels {
		g.Entry.Label = "Function Entrance"
		g.Exit.Label = "Function Exit"
	}
	last := b.stmt(g.Entry, f.Body)
	edge(last, g.Exit)
	return g
}

// newNode appends a node to the graph, recycling a pooled node when one is
// available.
func (b *Builder) newNode(kind NodeKind, pos ctoken.Pos) *Node {
	var n *Node
	if b.used < len(b.pool) {
		n = b.pool[b.used]
		*n = Node{Kind: kind, Pos: pos, Succs: n.Succs[:0], Preds: n.Preds[:0]}
	} else {
		n = &Node{Kind: kind, Pos: pos}
		b.pool = append(b.pool, n)
	}
	b.used++
	n.ID = len(b.g.Nodes) + 1
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

// edge links from -> to.
func edge(from, to *Node) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// stmt wires the statement s after node cur and returns the node that
// control flows out of (nil if the path ends, e.g. after return).
func (b *Builder) stmt(cur *Node, s cast.Stmt) *Node {
	// A nil cur means the path already terminated; nodes are still
	// created (with no incoming edges) so Unreachable can report them.
	g := &b.g
	switch v := s.(type) {
	case *cast.Block:
		terminated := false
		for _, item := range v.Items {
			cur = b.stmt(cur, item)
			if cur == nil {
				terminated = true
			}
		}
		if terminated && cur != nil {
			// Dead statements after a terminator do not resurrect the
			// path.
			return nil
		}
		return cur
	case *cast.Empty, *cast.Label, *cast.Case:
		return cur
	case *cast.DeclStmt:
		n := b.newNode(Stmt, v.P)
		if b.labels {
			n.Label = declLabel(v)
		}
		edge(cur, n)
		return n
	case *cast.ExprStmt:
		n := b.newNode(Stmt, v.P)
		if b.labels {
			n.Label = fmt.Sprintf("%d: %s", v.P.Line, cast.ExprString(v.X))
		}
		edge(cur, n)
		return n
	case *cast.Return:
		n := b.newNode(Stmt, v.P)
		if b.labels {
			n.Label = fmt.Sprintf("%d: return %s", v.P.Line, cast.ExprString(v.X))
		}
		edge(cur, n)
		edge(n, g.Exit)
		return nil
	case *cast.Goto:
		// Forward gotos exit the path in the paper's structured model.
		n := b.newNode(Stmt, v.P)
		if b.labels {
			n.Label = fmt.Sprintf("%d: goto %s", v.P.Line, v.Label)
		}
		edge(cur, n)
		edge(n, g.Exit)
		return nil
	case *cast.Break:
		if len(b.breakTo) > 0 {
			edge(cur, b.breakTo[len(b.breakTo)-1])
		}
		return nil
	case *cast.Continue:
		if len(b.continueTo) > 0 {
			edge(cur, b.continueTo[len(b.continueTo)-1])
		}
		return nil
	case *cast.If:
		br := b.newNode(Branch, v.P)
		if b.labels {
			br.Label = fmt.Sprintf("%d: if (%s)", v.P.Line, cast.ExprString(v.Cond))
		}
		edge(cur, br)
		m := b.newNode(Merge, v.P)
		if b.labels {
			m.Label = "merge"
		}
		thenEnd := b.stmt(br, v.Then)
		edge(thenEnd, m)
		if v.Else != nil {
			elseEnd := b.stmt(br, v.Else)
			edge(elseEnd, m)
		} else {
			edge(br, m)
		}
		if len(m.Preds) == 0 {
			return nil
		}
		return m
	case *cast.While:
		// No back edge: the loop body flows forward into the merge, which
		// also receives the zero-iteration path (§5: "The while loop is
		// treated identically to an if statement — there is no back edge").
		br := b.newNode(Branch, v.P)
		if b.labels {
			br.Label = fmt.Sprintf("%d: while (%s)", v.P.Line, cast.ExprString(v.Cond))
		}
		edge(cur, br)
		m := b.newNode(Merge, v.P)
		if b.labels {
			m.Label = "merge"
		}
		b.breakTo = append(b.breakTo, m)
		b.continueTo = append(b.continueTo, m)
		bodyEnd := b.stmt(br, v.Body)
		b.breakTo = b.breakTo[:len(b.breakTo)-1]
		b.continueTo = b.continueTo[:len(b.continueTo)-1]
		edge(bodyEnd, m)
		edge(br, m) // zero-iteration path
		return m
	case *cast.DoWhile:
		m := b.newNode(Merge, v.P)
		if b.labels {
			m.Label = "merge"
		}
		b.breakTo = append(b.breakTo, m)
		b.continueTo = append(b.continueTo, m)
		bodyEnd := b.stmt(cur, v.Body)
		b.breakTo = b.breakTo[:len(b.breakTo)-1]
		b.continueTo = b.continueTo[:len(b.continueTo)-1]
		br := b.newNode(Branch, v.P)
		if b.labels {
			br.Label = fmt.Sprintf("%d: do-while (%s)", v.P.Line, cast.ExprString(v.Cond))
		}
		edge(bodyEnd, br)
		edge(br, m)
		return m
	case *cast.For:
		if v.Init != nil {
			cur = b.stmt(cur, v.Init)
		}
		br := b.newNode(Branch, v.P)
		if b.labels {
			label := "for (;;)"
			if v.Cond != nil {
				label = fmt.Sprintf("for (%s)", cast.ExprString(v.Cond))
			}
			br.Label = fmt.Sprintf("%d: %s", v.P.Line, label)
		}
		edge(cur, br)
		m := b.newNode(Merge, v.P)
		if b.labels {
			m.Label = "merge"
		}
		b.breakTo = append(b.breakTo, m)
		b.continueTo = append(b.continueTo, m)
		bodyEnd := b.stmt(br, v.Body)
		b.breakTo = b.breakTo[:len(b.breakTo)-1]
		b.continueTo = b.continueTo[:len(b.continueTo)-1]
		if v.Post != nil && bodyEnd != nil {
			p := b.newNode(Stmt, v.P)
			if b.labels {
				p.Label = fmt.Sprintf("%d: %s", v.P.Line, cast.ExprString(v.Post))
			}
			edge(bodyEnd, p)
			bodyEnd = p
		}
		edge(bodyEnd, m)
		if v.Cond != nil {
			edge(br, m) // zero-iteration path
		}
		if len(m.Preds) == 0 {
			return nil
		}
		return m
	case *cast.Switch:
		br := b.newNode(Branch, v.P)
		if b.labels {
			br.Label = fmt.Sprintf("%d: switch (%s)", v.P.Line, cast.ExprString(v.Tag))
		}
		edge(cur, br)
		m := b.newNode(Merge, v.P)
		if b.labels {
			m.Label = "merge"
		}
		b.breakTo = append(b.breakTo, m)
		hasDefault := false
		if body, ok := v.Body.(*cast.Block); ok {
			var armEnd *Node
			for _, item := range body.Items {
				if cs, isCase := item.(*cast.Case); isCase {
					if cs.Value == nil {
						hasDefault = true
					}
					armStart := b.newNode(Merge, cs.P)
					if b.labels {
						armStart.Label = caseLabel(cs)
					}
					edge(br, armStart)
					edge(armEnd, armStart) // fallthrough
					armEnd = armStart
					continue
				}
				armEnd = b.stmt(armEnd, item)
			}
			edge(armEnd, m)
		} else {
			edge(b.stmt(br, v.Body), m)
		}
		b.breakTo = b.breakTo[:len(b.breakTo)-1]
		if !hasDefault {
			edge(br, m) // no-match path
		}
		if len(m.Preds) == 0 {
			return nil
		}
		return m
	}
	return cur
}

func declLabel(v *cast.DeclStmt) string {
	var names []string
	for _, d := range v.Decls {
		if vd, ok := d.(*cast.VarDecl); ok {
			names = append(names, vd.Name)
		}
	}
	return fmt.Sprintf("%d: decl %s", v.P.Line, strings.Join(names, ", "))
}

func caseLabel(cs *cast.Case) string {
	if cs.Value == nil {
		return "default:"
	}
	return "case " + cast.ExprString(cs.Value) + ":"
}

// IsAcyclic verifies the no-back-edge property (every graph built by this
// package must satisfy it; exposed for property tests).
func (g *Graph) IsAcyclic() bool {
	state := make(map[*Node]int, len(g.Nodes)) // 0 unvisited, 1 on stack, 2 done
	var visit func(n *Node) bool
	visit = func(n *Node) bool {
		switch state[n] {
		case 1:
			return false
		case 2:
			return true
		}
		state[n] = 1
		for _, s := range n.Succs {
			if !visit(s) {
				return false
			}
		}
		state[n] = 2
		return true
	}
	return visit(g.Entry)
}

// Topo returns the nodes in a topological order starting at Entry.
func (g *Graph) Topo() []*Node {
	var order []*Node
	seen := map[*Node]bool{}
	var visit func(n *Node)
	visit = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, s := range n.Succs {
			visit(s)
		}
		order = append(order, n)
	}
	visit(g.Entry)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// reachable marks node IDs reachable from Entry in a dense slice (IDs are
// 1..len(Nodes)).
func (g *Graph) reachable() []bool {
	seen := make([]bool, len(g.Nodes)+1)
	stack := make([]*Node, 0, 16)
	stack = append(stack, g.Entry)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n.ID] {
			continue
		}
		seen[n.ID] = true
		stack = append(stack, n.Succs...)
	}
	return seen
}

// Reachable returns the set of nodes reachable from Entry.
func (g *Graph) Reachable() map[*Node]bool {
	seen := g.reachable()
	out := make(map[*Node]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		if seen[n.ID] {
			out[n] = true
		}
	}
	return out
}

// Unreachable returns statement nodes not reachable from Entry (dead code).
func (g *Graph) Unreachable() []*Node {
	reach := g.reachable()
	var out []*Node
	for _, n := range g.Nodes {
		if !reach[n.ID] && (n.Kind == Stmt || n.Kind == Branch) {
			out = append(out, n)
		}
	}
	return out
}

// PathToLine returns a shortest block path from Entry to the first
// reachable statement or branch node on the given source line, or nil if no
// node matches. The checker uses it under -explain to show which execution
// points a diagnostic's witness traverses. Deterministic: BFS visits
// successors in build order, so equal-length paths resolve to the
// first-built one.
func (g *Graph) PathToLine(line int32) []*Node {
	if g == nil || g.Entry == nil {
		return nil
	}
	prev := make([]*Node, len(g.Nodes)+1)
	seen := make([]bool, len(g.Nodes)+1)
	queue := make([]*Node, 0, 16)
	queue = append(queue, g.Entry)
	seen[g.Entry.ID] = true
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.Pos.Line == line && (n.Kind == Stmt || n.Kind == Branch) {
			var path []*Node
			for cur := n; cur != nil; cur = prev[cur.ID] {
				path = append(path, cur)
			}
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			return path
		}
		for _, s := range n.Succs {
			if !seen[s.ID] {
				seen[s.ID] = true
				prev[s.ID] = n
				queue = append(queue, s)
			}
		}
	}
	return nil
}

// Dump renders the graph in the style of the paper's Figure 6: numbered
// execution points with their successor lists.
func (g *Graph) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "control flow graph for %s (no back edges)\n", g.FuncName)
	for _, n := range g.Topo() {
		var succs []string
		for _, s := range n.Succs {
			succs = append(succs, fmt.Sprintf("%d", s.ID))
		}
		label := n.Label
		if label == "" {
			label = n.Kind.String()
		}
		fmt.Fprintf(&b, "  (%d) %-40s -> %s\n", n.ID, label, strings.Join(succs, ", "))
	}
	return b.String()
}
