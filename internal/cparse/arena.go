package cparse

import (
	"golclint/internal/cast"
	"golclint/internal/ctoken"
)

// slabChunk is the number of nodes allocated per slab chunk. AST nodes are
// retained for the life of the Result, so chunks are never rewound — the
// win is amortizing ~slabChunk node allocations into one make.
const slabChunk = 64

// slab hands out *T pointers carved from chunked backing arrays. When a
// chunk fills, the slab starts a fresh one; pointers into full chunks stay
// valid because those arrays remain reachable through the returned *Ts.
type slab[T any] struct {
	buf []T
}

func (s *slab[T]) alloc(v T) *T {
	p := s.slot()
	*p = v
	return p
}

// slot returns a pointer to the next slot, zeroed.
func (s *slab[T]) slot() *T {
	if len(s.buf) == cap(s.buf) {
		s.buf = make([]T, 0, slabChunk)
	}
	s.buf = s.buf[:len(s.buf)+1]
	return &s.buf[len(s.buf)-1]
}

// sliceStack builds retained slices without a per-slice allocation.
// Builders push elements between mark() and take(); nesting works because
// an inner builder marks above the outer's pushes and takes back down to
// its own mark before the outer resumes. The backing buffer is scratch
// reused across every slice built (and, via Session, across files); taken
// slices are carved from shared chunks, amortizing many small makes into
// one per heapChunk elements.
type sliceStack[T any] struct {
	buf  []T
	heap []T
}

// heapChunk is the element count of each carve chunk backing taken slices.
const heapChunk = 1024

func (s *sliceStack[T]) mark() int  { return len(s.buf) }
func (s *sliceStack[T]) len() int   { return len(s.buf) }
func (s *sliceStack[T]) push(v T)   { s.buf = append(s.buf, v) }
func (s *sliceStack[T]) drop(m int) { s.buf = s.buf[:m] }

// take pops everything above m into a slice carved from the chunk heap
// (nil if empty). The result's capacity equals its length, so a caller
// that appends reallocates rather than clobbering the next carve.
func (s *sliceStack[T]) take(m int) []T {
	n := len(s.buf) - m
	if n == 0 {
		return nil
	}
	if n > len(s.heap) {
		c := heapChunk
		if n > c {
			c = n
		}
		s.heap = make([]T, c)
	}
	out := s.heap[:n:n]
	s.heap = s.heap[n:]
	copy(out, s.buf[m:])
	s.buf = s.buf[:m]
	return out
}

// nodeArena bulk-allocates the AST node types that dominate the frontend
// allocation profile (expression leaves and the common statement forms).
// Rare node kinds (tags, typedefs, switch machinery, float/char/string
// literals) keep plain allocation — slabbing them buys nothing.
type nodeArena struct {
	ident    slab[cast.Ident]
	intLit   slab[cast.IntLit]
	binary   slab[cast.Binary]
	unary    slab[cast.Unary]
	call     slab[cast.Call]
	index    slab[cast.Index]
	fieldSel slab[cast.FieldSel]
	assign   slab[cast.Assign]
	block    slab[cast.Block]
	exprStmt slab[cast.ExprStmt]
	declStmt slab[cast.DeclStmt]
	ifStmt   slab[cast.If]
	while    slab[cast.While]
	forStmt  slab[cast.For]
	ret      slab[cast.Return]
	varDecl  slab[cast.VarDecl]
	param    slab[cast.ParamDecl]
}

// The node kinds below are the bulk of every AST. Storing a whole node
// into its slot (alloc) is a struct copy too large for registers, which
// the runtime performs with a bulk write barrier walking the type's
// pointer map whenever the GC is marking, as it is for much of a parse.
// Their constructors fill the zeroed slot field by field instead, so each
// pointer store takes the plain write barrier.

// setPos copies a position into a node field by field.
func setPos(dst *ctoken.Pos, src ctoken.Pos) {
	dst.File, dst.Line, dst.Col, dst.Off = src.File, src.Line, src.Col, src.Off
}

func (a *nodeArena) newIdent(pos ctoken.Pos, name string) *cast.Ident {
	n := a.ident.slot()
	setPos(&n.P, pos)
	n.Name = name
	return n
}

func (a *nodeArena) newIntLit(pos ctoken.Pos, text string, v int64) *cast.IntLit {
	n := a.intLit.slot()
	setPos(&n.P, pos)
	n.Text, n.Value = text, v
	return n
}

func (a *nodeArena) newBinary(pos ctoken.Pos, op cast.BinaryOp, x, y cast.Expr) *cast.Binary {
	n := a.binary.slot()
	setPos(&n.P, pos)
	n.Op, n.X, n.Y = op, x, y
	return n
}

func (a *nodeArena) newUnary(pos ctoken.Pos, op cast.UnaryOp, x cast.Expr) *cast.Unary {
	n := a.unary.slot()
	setPos(&n.P, pos)
	n.Op, n.X = op, x
	return n
}

func (a *nodeArena) newAssign(pos ctoken.Pos, op cast.AssignOp, lhs, rhs cast.Expr) *cast.Assign {
	n := a.assign.slot()
	setPos(&n.P, pos)
	n.Op, n.LHS, n.RHS = op, lhs, rhs
	return n
}

func (a *nodeArena) newExprStmt(x cast.Expr) *cast.ExprStmt {
	n := a.exprStmt.slot()
	setPos(&n.P, x.Pos())
	n.X = x
	return n
}
