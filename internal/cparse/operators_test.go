package cparse

import (
	"testing"

	"golclint/internal/cast"
	"golclint/internal/ctoken"
)

// binaryOps lists every C binary operator with its cast op and its C
// precedence level (higher binds tighter), independently of the parser's
// tables.
var binaryOps = []struct {
	spelling string
	op       cast.BinaryOp
	prec     int
}{
	{"||", cast.LogOr, 1}, {"&&", cast.LogAnd, 2}, {"|", cast.BitOr, 3},
	{"^", cast.BitXor, 4}, {"&", cast.BitAnd, 5},
	{"==", cast.EqOp, 6}, {"!=", cast.NeOp, 6},
	{"<", cast.LtOp, 7}, {">", cast.GtOp, 7}, {"<=", cast.LeOp, 7}, {">=", cast.GeOp, 7},
	{"<<", cast.ShlOp, 8}, {">>", cast.ShrOp, 8},
	{"+", cast.Add, 9}, {"-", cast.Sub, 9},
	{"*", cast.Mul, 10}, {"/", cast.Div, 10}, {"%", cast.Mod, 10},
}

// assignOpList lists every C assignment operator with its cast op.
var assignOpList = []struct {
	spelling string
	op       cast.AssignOp
}{
	{"=", cast.AssignEq}, {"*=", cast.AssignMul}, {"/=", cast.AssignDiv},
	{"%=", cast.AssignMod}, {"+=", cast.AssignAdd}, {"-=", cast.AssignSub},
	{"<<=", cast.AssignShl}, {">>=", cast.AssignShr}, {"&=", cast.AssignAnd},
	{"^=", cast.AssignXor}, {"|=", cast.AssignOr},
}

// shape renders an expression with every binary, assignment and comma node
// parenthesized, so a test sees the tree rather than the spelling.
func shape(e cast.Expr) string {
	switch v := e.(type) {
	case *cast.Binary:
		return "(" + shape(v.X) + " " + v.Op.String() + " " + shape(v.Y) + ")"
	case *cast.Assign:
		return "(" + shape(v.LHS) + " " + v.Op.String() + " " + shape(v.RHS) + ")"
	case *cast.Comma:
		return "(" + shape(v.X) + ", " + shape(v.Y) + ")"
	}
	return cast.ExprString(e)
}

// parseExprStmt parses src as the only statement of a function body and
// returns its expression.
func parseExprStmt(t *testing.T, src string) cast.Expr {
	t.Helper()
	u := parseOK(t, "void f(void) { "+src+"; }")
	return u.Funcs()[0].Body.Items[0].(*cast.ExprStmt).X
}

func TestBinaryOperatorTable(t *testing.T) {
	for _, b := range binaryOps {
		e := parseExprStmt(t, "x = a "+b.spelling+" b")
		bin, ok := e.(*cast.Assign).RHS.(*cast.Binary)
		if !ok {
			t.Errorf("%s: parsed to %s, not a binary expression", b.spelling, shape(e))
			continue
		}
		if bin.Op != b.op {
			t.Errorf("%s: op = %v, want %v", b.spelling, bin.Op, b.op)
		}
	}
}

// Every pair of binary operators groups by C precedence, and operators of
// equal precedence group to the left.
func TestBinaryPrecedenceAndAssociativity(t *testing.T) {
	for _, l := range binaryOps {
		for _, r := range binaryOps {
			src := "a " + l.spelling + " b " + r.spelling + " c"
			want := "(a " + l.op.String() + " (b " + r.op.String() + " c))"
			if l.prec >= r.prec {
				want = "((a " + l.op.String() + " b) " + r.op.String() + " c)"
			}
			if got := shape(parseExprStmt(t, src)); got != want {
				t.Errorf("%s parsed to %s, want %s", src, got, want)
			}
		}
	}
}

func TestAssignOperatorTable(t *testing.T) {
	for _, a := range assignOpList {
		e := parseExprStmt(t, "a "+a.spelling+" b")
		as, ok := e.(*cast.Assign)
		if !ok {
			t.Errorf("%s: parsed to %s, not an assignment", a.spelling, shape(e))
			continue
		}
		if as.Op != a.op {
			t.Errorf("%s: op = %v, want %v", a.spelling, as.Op, a.op)
		}
		// Assignment groups to the right and binds looser than any binary
		// operator.
		src := "a " + a.spelling + " b = c || d"
		want := "(a " + a.op.String() + " (b = (c || d)))"
		if got := shape(parseExprStmt(t, src)); got != want {
			t.Errorf("%s parsed to %s, want %s", src, got, want)
		}
	}
}

func TestOperatorGroupingExamples(t *testing.T) {
	cases := []struct{ src, want string }{
		{"a || b && c", "(a || (b && c))"},
		{"a && b || c", "((a && b) || c)"},
		{"a + b * c", "(a + (b * c))"},
		{"a * b + c", "((a * b) + c)"},
		{"a - b - c", "((a - b) - c)"},
		{"a / b % c", "((a / b) % c)"},
		{"a = b = c", "(a = (b = c))"},
		{"a += b -= c", "(a += (b -= c))"},
	}
	for _, c := range cases {
		if got := shape(parseExprStmt(t, c.src)); got != c.want {
			t.Errorf("%s parsed to %s, want %s", c.src, got, c.want)
		}
	}
}

// A token kind that is not a binary or assignment operator is never taken
// for one, whatever the parser's tables hold at its index.
func TestNonOperatorKindsAreNotOperators(t *testing.T) {
	isBinary := map[string]bool{}
	for _, b := range binaryOps {
		isBinary[b.spelling] = true
	}
	isAssign := map[string]bool{}
	for _, a := range assignOpList {
		isAssign[a.spelling] = true
	}
	for k := ctoken.Kind(0); k < ctoken.NumKinds; k++ {
		if binPrec[k] != 0 && !isBinary[k.String()] {
			t.Errorf("%v has binary precedence %d", k, binPrec[k])
		}
		if binPrec[k] == 0 && isBinary[k.String()] {
			t.Errorf("binary operator %v has no precedence", k)
		}
		if k.IsAssignOp() != isAssign[k.String()] {
			t.Errorf("%v: IsAssignOp = %v", k, k.IsAssignOp())
		}
	}
	// Neighbours of the operators in the grammar stay what they are.
	for src, want := range map[string]string{
		"x = a ? b : c": "(x = a ? b : c)",
		"x = a , b":     "((x = a), b)",
		"x = a == b":    "(x = (a == b))",
		"x = a->b . c":  "(x = a->b.c)",
	} {
		if got := shape(parseExprStmt(t, src)); got != want {
			t.Errorf("%s parsed to %s, want %s", src, got, want)
		}
	}
}
