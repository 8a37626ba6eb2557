package cast

import (
	"strings"
	"testing"

	"golclint/internal/annot"
	"golclint/internal/ctoken"
	"golclint/internal/ctypes"
)

func pos(line int) ctoken.Pos {
	return ctoken.Pos{File: ctoken.FileOf("t.c"), Line: int32(line), Col: 1}
}

// buildTree constructs a small function AST by hand:
//
//	int f(int a) { if (a) { return a + 1; } while (a) { a--; } return g(a, 0); }
func buildTree() *FuncDef {
	a := func() *Ident { return &Ident{P: pos(1), Name: "a"} }
	return &FuncDef{
		P: pos(1), Name: "f", Result: ctypes.IntType,
		Params: []*ParamDecl{{P: pos(1), Name: "a", Type: ctypes.IntType}},
		Body: &Block{P: pos(1), Items: []Stmt{
			&If{P: pos(2), Cond: a(), Then: &Block{P: pos(2), Items: []Stmt{
				&Return{P: pos(3), X: &Binary{P: pos(3), Op: Add, X: a(), Y: &IntLit{P: pos(3), Text: "1", Value: 1}}},
			}}},
			&While{P: pos(4), Cond: a(), Body: &Block{P: pos(4), Items: []Stmt{
				&ExprStmt{P: pos(5), X: &Unary{P: pos(5), Op: PostDec, X: a()}},
			}}},
			&Return{P: pos(6), X: &Call{P: pos(6), Fun: &Ident{P: pos(6), Name: "g"},
				Args: []Expr{a(), &IntLit{P: pos(6), Text: "0", Value: 0}}}},
		}},
	}
}

func TestInspectVisitsAll(t *testing.T) {
	f := buildTree()
	var kinds []string
	Inspect(f, func(n Node) bool {
		kinds = append(kinds, strings.TrimPrefix(strings.Split(
			strings.TrimPrefix(typeName(n), "*"), ".")[1], ""))
		return true
	})
	joined := strings.Join(kinds, " ")
	for _, want := range []string{"FuncDef", "ParamDecl", "Block", "If", "While", "Return", "Call", "Binary", "Unary", "IntLit"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Inspect missed %s: %s", want, joined)
		}
	}
	if CountNodes(f) < 15 {
		t.Errorf("CountNodes = %d", CountNodes(f))
	}
}

func typeName(n Node) string {
	switch n.(type) {
	case *Unit:
		return "*cast.Unit"
	case *FuncDef:
		return "*cast.FuncDef"
	case *ParamDecl:
		return "*cast.ParamDecl"
	case *Block:
		return "*cast.Block"
	case *If:
		return "*cast.If"
	case *While:
		return "*cast.While"
	case *Return:
		return "*cast.Return"
	case *Call:
		return "*cast.Call"
	case *Binary:
		return "*cast.Binary"
	case *Unary:
		return "*cast.Unary"
	case *IntLit:
		return "*cast.IntLit"
	case *Ident:
		return "*cast.Ident"
	case *ExprStmt:
		return "*cast.ExprStmt"
	default:
		return "*cast.Other"
	}
}

func TestInspectPrune(t *testing.T) {
	f := buildTree()
	count := 0
	Inspect(f, func(n Node) bool {
		count++
		_, isIf := n.(*If)
		return !isIf // skip if-subtrees
	})
	full := CountNodes(f)
	if count >= full {
		t.Fatalf("pruning had no effect: %d vs %d", count, full)
	}
}

func TestExprString(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{&Binary{Op: Add, X: &Ident{Name: "a"}, Y: &IntLit{Text: "1"}}, "a + 1"},
		{&Unary{Op: Deref, X: &Ident{Name: "p"}}, "*p"},
		{&Unary{Op: PostInc, X: &Ident{Name: "i"}}, "i++"},
		{&Unary{Op: AddrOf, X: &Ident{Name: "x"}}, "&x"},
		{&FieldSel{X: &Ident{Name: "l"}, Name: "next", Arrow: true}, "l->next"},
		{&FieldSel{X: &Ident{Name: "s"}, Name: "f"}, "s.f"},
		{&Index{X: &Ident{Name: "v"}, Idx: &IntLit{Text: "3"}}, "v[3]"},
		{&Assign{Op: AssignEq, LHS: &Ident{Name: "x"}, RHS: &IntLit{Text: "0"}}, "x = 0"},
		{&Assign{Op: AssignAdd, LHS: &Ident{Name: "x"}, RHS: &IntLit{Text: "2"}}, "x += 2"},
		{&Cond{C: &Ident{Name: "c"}, Then: &IntLit{Text: "1"}, Else: &IntLit{Text: "0"}}, "c ? 1 : 0"},
		{&Comma{X: &Ident{Name: "a"}, Y: &Ident{Name: "b"}}, "a, b"},
		{&Cast{To: ctypes.PointerTo(ctypes.CharType), X: &Ident{Name: "p"}}, "(char *) p"},
		{&SizeofType{Of: ctypes.IntType}, "sizeof(int)"},
		{&SizeofExpr{X: &Ident{Name: "x"}}, "sizeof(x)"},
		{&InitList{Elems: []Expr{&IntLit{Text: "1"}, &IntLit{Text: "2"}}}, "{1, 2}"},
		{&Call{Fun: &Ident{Name: "f"}, Args: []Expr{&Ident{Name: "x"}}}, "f(x)"},
	}
	for _, c := range cases {
		if got := ExprString(c.e); got != c.want {
			t.Errorf("ExprString = %q, want %q", got, c.want)
		}
	}
	if ExprString(nil) != "" {
		t.Error("nil ExprString")
	}
}

func TestIsNullConstant(t *testing.T) {
	if !IsNullConstant(&IntLit{Value: 0}) {
		t.Error("0 is a null constant")
	}
	if IsNullConstant(&IntLit{Value: 1}) {
		t.Error("1 is not")
	}
	nullMacro := &Cast{To: ctypes.PointerTo(ctypes.VoidType), X: &IntLit{Value: 0}}
	if !IsNullConstant(nullMacro) {
		t.Error("(void*)0 is a null constant")
	}
	intCast := &Cast{To: ctypes.IntType, X: &IntLit{Value: 0}}
	if IsNullConstant(intCast) {
		t.Error("(int)0 is not a null pointer constant")
	}
}

func TestCallFunName(t *testing.T) {
	c := &Call{Fun: &Ident{Name: "g"}}
	if c.FunName() != "g" {
		t.Error("direct call name")
	}
	ind := &Call{Fun: &Unary{Op: Deref, X: &Ident{Name: "fp"}}}
	if ind.FunName() != "" {
		t.Error("indirect call should have no name")
	}
}

func TestSignature(t *testing.T) {
	f := buildTree()
	sig := f.Signature()
	if !sig.IsFunc() || len(sig.Resolve().Params) != 1 {
		t.Fatalf("signature = %v", sig)
	}
}

func TestStorageString(t *testing.T) {
	if StorageStatic.String() != "static" || StorageExtern.String() != "extern" || StorageNone.String() != "" {
		t.Error("storage names")
	}
}

func TestOpStrings(t *testing.T) {
	if Add.String() != "+" || LogAnd.String() != "&&" || Deref.String() != "*" ||
		AssignShl.String() != "<<=" || NeOp.String() != "!=" {
		t.Error("operator spellings")
	}
	if !EqOp.IsComparison() || Add.IsComparison() {
		t.Error("IsComparison")
	}
}

func TestUnitFuncsAndPos(t *testing.T) {
	u := &Unit{File: "u.c"}
	if u.Pos().File.String() != "u.c" {
		t.Error("empty unit pos")
	}
	f := buildTree()
	u.Decls = append(u.Decls, &VarDecl{P: pos(1), Name: "g", Type: ctypes.IntType}, f)
	if len(u.Funcs()) != 1 || u.Funcs()[0] != f {
		t.Error("Funcs")
	}
	if u.Pos().Line != 1 {
		t.Error("unit pos from first decl")
	}
}

func TestVarDeclPrototype(t *testing.T) {
	proto := &VarDecl{Name: "f", Type: ctypes.FuncOf(ctypes.IntType, nil, false)}
	obj := &VarDecl{Name: "x", Type: ctypes.IntType}
	if !proto.IsPrototype() || obj.IsPrototype() {
		t.Error("IsPrototype")
	}
}

func TestDumpCoversStatements(t *testing.T) {
	u := &Unit{File: "d.c", Decls: []Decl{
		&TypedefDecl{P: pos(1), Name: "T", Type: ctypes.NamedOf("T", ctypes.IntType, annot.Make(annot.Null))},
		&TagDecl{P: pos(2), Type: &ctypes.Type{Kind: ctypes.Struct, Tag: "s"}},
		&VarDecl{P: pos(3), Name: "g", Type: ctypes.IntType, Storage: StorageStatic,
			Init: &IntLit{Text: "4", Value: 4}, Annots: annot.Make(annot.Only)},
		buildTree(),
	}}
	d := Dump(u)
	for _, want := range []string{"Typedef T", "TagDecl struct s", "VarDecl g", "[static]",
		"FuncDef f", "If a", "While a", "Return"} {
		if !strings.Contains(d, want) {
			t.Errorf("Dump missing %q:\n%s", want, d)
		}
	}
	// Statement kinds not exercised above.
	stmts := &Block{Items: []Stmt{
		&Empty{}, &Break{}, &Continue{}, &Goto{Label: "L"}, &Label{Name: "L"},
		&Case{Value: &IntLit{Text: "1"}}, &Case{},
		&DoWhile{Body: &Block{}, Cond: &Ident{Name: "c"}},
		&For{Init: &ExprStmt{X: &Assign{Op: AssignEq, LHS: &Ident{Name: "i"}, RHS: &IntLit{Text: "0"}}},
			Cond: &Ident{Name: "i"}, Post: &Unary{Op: PostInc, X: &Ident{Name: "i"}},
			Body: &Block{}},
		&Switch{Tag: &Ident{Name: "x"}, Body: &Block{}},
	}}
	d = Dump(stmts)
	for _, want := range []string{"Empty", "Break", "Continue", "Goto L", "Label L",
		"Case 1", "Default", "DoWhile", "For", "Switch x"} {
		if !strings.Contains(d, want) {
			t.Errorf("Dump missing %q:\n%s", want, d)
		}
	}
}

func TestTypedPlumbing(t *testing.T) {
	e := &Ident{Name: "x"}
	if e.Type() != nil {
		t.Error("fresh expr has no type")
	}
	e.SetType(ctypes.IntType)
	if e.Type() != ctypes.IntType {
		t.Error("SetType/Type")
	}
}
