package library

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"golclint/internal/ctypes"
	"golclint/internal/sema"
)

// SymbolFingerprints returns a lazy per-symbol interface-fingerprint lookup
// over an analyzed program: the function-granular cache layer's view of the
// environment a function body was checked against. Unlike Fingerprints,
// which eagerly hashes every symbol a Library supplies, the returned lookup
// computes a fingerprint only when a symbol is first queried — a module's
// function sub-entries mention a few dozen symbols, while the installed
// interface library can describe the whole program, so the lazy form keeps
// per-module cost proportional to what the module actually uses.
//
// The fingerprint covers everything a checked function body can observe
// about the symbol: signature, annotations, transitive type structure
// (field and parameter annotations included), globals clause, and declared
// position (positions appear in diagnostics and notes, so a moved
// declaration conservatively invalidates its users). Symbols absent from
// the program — and builtin signatures, which are fixed per checker
// version — fingerprint as "". A name shared across namespaces combines
// function, global, and enum digests deterministically, mirroring
// Fingerprints.
//
// The lookup memoizes per name and is not safe for concurrent use; the
// checker queries it serially while assembling sub-entry keys.
func SymbolFingerprints(prog *sema.Program) func(name string) string {
	memo := map[string]string{}
	shapes := map[*ctypes.Type]string{}
	return func(name string) string {
		if fp, ok := memo[name]; ok {
			return fp
		}
		var parts []string
		if sig, ok := prog.Funcs[name]; ok && !sig.Builtin {
			var b strings.Builder
			fmt.Fprintf(&b, "func %s result=%s annots=%d variadic=%t noreturn=%t globals=%v pos=%s:%d\n",
				sig.Name, typePtrShape(sig.Result, shapes), sig.ResultAnnots, sig.Variadic, sig.NoReturn,
				sig.GlobalsUsed, sig.Pos.File, sig.Pos.Line)
			for _, p := range sig.Params {
				fmt.Fprintf(&b, "param %s annots=%d type=%s\n", p.Name, p.Annots, typePtrShape(p.Type, shapes))
			}
			parts = append(parts, digest(b.String()))
		}
		if g, ok := prog.Globals[name]; ok {
			parts = append(parts, digest(fmt.Sprintf("global %s annots=%d static=%t init=%t pos=%s:%d type=%s\n",
				g.Name, g.Annots, g.Static, g.HasInit, g.Pos.File, g.Pos.Line, typePtrShape(g.Type, shapes))))
		}
		if v, ok := prog.Enums[name]; ok {
			parts = append(parts, digest(fmt.Sprintf("enum %s=%d\n", name, v)))
		}
		fp := strings.Join(parts, "|")
		memo[name] = fp
		return fp
	}
}

// digest hashes one symbol-content string into its fingerprint.
func digest(content string) string {
	sum := sha256.Sum256([]byte(content))
	return hex.EncodeToString(sum[:16])
}

// typePtrShape canonically serializes the type subgraph reachable from
// root, walking *ctypes.Type pointers directly (the post-install program's
// live type graph) instead of a Library's flattened table. Pointers are
// remapped to DFS-visit-order local ids, so the shape depends only on the
// reachable structure and recursive types terminate. Memoized per root.
func typePtrShape(root *ctypes.Type, memo map[*ctypes.Type]string) string {
	if root == nil {
		return "nil"
	}
	if s, ok := memo[root]; ok {
		return s
	}
	local := map[*ctypes.Type]int{}
	var order []*ctypes.Type
	var visit func(*ctypes.Type)
	visit = func(t *ctypes.Type) {
		if t == nil {
			return
		}
		if _, ok := local[t]; ok {
			return
		}
		local[t] = len(order)
		order = append(order, t)
		visit(t.Elem)
		visit(t.Return)
		visit(t.Underlying)
		for _, f := range t.Fields {
			visit(f.Type)
		}
		for _, p := range t.Params {
			visit(p.Type)
		}
	}
	visit(root)
	ref := func(t *ctypes.Type) string {
		if t == nil {
			return "-"
		}
		return strconv.Itoa(local[t])
	}
	var b strings.Builder
	for _, t := range order {
		fmt.Fprintf(&b, "t%d kind=%d elem=%s len=%d tag=%q ret=%s variadic=%t name=%q under=%s annots=%d enums=%v",
			local[t], t.Kind, ref(t.Elem), t.Len, t.Tag, ref(t.Return),
			t.Variadic, t.Name, ref(t.Underlying), t.Annots, t.Enumerators)
		for _, f := range t.Fields {
			fmt.Fprintf(&b, " f(%s:%s:%d)", f.Name, ref(f.Type), f.Annots)
		}
		for _, p := range t.Params {
			fmt.Fprintf(&b, " p(%s:%s:%d)", p.Name, ref(p.Type), p.Annots)
		}
		b.WriteByte(';')
	}
	s := b.String()
	memo[root] = s
	return s
}
