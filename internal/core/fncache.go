package core

// Function-granular incremental checking: the analysis cache split below
// module level. A module whose content hash misses (one function was
// edited) no longer re-checks every function — each function definition
// gets its own content-addressed sub-entry, keyed by the bytes of its
// token span, its position, a hash of everything in the module *outside*
// the spans (declarations, typedefs, headers — the "skeleton"), and, for
// validate runs, the bodies of the module functions it can call into. A
// sub-entry records the interface fingerprint of every symbol the function
// consulted (its use-set), so an annotation change invalidates exactly the
// functions that use that symbol. Functions whose key and use-set still
// match replay their buffered raw diagnostics — witnesses, notes, and
// validation tags included — through the same serial merge a cold check
// uses, so output stays byte-identical at any worker count.
//
// Fail-safe contract: anything surprising (parse errors, lexer errors in
// the expanded text, unbalanced braces, a function body the segmenter
// cannot align with the AST) disables the layer for the whole module and
// the run degrades to the module-granular path. The layer can only make a
// run faster, never different.

import (
	"slices"
	"sort"
	"strconv"

	"golclint/internal/cache"
	"golclint/internal/cast"
	"golclint/internal/ctoken"
	"golclint/internal/diag"
	"golclint/internal/flags"
	"golclint/internal/obs"
	"golclint/internal/sema"
)

// fnSpanInfo is one function definition's resolved token span.
type fnSpanInfo struct {
	text    string   // raw expanded-source bytes of the span
	unit    string   // physical file the span came from
	posFile string   // logical file of the span's first token
	posLine int      // logical line of the span's first token
	idents  []string // sorted identifier set of the span
}

// diagPair links a merged (reported) diagnostic back to the raw buffered
// diagnostic it was replayed from, so validation tags attached to the
// merged copy after checking can be written back onto the buffer before
// the sub-entry is stored.
type diagPair struct {
	merged   *diag.Diagnostic
	buffered *diag.Diagnostic
}

// fnCacheCtx carries the function-granular cache layer through one module
// check. Index i throughout refers to the i-th function in checkProgram's
// enumeration order (units in sorted file order, definitions in source
// order within each unit).
type fnCacheCtx struct {
	store cache.Store
	env   func(string) string // per-symbol interface fingerprints

	fns   []*cast.FuncDef
	spans []fnSpanInfo
	keys  []string
	hits  []*cache.Entry // non-nil => replay instead of checking

	// idents is the module's sorted identifier set — the union of the
	// function spans' sets and the skeleton's identifiers, which is
	// cache.Identifiers over every expanded file — for the module entry's
	// dependencies.
	idents []string

	// Cold-function outputs, filled during checking and stored after
	// validation.
	results [][]*diag.Diagnostic
	stats   []cache.FnStats
	uses    []map[string]bool
	pairs   []diagPair
}

// segment is one top-level region of an expanded file: either a candidate
// function definition (open >= 0, the offset of its depth-0 '{') or a
// skeleton piece (declarations, typedefs, stray semicolons).
type segment struct {
	start, end int    // byte offsets into the expanded text
	open       int    // offset of the depth-0 '{', or -1
	posFile    string // logical position of the first token
	posLine    int
	idents     []string // identifier tokens, in source order, repeats kept
}

// segmentFile splits one expanded file into top-level segments by lexing
// it with a brace-depth counter: a segment ends at a depth-0 ';' or at the
// '}' that returns the depth to 0. Comments and whitespace between
// segments belong to no segment (suppression comments re-parse every run
// and apply at merge time, so they need no invalidation). Returns ok=false
// on lexical errors or unbalanced braces. The same lexing pass records
// each segment's identifiers, so no byte of a module that reaches the
// function layer is lexed again for its identifier sets.
func segmentFile(name, src string) (segs []segment, ok bool) {
	lx := ctoken.NewLexer(name, src)
	depth := 0
	pending := true
	var cur segment
	for {
		t := lx.Next()
		if t.Kind == ctoken.EOF {
			break
		}
		if pending {
			cur = segment{start: int(t.Pos.Off), open: -1, posFile: t.Pos.File.String(), posLine: int(t.Pos.Line)}
			pending = false
		}
		switch t.Kind {
		case ctoken.Ident:
			cur.idents = append(cur.idents, t.Text)
		case ctoken.LBrace:
			if depth == 0 {
				cur.open = int(t.Pos.Off)
			}
			depth++
		case ctoken.RBrace:
			depth--
			if depth < 0 {
				return nil, false
			}
			if depth == 0 {
				cur.end = int(t.Pos.Off) + 1
				segs = append(segs, cur)
				pending = true
			}
		case ctoken.Semi:
			if depth == 0 {
				cur.end = int(t.Pos.Off) + 1
				segs = append(segs, cur)
				pending = true
			}
		}
	}
	if len(lx.Errors()) > 0 || depth != 0 {
		return nil, false
	}
	if !pending {
		// Trailing tokens with no terminator cannot be a function
		// definition; keep them as a skeleton piece.
		cur.end = len(src)
		cur.open = -1
		segs = append(segs, cur)
	}
	return segs, true
}

// newFnCacheCtx builds the layer for one module: segments every file,
// aligns candidate segments with the AST's function definitions (a
// function's span is the segment whose depth-0 '{' is its body's '{'),
// hashes the skeleton, derives each function's sub-entry key, and probes
// the store. Returns nil — layer disabled — if any file fails to segment
// or any function definition fails to align.
func newFnCacheCtx(names []string, fronts []fileFront, prog *sema.Program, fl *flags.Flags, opt Options) *fnCacheCtx {
	if len(prog.Units) != len(names) {
		return nil
	}
	env := opt.EnvFingerprint(prog)
	ctx := &fnCacheCtx{store: opt.Cache, env: env}

	// Skeleton: everything outside the matched spans, position-sensitive.
	// A declaration edit — or a line shift that moves one — invalidates
	// every function in the module; an edit inside one function's span
	// leaves the skeleton (and therefore every other function) untouched.
	skh := cache.NewKeyHasher(Version, fl.Fingerprint())
	skh.Component("fnskeleton")

	type spanned struct {
		fn *cast.FuncDef
		sp fnSpanInfo
	}
	var all []spanned
	for ui, u := range prog.Units {
		segs, ok := segmentFile(names[ui], fronts[ui].expanded)
		if !ok {
			return nil
		}
		matched := make([]bool, len(segs))
		byOpen := map[int]int{}
		for si, s := range segs {
			if s.open >= 0 {
				byOpen[s.open] = si
			}
		}
		for _, f := range u.Funcs() {
			if f.Body == nil {
				return nil
			}
			si, ok := byOpen[int(f.Body.Pos().Off)]
			if !ok || matched[si] {
				return nil
			}
			matched[si] = true
			s := segs[si]
			text := fronts[ui].expanded[s.start:s.end]
			idents := sortedSet(s.idents)
			all = append(all, spanned{fn: f, sp: fnSpanInfo{
				text: text, unit: names[ui],
				posFile: s.posFile, posLine: s.posLine,
				idents: idents,
			}})
			ctx.idents = append(ctx.idents, idents...)
		}
		skh.Component(names[ui])
		for si, s := range segs {
			if matched[si] {
				continue
			}
			ctx.idents = append(ctx.idents, s.idents...)
			skh.Component(s.posFile)
			skh.Component(strconv.Itoa(s.posLine))
			skh.Component(fronts[ui].expanded[s.start:s.end])
		}
	}
	skeleton := skh.Sum()
	ctx.idents = sortedSet(ctx.idents)

	n := len(all)
	ctx.fns = make([]*cast.FuncDef, n)
	ctx.spans = make([]fnSpanInfo, n)
	ctx.keys = make([]string, n)
	ctx.hits = make([]*cache.Entry, n)
	ctx.results = make([][]*diag.Diagnostic, n)
	ctx.stats = make([]cache.FnStats, n)
	ctx.uses = make([]map[string]bool, n)
	for i, s := range all {
		ctx.fns[i] = s.fn
		ctx.spans[i] = s.sp
	}

	// Validate runs interpret function bodies, so a validated diagnostic
	// in f depends on the body text of every module function f can reach;
	// the key gains the transitive call closure over span identifiers.
	var closures []string
	if opt.Validate != nil {
		closures = callClosures(ctx)
	}

	for i := range ctx.fns {
		kh := cache.NewKeyHasher(Version, fl.Fingerprint())
		kh.Component("fnsub")
		if opt.Explain {
			kh.Component("explain")
		}
		if opt.Validate != nil {
			kh.Component("validate")
		}
		kh.Component(skeleton)
		sp := &ctx.spans[i]
		kh.Component(sp.unit)
		kh.Component(sp.posFile)
		kh.Component(strconv.Itoa(sp.posLine))
		kh.Component(sp.text)
		if closures != nil {
			kh.Component(closures[i])
		}
		ctx.keys[i] = kh.Sum()
		if e, ok := ctx.store.Get(ctx.keys[i]); ok && ctx.depsHold(e.Deps) {
			ctx.hits[i] = e
		}
	}
	return ctx
}

// sortedSet sorts ids and drops repeats, in place.
func sortedSet(ids []string) []string {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// depsOf records the interface fingerprint of each of the sorted, distinct
// names, as a cache entry's Deps.
func depsOf(names []string, fp func(string) string) []cache.Dep {
	deps := make([]cache.Dep, len(names))
	for i, n := range names {
		deps[i] = cache.Dep{Name: n, FP: fp(n)}
	}
	return deps
}

// depsHold reports whether every interface fingerprint a sub-entry
// recorded still matches the current environment.
func (ctx *fnCacheCtx) depsHold(deps []cache.Dep) bool {
	for _, d := range deps {
		if ctx.env(d.Name) != d.FP {
			return false
		}
	}
	return true
}

// callClosures computes, per function, a hash over the transitive set of
// module function bodies reachable from it (self included): the names and
// span texts, in sorted name order. Cross-module callees have no body here
// and are covered by their interface fingerprints instead.
func callClosures(ctx *fnCacheCtx) []string {
	byName := map[string]int{}
	for i, f := range ctx.fns {
		byName[f.Name] = i
	}
	out := make([]string, len(ctx.fns))
	for i := range ctx.fns {
		reach := map[int]bool{i: true}
		work := []int{i}
		for len(work) > 0 {
			j := work[len(work)-1]
			work = work[:len(work)-1]
			for _, id := range ctx.spans[j].idents {
				if k, ok := byName[id]; ok && !reach[k] {
					reach[k] = true
					work = append(work, k)
				}
			}
		}
		names := make([]string, 0, len(reach))
		for k := range reach {
			names = append(names, ctx.fns[k].Name)
		}
		sort.Strings(names)
		kh := cache.NewKeyHasher("fnclosure", "")
		for _, nm := range names {
			kh.Component(nm)
			kh.Component(ctx.spans[byName[nm]].text)
		}
		out[i] = kh.Sum()
	}
	return out
}

// replayHit restores one cached function's observable effects: its raw
// diagnostic buffer (merged later in serial order, exactly like a cold
// buffer) and the analysis counters the cold check recorded.
func (ctx *fnCacheCtx) replayHit(i int, m *obs.Metrics) []*diag.Diagnostic {
	e := ctx.hits[i]
	m.Add(obs.FuncCacheHits, 1)
	m.Add(obs.FuncReplayedDiags, int64(len(e.Diags)))
	if e.Fn != nil {
		m.Add(obs.CFGBlocks, e.Fn.Blocks)
		m.Add(obs.CFGEdges, e.Fn.Edges)
		m.Add(obs.ConfluenceMerges, e.Fn.Merges)
	}
	return e.Diags
}

// finish runs after validation: validation tags attached to the merged
// diagnostics are written back onto the raw buffers they came from, and
// every cold-checked function's sub-entry is stored with its use-set
// fingerprints. A failed write is a lost optimization, not an error.
func (ctx *fnCacheCtx) finish() {
	for _, p := range ctx.pairs {
		p.buffered.Validation = p.merged.Validation
	}
	for i := range ctx.fns {
		if ctx.hits[i] != nil {
			continue
		}
		// The lexical identifier set over-approximates most of the
		// use-set; the names recorded during checking (callee and global
		// lookups) close the gap for symbols consulted through
		// interface-declared indirection (a globals clause, say), and the
		// function's own name covers its signature and globals list.
		names := append(slices.Clone(ctx.spans[i].idents), ctx.fns[i].Name)
		for name := range ctx.uses[i] {
			names = append(names, name)
		}
		st := ctx.stats[i]
		ctx.store.Put(ctx.keys[i], &cache.Entry{
			Diags: ctx.results[i],
			Deps:  depsOf(sortedSet(names), ctx.env),
			Fn:    &cache.FnStats{Blocks: st.Blocks, Edges: st.Edges, Merges: st.Merges},
		})
	}
}
