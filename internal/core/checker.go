package core

import (
	"sort"
	"time"

	"golclint/internal/annot"
	"golclint/internal/cache"
	"golclint/internal/cast"
	"golclint/internal/cfg"
	"golclint/internal/ctoken"
	"golclint/internal/ctypes"
	"golclint/internal/diag"
	"golclint/internal/flags"
	"golclint/internal/obs"
	"golclint/internal/par"
	"golclint/internal/sema"
)

// checker holds the per-run state of the analysis.
type checker struct {
	prog *sema.Program
	fl   *flags.Flags
	rep  *diag.Reporter
	m    *obs.Metrics // nil disables instrumentation

	// fs is the worker-scoped state machinery (interner, arena, CFG
	// builder); reset per function, reused across functions.
	fs *fnState

	// Current function under analysis.
	fn  *cast.FuncDef
	sig *sema.FuncSig

	heapCount  int
	indexCount int
	unknown    map[string]bool
	topBlock   *cast.Block

	// Per-function instrumentation (reset by checkFunctionTimed).
	fnMerges  int
	fnBlocks  int
	fnEdges   int
	fnMergeNS time.Duration

	// prov is the provenance recorder (-explain); nil when recording is
	// off, so hooks cost one pointer test. Aliases fs.prov.
	prov *provRec
	// fnIndex is the current function's index in checkProgram's serial
	// enumeration; its span carries it so -trace can restore that order.
	fnIndex int
	// fnSpan is the current function's span (0 when metrics are off).
	fnSpan obs.SpanID

	// breakStates/continueStates collect the stores flowing to the
	// innermost enclosing loop/switch exit and loop head.
	breakStates    []*[]*store
	continueStates []*[]*store
}

// lookupSig resolves a function signature. All checker code resolves
// through lookupSig, lookupGlobal and lookupEnum rather than c.prog
// directly; DESIGN.md ("Function-cache dependencies") argues from these
// three call sites why a function's sub-entry needs no record of them.
func (c *checker) lookupSig(name string) (*sema.FuncSig, bool) {
	return c.prog.Lookup(name)
}

// lookupGlobal resolves a global variable.
func (c *checker) lookupGlobal(name string) (*sema.Global, bool) {
	return c.prog.Global(name)
}

// lookupEnum resolves an enum constant.
func (c *checker) lookupEnum(name string) (int64, bool) {
	v, ok := c.prog.Enums[name]
	return v, ok
}

// disp returns the user-facing spelling for id (cached).
func (c *checker) disp(id RefID) string { return c.fs.in.displayOf(id) }

// CheckProgram checks every function definition in the program, filing
// diagnostics with the reporter.
func CheckProgram(prog *sema.Program, fl *flags.Flags, rep *diag.Reporter) {
	checkProgram(prog, fl, rep, nil, 1, false, 0, nil)
}

// CheckProgramExplain is CheckProgram with provenance recording switched on
// or off explicitly; the E19 benchmark uses it to measure the overhead of
// the recorder in both states over an otherwise identical pass.
func CheckProgramExplain(prog *sema.Program, fl *flags.Flags, rep *diag.Reporter, explain bool) {
	checkProgram(prog, fl, rep, nil, 1, explain, 0, nil)
}

// checkProgram fans the program's function definitions out to jobs
// concurrent workers (0 = GOMAXPROCS, 1 = in-line serial). Each function is
// checked independently against the read-only environment — its own checker,
// store, and diagnostic buffer — which is exactly the modularity the paper's
// annotation-based interfaces buy (§7): no state flows between function
// bodies, so they can be analyzed in any order, including at once.
// Diagnostics are replayed into rep in serial function order, so output is
// byte-identical at every worker count. Each worker owns one fnState
// (interner + arena + CFG builder), so per-function allocations amortize
// across its whole share of the run.
func checkProgram(prog *sema.Program, fl *flags.Flags, rep *diag.Reporter, m *obs.Metrics, jobs int, explain bool, parent obs.SpanID, fnc *fnCacheCtx) {
	var fns []*cast.FuncDef
	for _, u := range prog.Units {
		fns = append(fns, u.Funcs()...)
	}
	if fnc != nil && len(fnc.fns) != len(fns) {
		fnc = nil // enumeration drifted from the segmenter's; fail safe
	}
	checkSpan := m.StartSpan(obs.SpanPhase, obs.PhaseCheck.String(), parent, 0)
	// results[i] is function i's ordered diagnostic buffer; workers write
	// disjoint slots, so no lock is needed.
	results := make([][]*diag.Diagnostic, len(fns))
	// doFn checks (or replays) function i. Cache hits skip the checker
	// entirely: the stored raw buffer stands in for the one the checker
	// would have produced, and the cold run's counters are re-added, so
	// the serial merge below cannot tell a replayed function from a
	// checked one.
	doFn := func(i int, fs *fnState) {
		if fnc != nil {
			if fnc.hits[i] != nil {
				results[i] = fnc.replayHit(i, m)
				return
			}
			m.Add(obs.FuncCacheMisses, 1)
			results[i], fnc.stats[i] = checkFunctionUnit(prog, fl, m, fns[i], i, fs)
			fnc.results[i] = results[i]
			return
		}
		results[i], _ = checkFunctionUnit(prog, fl, m, fns[i], i, fs)
	}
	m.SetJobs(par.Each(len(fns), jobs, func(w int) func(int) {
		fs := newFnState()
		fs.worker = w
		fs.spanRoot = checkSpan
		if explain {
			fs.prov = &provRec{}
		}
		return func(i int) { doFn(i, fs) }
	}))
	m.EndSpan(checkSpan)
	mergeDiags(rep, results, fnc)
}

// checkFunctionUnit is the pure per-function checking unit: it analyzes one
// function body with a private checker and diagnostic buffer, touching the
// program environment only through reads. Suppression, message caps, and
// cross-function deduplication are deliberately NOT applied here — the
// buffer records everything in report order and mergeDiags replays it
// through the run's reporter, which applies them in serial order.
func checkFunctionUnit(prog *sema.Program, fl *flags.Flags, m *obs.Metrics, f *cast.FuncDef, index int, fs *fnState) ([]*diag.Diagnostic, cache.FnStats) {
	buf := diag.NewReporter(0)
	c := &checker{prog: prog, fl: fl, rep: buf, m: m, fs: fs,
		unknown: map[string]bool{}, prov: fs.prov, fnIndex: index}
	c.checkFunctionTimed(f)
	return buf.Buffered(), cache.FnStats{
		Blocks: int64(c.fnBlocks), Edges: int64(c.fnEdges), Merges: int64(c.fnMerges),
	}
}

// mergeDiags replays per-function diagnostic buffers into the run's
// reporter in serial function order. The reporter applies stylized-comment
// suppression, local flag toggles, and the message bound exactly as a
// serial run would; unknown-identifier messages additionally deduplicate
// across functions (one report per name per run), keyed on the rendered
// message so the first function in serial order wins.
func mergeDiags(rep *diag.Reporter, results [][]*diag.Diagnostic, fnc *fnCacheCtx) {
	seenUnknown := map[string]bool{}
	for i, ds := range results {
		for _, d := range ds {
			if d.Code == diag.UnknownName {
				if seenUnknown[d.Msg] {
					continue
				}
				seenUnknown[d.Msg] = true
			}
			nd := rep.Report(d.Code, d.Pos, "%s", d.Msg)
			if nd != nil {
				nd.Prov = d.Prov
				// Replayed buffers carry validation tags from the cold run;
				// cold buffers carry nil. For cold functions, remember the
				// merged copy so tags attached after checking flow back to
				// the buffer before its sub-entry is stored.
				nd.Validation = d.Validation
				if fnc != nil && fnc.hits[i] == nil {
					fnc.pairs = append(fnc.pairs, diagPair{merged: nd, buffered: d})
				}
			}
			for _, n := range d.Notes {
				nd.WithNote(n.Pos, "%s", n.Msg)
			}
		}
	}
}

// checkFunctionTimed wraps checkFunction with the per-function counters and
// span. The span's cfg child (opened by checkFunction) times CFG
// construction, so the check phase is the span's duration net of it and
// the phase durations stay disjoint.
func (c *checker) checkFunctionTimed(f *cast.FuncDef) {
	if !c.m.Enabled() {
		c.checkFunction(f)
		return
	}
	c.fnMerges, c.fnBlocks, c.fnEdges, c.fnMergeNS = 0, 0, 0, 0
	c.fnSpan = c.m.StartSpan(obs.SpanFunction, f.Name, c.fs.spanRoot, c.fs.worker)
	c.checkFunction(f)
	c.m.Add(obs.FunctionsChecked, 1)
	c.m.Add(obs.StoreClones, c.fs.clones)
	c.m.Add(obs.RefStatesCopied, c.fs.copied)
	c.m.Add(obs.MergeNS, c.fnMergeNS.Nanoseconds())
	pos := f.Pos()
	c.m.EndFuncSpan(c.fnSpan, c.fnIndex, pos.File.String(), int(pos.Line),
		int64(c.fnBlocks), int64(c.fnEdges), int64(c.fnMerges), c.fs.clones)
	c.fnSpan = 0
}

// checkFunction analyzes one function body in a single forward pass.
func (c *checker) checkFunction(f *cast.FuncDef) {
	c.fn = f
	sig, ok := c.lookupSig(f.Name)
	if !ok {
		return
	}
	c.sig = sig
	c.fs.reset()
	if c.prov != nil {
		c.prov.reset(f.Name, f.Pos())
	}
	in := c.fs.in
	st := c.fs.newStore()

	// Entry state: parameters are assumed to satisfy their annotations
	// (§2). Each parameter gets a body-visible reference and a
	// caller-visible mirror (the paper's "argl"), initially aliased.
	for i, prm := range f.Params {
		if prm.Name == "" {
			continue
		}
		eff := sig.EffectiveParam(i)
		lid := in.intern(prm.Name)
		aid := in.intern(argKey(prm.Name))
		c.ensureRef(st, lid, prm.Type, eff, prm.Pos(), true)
		c.ensureRef(st, aid, prm.Type, eff, prm.Pos(), true)
		st.addAlias(lid, aid)
	}
	// Globals used by the function are assumed to satisfy their
	// annotations on entry.
	for _, gname := range sig.GlobalsUsed {
		if g, ok := c.lookupGlobal(gname); ok {
			c.ensureRef(st, in.intern(globalKey(gname)), g.Type, g.Effective(c.fl), g.Pos, true)
		}
	}

	// Unreachable statements (code after a return/break on every path)
	// are anomalies in their own right; the acyclic CFG makes them easy
	// to find. One message per contiguous dead region. The worker-scoped
	// builder recycles nodes and skips label rendering (the checker never
	// reads labels; -cfg dumps use cfg.Build, which keeps them).
	var g *cfg.Graph
	if c.m.Enabled() {
		cfgSpan := c.m.StartSpan(obs.SpanPhase, obs.PhaseCFG.String(), c.fnSpan, c.fs.worker)
		g = c.fs.cfg.Build(f)
		c.m.EndSpan(cfgSpan)
		c.fnBlocks = len(g.Nodes)
		for _, n := range g.Nodes {
			c.fnEdges += len(n.Succs)
		}
		c.m.Add(obs.CFGBlocks, int64(c.fnBlocks))
		c.m.Add(obs.CFGEdges, int64(c.fnEdges))
	} else {
		g = c.fs.cfg.Build(f)
	}
	if c.prov != nil {
		c.prov.g = g
	}
	var lastDead int32
	for _, n := range g.Unreachable() {
		if n.Pos.IsValid() && n.Pos.Line != lastDead+1 {
			c.report(diag.DeadCode, n.Pos, "Code is not reachable")
		}
		lastDead = n.Pos.Line
	}

	c.topBlock = f.Body
	out := c.checkStmt(st, f.Body)
	if !out.unreachable {
		endPos := f.Body.Pos()
		if n := len(f.Body.Items); n > 0 {
			endPos = f.Body.Items[n-1].Pos()
			endPos.Line++ // the paper reports fall-off-the-end anomalies at the closing brace
		}
		if sig.Result != nil && !sig.Result.IsVoid() {
			// Falling off the end of a value-returning function is
			// tolerated (common C); exit constraints still apply.
			c.checkExitState(out, endPos)
		} else {
			c.checkExitState(out, endPos)
		}
	}
	c.fn, c.sig = nil, nil
}

// report wraps the reporter with per-class flag gating. Under -explain it
// also consumes the witness staged by provFor (building a ref-less one if
// no site staged any) and attaches it to the emitted diagnostic.
func (c *checker) report(code diag.Code, pos ctoken.Pos, format string, args ...interface{}) *diag.Diagnostic {
	var pend *diag.Provenance
	if c.prov != nil {
		pend = c.prov.pending
		c.prov.pending = nil
	}
	switch code {
	case diag.NullDeref, diag.NullPass, diag.NullAssign, diag.NullReturn:
		if !c.fl.NullChecking {
			return nil
		}
	case diag.UseUndef, diag.IncompleteDef:
		if !c.fl.DefChecking {
			return nil
		}
	case diag.Leak, diag.LeakReturn, diag.DoubleRelease:
		if !c.fl.AllocChecking || c.fl.GCMode {
			return nil
		}
	case diag.UseDead, diag.AliasTransfer, diag.Confluence:
		if !c.fl.AllocChecking {
			return nil
		}
	case diag.UniqueAliased, diag.ObserverMod, diag.Exposure:
		if !c.fl.AliasChecking {
			return nil
		}
	}
	d := c.rep.Report(code, pos, format, args...)
	if d != nil && c.prov != nil {
		c.attachWitness(d, pend, pos)
	}
	return d
}

// mergeReport merges two stores and reports any confluence anomalies at
// pos (§5: "This is a confluence error since there is no sensible way to
// combine the allocation states").
func (c *checker) mergeReport(a, b *store, pos ctoken.Pos) *store {
	enabled := c.m.Enabled()
	var t0 time.Time
	if enabled {
		c.m.Add(obs.ConfluenceMerges, 1)
		c.fnMerges++
		t0 = time.Now()
	}
	out, conflicts := mergeStores(a, b)
	if enabled {
		c.fnMergeNS += time.Since(t0)
	}
	if len(conflicts) == 0 {
		return out
	}
	in := c.fs.in
	// One anomaly per storage object: aliased spellings (e and arge) and
	// mirror keys report once, preferring the body-visible name.
	rank := func(id RefID) int {
		switch {
		case in.arg(id):
			return 2
		case in.heap(id):
			return 1
		}
		return 0
	}
	sort.SliceStable(conflicts, func(i, j int) bool {
		ri, rj := rank(conflicts[i].id), rank(conflicts[j].id)
		if ri != rj {
			return ri < rj
		}
		return in.keys[conflicts[i].id] < in.keys[conflicts[j].id]
	})
	reported := map[RefID]bool{}
	for _, cf := range conflicts {
		if reported[cf.id] {
			continue
		}
		reported[cf.id] = true
		for _, al := range out.aliasSet(cf.id) {
			reported[al] = true
		}
		c.provFor(out, cf.id)
		d := c.report(diag.Confluence, pos,
			"Storage %s is inconsistently %s on one path and %s on another (branches cannot be merged)",
			c.disp(cf.id), describeAlloc(cf.a), describeAlloc(cf.b))
		if d != nil && cf.aState != nil && cf.aState.deadPos.IsValid() {
			d.WithNote(cf.aState.deadPos, "Storage %s is released", c.disp(cf.id))
		}
	}
	return out
}

// describeAlloc renders an allocation state for confluence messages.
func describeAlloc(a AllocState) string {
	switch a {
	case AllocOnly, AllocOwned:
		return "only (must be released)"
	case AllocKept:
		return "kept (release obligation satisfied)"
	case AllocDead:
		return "released"
	default:
		return a.String()
	}
}

// freshHeapRef creates a reference for anonymous fresh storage (an
// allocation-function result) with states from its result annotations.
func (c *checker) freshHeapRef(st *store, resType *ctypes.Type, res annot.Set, pos ctoken.Pos) (RefID, *refState) {
	c.heapCount++
	id := c.fs.in.intern(heapKey(c.heapCount))
	rs := st.newRef(id)
	rs.typ = resType
	rs.declAnn = res
	rs.declPos = pos
	rs.def = defFromAnnots(res)
	rs.null = nullFromAnnots(res)
	rs.alloc = allocFromAnnots(res)
	rs.baseline = rs.def
	if rs.null == NullMaybe {
		rs.nullPos = pos
	}
	if rs.alloc == AllocUnknown {
		rs.alloc = AllocOnly
	}
	rs.allocPos = pos
	c.provEvent(id, pos, "alloc", "fresh storage allocated (%s)", rs.alloc)
	return id, rs
}

// completeness checks whether the reference rooted at id is completely
// defined, returning the deepest offending derived reference when not.
// Depth is bounded to keep the analysis linear. Iteration runs in
// lexicographic key order so the named offender matches the old
// string-keyed store byte for byte.
func (c *checker) completeness(st *store, id RefID, depth int) (bool, RefID) {
	rs := st.ref(id)
	if rs == nil || depth > 6 {
		return true, noRef
	}
	if rs.relDef {
		return true, noRef
	}
	in := c.fs.in
	switch rs.def {
	case DefUndefined, DefAllocated:
		return false, id
	case DefDefined:
		// Children recorded with weaker states still count.
		for _, k := range in.sortedIDs() {
			if in.parentOf(k) == id && st.ref(k) != nil {
				if ok2, bad := c.completeness(st, k, depth+1); !ok2 {
					return false, bad
				}
			}
		}
		return true, noRef
	case DefPartial:
		// Some reachable storage may be undefined: find it among stored
		// children (of this spelling or of any alias), or materialize
		// struct fields to name it.
		for _, k := range in.sortedIDs() {
			if in.parentOf(k) == id && st.ref(k) != nil {
				if ok2, bad := c.completeness(st, k, depth+1); !ok2 {
					return false, bad
				}
			}
		}
		for _, al := range st.sortedAliases(id) {
			if ok2, bad := c.completeness(st, al, depth+1); !ok2 {
				return false, bad
			}
		}
		// Name an untouched field if the stored children look complete.
		if rs.typ != nil {
			r := rs.typ.Resolve()
			var fields []ctypes.Field
			sel := selArrow
			if r.Kind == ctypes.Pointer && r.Elem != nil && r.Elem.IsStructUnion() {
				fields = r.Elem.Resolve().Fields
			} else if r.IsStructUnion() {
				fields = r.Fields
				sel = selDot
			}
			if rs.baseline <= DefAllocated {
				// Fresh (allocated) storage: untouched fields are
				// undefined, unless their declaration relaxes definition
				// checking (reldef/partial/out).
				for _, f := range fields {
					fEff := f.Type.EffectiveAnnots(f.Annots)
					if fEff.Has(annot.RelDef) || fEff.Has(annot.Partial) || fEff.Has(annot.Out) {
						continue
					}
					ck := in.child(id, selector{kind: sel, name: f.Name})
					if st.ref(ck) == nil {
						return false, ck
					}
				}
			}
		}
		// Every reachable piece checks out: the object is complete.
		return true, noRef
	}
	return true, noRef
}
