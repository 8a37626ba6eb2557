// Package validate implements counterexample validation: it replays each
// diagnostic's witness path through the instrumented interpreter
// (internal/interp) from a synthesized harness and tags the diagnostic with
// the outcome. This closes the loop the paper leaves open between static
// detection and run-time checking (§1, §7): a "confirmed" tag means a
// concrete input was found that drives execution to the reported site and
// trips the matching run-time fault, turning a static anomaly report into a
// demonstrated memory error.
//
// Input generation is search-lite, not a solver: integer candidates are
// harvested from the constants appearing in the witness path's branch
// conditions (core.PathConds) plus boundary neighbors and small defaults;
// pointer parameters enumerate {fresh buffer, NULL}; allocation-failure
// schedules cover modeled out-of-memory paths. The search is deterministic
// (sorted candidates, fixed enumeration order, bounded budgets), so
// validation output is byte-identical across runs, worker counts, and cache
// replays.
package validate

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"golclint/internal/core"
	"golclint/internal/ctypes"
	"golclint/internal/diag"
	"golclint/internal/interp"
	"golclint/internal/sema"
)

// Options bounds the validation search.
type Options struct {
	// MaxRunsPerDiag caps harness executions per diagnostic (default 48).
	MaxRunsPerDiag int
	// MaxStepsPerRun is the per-run interpreter step budget (default 200k).
	MaxStepsPerRun int
}

func (o *Options) defaults() {
	if o.MaxRunsPerDiag <= 0 {
		o.MaxRunsPerDiag = 48
	}
	if o.MaxStepsPerRun <= 0 {
		o.MaxStepsPerRun = 200_000
	}
}

// Summary tallies one Apply pass.
type Summary struct {
	Examined     int // diagnostics tagged
	Confirmed    int
	Infeasible   int
	Unreproduced int
}

// runtimeCodes are the anomaly classes with a run-time manifestation the
// interpreter can observe. Everything else (annotation placement, aliasing
// contracts, interface completeness) is a static property: such diagnostics
// tag "unreproduced" with an explanatory detail rather than pretending a
// replay was attempted.
var runtimeCodes = map[diag.Code]bool{
	diag.NullDeref: true, diag.NullPass: true,
	diag.UseUndef: true,
	diag.Leak:     true, diag.UseDead: true, diag.DoubleRelease: true,
	diag.Confluence: true, diag.LeakReturn: true,
}

// nullClassCodes additionally search allocation-failure schedules, since
// the usual way a checked pointer becomes null is a failed malloc.
var nullClassCodes = map[diag.Code]bool{
	diag.NullDeref: true, diag.NullPass: true,
	diag.NullAssign: true, diag.NullReturn: true,
}

// Apply validates every not-yet-tagged diagnostic in place, attaching a
// Validation record to each, and returns the tally (of the diagnostics it
// examined; already-tagged diagnostics replayed from the cache are left
// untouched and uncounted). Diagnostics are processed in slice (sorted)
// order and the search is deterministic, so repeated applications over the
// same program produce identical tags. prog must be the analyzed
// program the diagnostics came from; with a nil prog Apply is a no-op.
func Apply(prog *sema.Program, diags []*diag.Diagnostic, opt Options) Summary {
	var sum Summary
	if prog == nil {
		return sum
	}
	opt.defaults()
	in := interp.New(prog, interp.Options{MaxSteps: opt.MaxStepsPerRun})
	for _, d := range diags {
		if d == nil {
			continue
		}
		if d.Validation != nil {
			// Already tagged — replayed from a cache sub-entry. Each
			// validation search is independent (RunEntry resets the
			// interpreter), so skipping it cannot change any other
			// diagnostic's outcome.
			continue
		}
		v := validateOne(in, prog, d, opt)
		d.Validation = v
		sum.Examined++
		switch v.Tag {
		case diag.Confirmed:
			sum.Confirmed++
		case diag.PathInfeasible:
			sum.Infeasible++
		default:
			sum.Unreproduced++
		}
	}
	return sum
}

// validateOne searches for an input reproducing one diagnostic.
func validateOne(in *interp.Interp, prog *sema.Program, d *diag.Diagnostic, opt Options) *diag.Validation {
	if !runtimeCodes[d.Code] {
		return &diag.Validation{Tag: diag.Unreproduced,
			Detail: "anomaly has no run-time manifestation to replay"}
	}
	fn := core.WitnessFunction(d.Prov)
	if fn == "" {
		return &diag.Validation{Tag: diag.Unreproduced,
			Detail: "no witness path to derive a harness from"}
	}
	sig, ok := prog.Lookup(fn)
	if !ok || !sig.HasBody {
		return &diag.Validation{Tag: diag.Unreproduced,
			Detail: fmt.Sprintf("function %s has no executable definition", fn)}
	}

	conds := core.PathConds(d.Prov)
	tuples := argTuples(sig, conds, d.Code, opt.MaxRunsPerDiag)
	schedules := []int{0}
	if nullClassCodes[d.Code] {
		// A modeled malloc failure is usually what makes the pointer null.
		schedules = []int{0, 1, 2, 3}
	}

	runs := 0
	reached := false
	badProgram := false
	for _, args := range tuples {
		for _, failAt := range schedules {
			if runs >= opt.MaxRunsPerDiag {
				break
			}
			runs++
			res := in.RunEntry(interp.RunSpec{
				Entry: fn, Args: args,
				MaxSteps:    opt.MaxStepsPerRun,
				FailAllocAt: failAt,
				WatchFile:   d.Pos.File.String(), WatchLine: int(d.Pos.Line),
			})
			if res.ReachedWatch {
				reached = true
			}
			for _, e := range res.Errors {
				if e.Kind == interp.BadProgram {
					badProgram = true
				}
			}
			if reproduces(d, res) {
				return &diag.Validation{Tag: diag.Confirmed,
					Detail: confirmDetail(fn, args, failAt)}
			}
		}
	}
	if badProgram {
		// The harness called into code the interpreter cannot execute (an
		// undefined extern, say), so the search never really ran.
		return &diag.Validation{Tag: diag.Unreproduced,
			Detail: "program is not executable by the run-time baseline"}
	}
	if !reached {
		return &diag.Validation{Tag: diag.PathInfeasible,
			Detail: fmt.Sprintf("no generated input reached %s:%d in %d runs",
				d.Pos.File, d.Pos.Line, runs)}
	}
	return &diag.Validation{Tag: diag.Unreproduced,
		Detail: fmt.Sprintf("%d runs reached the site without tripping the fault", runs)}
}

// confirmDetail names the reproducing input, rendered as the call a test
// harness would make.
func confirmDetail(fn string, args []interp.Arg, failAt int) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	s := fmt.Sprintf("reproduced by %s(%s)", fn, strings.Join(parts, ", "))
	if failAt > 0 {
		s += fmt.Sprintf(" with allocation %d failing", failAt)
	}
	return s
}

// reproduces decides whether one execution demonstrates the diagnosed
// anomaly: the matching run-time fault at the reported site, or, for leak
// classes, the reported storage still live when execution ends.
func reproduces(d *diag.Diagnostic, res *interp.Result) bool {
	atSite := func(kind interp.ErrorKind) bool {
		for _, e := range res.Errors {
			if e.Kind == kind && e.Pos.File == d.Pos.File && e.Pos.Line == d.Pos.Line {
				return true
			}
		}
		return false
	}
	anywhere := func(kind interp.ErrorKind) bool {
		for _, e := range res.Errors {
			if e.Kind == kind {
				return true
			}
		}
		return false
	}
	switch d.Code {
	case diag.NullDeref:
		return atSite(interp.NullDeref)
	case diag.UseDead, diag.DoubleRelease:
		// A dead-pointer use at a free call site manifests as a double
		// free, and vice versa: the checker and the interpreter classify
		// the same event from different angles, so either kind counts.
		return atSite(interp.UseAfterFree) || atSite(interp.DoubleFree)
	case diag.UseUndef:
		return atSite(interp.UninitRead)
	case diag.NullPass:
		// The null argument faults inside the callee, so the site line
		// differs from the report; any null dereference after reaching the
		// diagnosed call counts.
		return res.ReachedWatch && anywhere(interp.NullDeref)
	case diag.Leak, diag.LeakReturn:
		// Leaks manifest at end of execution, not at a stepped statement
		// (the report line may be a closing brace no statement occupies):
		// a run that reached the site or ran to normal completion and left
		// the implicated storage live demonstrates the leak.
		return (res.ReachedWatch || !res.Halted) && leakMatches(d, res)
	case diag.Confluence:
		// Inconsistent branch states manifest as whichever allocation fault
		// the taken path produces.
		return res.ReachedWatch &&
			(anywhere(interp.UseAfterFree) || anywhere(interp.DoubleFree) || leakMatches(d, res))
	}
	return false
}

// leakMatches checks the run leaked the storage the diagnostic implicates:
// a block allocated at the witness's alloc step, or failing a recorded
// alloc step, any block allocated in the diagnosed file.
func leakMatches(d *diag.Diagnostic, res *interp.Result) bool {
	allocLines := map[int32]bool{}
	if d.Prov != nil {
		for _, s := range d.Prov.Steps {
			if s.Kind == "alloc" && s.Pos.File == d.Pos.File {
				allocLines[s.Pos.Line] = true
			}
		}
	}
	for _, l := range res.Leaks {
		if l.AllocPos.File != d.Pos.File {
			continue
		}
		if len(allocLines) == 0 || allocLines[l.AllocPos.Line] {
			return true
		}
	}
	return false
}

var intLit = regexp.MustCompile(`-?\d+`)

// intCandidates harvests integer input candidates from the witness path's
// branch conditions: every literal constant c contributes the boundary
// triple {c-1, c, c+1}, plus small defaults. The result is deduplicated and
// sorted, capped at limit.
func intCandidates(conds []core.PathCond, limit int) []int64 {
	set := map[int64]bool{0: true, 1: true, -1: true, 2: true}
	for _, c := range conds {
		for _, m := range intLit.FindAllString(c.Cond, -1) {
			n, err := strconv.ParseInt(m, 10, 64)
			if err != nil {
				continue
			}
			set[n-1], set[n], set[n+1] = true, true, true
		}
	}
	out := make([]int64, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// argTuples enumerates candidate argument vectors for the harness, in a
// deterministic order, capped at limit tuples. Integer parameters draw from
// the harvested candidates; pointer parameters enumerate a fresh buffer
// (sized by the interpreter's slot model) and NULL, NULL first for
// null-class diagnostics.
func argTuples(sig *sema.FuncSig, conds []core.PathCond, code diag.Code, limit int) [][]interp.Arg {
	ints := intCandidates(conds, 8)
	perParam := make([][]interp.Arg, len(sig.Params))
	for i, p := range sig.Params {
		perParam[i] = paramCandidates(p.Type, ints, nullClassCodes[code])
	}
	if len(perParam) == 0 {
		return [][]interp.Arg{nil}
	}
	// Odometer enumeration of the cartesian product, first coordinates
	// varying fastest so early tuples explore the first parameter's range.
	idx := make([]int, len(perParam))
	var out [][]interp.Arg
	for len(out) < limit {
		tuple := make([]interp.Arg, len(perParam))
		for i := range perParam {
			tuple[i] = perParam[i][idx[i]]
		}
		out = append(out, tuple)
		k := 0
		for k < len(idx) {
			idx[k]++
			if idx[k] < len(perParam[k]) {
				break
			}
			idx[k] = 0
			k++
		}
		if k == len(idx) {
			break
		}
	}
	return out
}

// paramCandidates lists the values to try for one parameter.
func paramCandidates(t *ctypes.Type, ints []int64, nullFirst bool) []interp.Arg {
	if t != nil && t.IsPointerLike() {
		var concrete interp.Arg
		pointee := t.PointeeOrElem()
		if pointee != nil && pointee.Resolve() != nil &&
			(pointee.Resolve().Kind == ctypes.Char || pointee.Resolve().Kind == ctypes.UChar) {
			concrete = interp.StrArg("a")
		} else {
			concrete = interp.BufArg(interp.TypeSlots(pointee))
		}
		if nullFirst {
			return []interp.Arg{interp.NullArg(), concrete}
		}
		return []interp.Arg{concrete, interp.NullArg()}
	}
	out := make([]interp.Arg, len(ints))
	for i, n := range ints {
		out[i] = interp.IntArg(n)
	}
	return out
}
