package core

import (
	"fmt"
	"sort"
	"strings"

	"golclint/internal/cast"
	"golclint/internal/cfg"
	"golclint/internal/ctoken"
	"golclint/internal/diag"
)

// Provenance recording (-explain): the checker optionally keeps, per
// function, a compact event list keyed by RefID plus the stack of branch
// decisions at the current program point. When a diagnostic is emitted the
// recorder assembles a witness path — the function entry, the CFG block
// path to the report site, the branch decisions in force, and the state
// transitions of the implicated ref — and attaches it to the diagnostic.
//
// Cost discipline: the recorder rides the per-worker fnState, so it is
// allocated once per worker and reset per function; every hook in the hot
// path is gated on a single `c.prov != nil` pointer test, and with -explain
// off no recording allocation happens at all. Default output ignores
// provenance entirely (diag.Diagnostic.String), so it stays byte-identical.

// provEvent is one recorded state transition of a ref.
type provEvent struct {
	ref  RefID
	step diag.ProvStep
}

// provRec is the per-worker provenance recorder.
type provRec struct {
	events  []provEvent      // transition log for the current function, in record order
	trail   []diag.ProvStep  // branch decisions on the path to the current point
	fnName  string           // current function
	fnPos   ctoken.Pos       // its position
	g       *cfg.Graph       // its CFG (valid until the worker's next Build)
	pending *diag.Provenance // witness staged by provFor for the next report
}

// reset prepares the recorder for a new function.
func (p *provRec) reset(name string, pos ctoken.Pos) {
	p.events = p.events[:0]
	p.trail = p.trail[:0]
	p.fnName, p.fnPos = name, pos
	p.g = nil
	p.pending = nil
}

// provEvent records a state transition of id. No-op unless -explain is on.
func (c *checker) provEvent(id RefID, pos ctoken.Pos, kind, format string, args ...interface{}) {
	if c.prov == nil || id == noRef {
		return
	}
	c.prov.events = append(c.prov.events, provEvent{
		ref:  id,
		step: diag.ProvStep{Pos: pos, Kind: kind, Msg: fmt.Sprintf(format, args...)},
	})
}

// provPushCond records entering a branch arm guarded by cond;
// provPushLoop and provPop below record entering a loop body and leaving
// either. The checker analyzes one function on one goroutine, so a plain
// stack mirrors the recursive statement walk exactly. The condition
// renders to text only when recording is on.
func (c *checker) provPushCond(pos ctoken.Pos, cond cast.Expr, taken bool) {
	if c.prov == nil {
		return
	}
	way := "true"
	if !taken {
		way = "false"
	}
	c.prov.trail = append(c.prov.trail, diag.ProvStep{
		Pos: pos, Kind: "branch",
		Msg: fmt.Sprintf("condition %s assumed %s", cast.ExprString(cond), way),
	})
}

// provPushLoop records entering a loop body (analyzed as one execution).
func (c *checker) provPushLoop(pos ctoken.Pos, cond cast.Expr) {
	if c.prov == nil {
		return
	}
	msg := "loop body entered (analyzed as one execution)"
	if cond != nil {
		msg = fmt.Sprintf("loop condition %s assumed true (body analyzed as one execution)", cast.ExprString(cond))
	}
	c.prov.trail = append(c.prov.trail, diag.ProvStep{Pos: pos, Kind: "branch", Msg: msg})
}

func (c *checker) provPop() {
	if c.prov == nil {
		return
	}
	c.prov.trail = c.prov.trail[:len(c.prov.trail)-1]
}

// provFor stages the witness for the implicated ref id in store st; the
// next report consumes it. Report sites that know which storage object the
// anomaly concerns call this immediately before c.report.
func (c *checker) provFor(st *store, id RefID) {
	if c.prov == nil {
		return
	}
	c.prov.pending = c.witness(st, id)
}

// witness assembles a provenance from the current recorder state: the
// function entry, the branch-decision trail, and (when a ref is implicated)
// its state transitions in source order.
func (c *checker) witness(st *store, id RefID) *diag.Provenance {
	p := &diag.Provenance{}
	steps := make([]diag.ProvStep, 0, 2+len(c.prov.trail))
	steps = append(steps, diag.ProvStep{
		Pos: c.prov.fnPos, Kind: "entry",
		Msg: fmt.Sprintf("in function %s", c.prov.fnName),
	})
	steps = append(steps, c.prov.trail...)
	if id != noRef && st != nil {
		p.Ref = c.disp(id)
		steps = append(steps, c.refSteps(st, id)...)
	}
	p.Steps = steps
	return p
}

// refSteps derives the implicated ref's transition chain: recorded events
// for the ref or any current alias, plus transitions synthesized from the
// refState's position fields (declared / allocated / released / may-become-
// null), which aliasing and merges already maintain. Events win over
// synthesized steps at the same (line, kind); the result is sorted by
// source position, yielding chains like allocated@L10 -> released@L12.
func (c *checker) refSteps(st *store, id RefID) []diag.ProvStep {
	inAliases := map[RefID]bool{id: true}
	for _, al := range st.aliasSet(id) {
		inAliases[al] = true
	}
	var steps []diag.ProvStep
	seen := map[[2]interface{}]bool{} // (line, kind) pairs already covered
	for _, ev := range c.prov.events {
		if !inAliases[ev.ref] {
			continue
		}
		steps = append(steps, ev.step)
		seen[[2]interface{}{ev.step.Pos.Line, ev.step.Kind}] = true
	}
	synth := func(pos ctoken.Pos, kind, format string, args ...interface{}) {
		if !pos.IsValid() || seen[[2]interface{}{pos.Line, kind}] {
			return
		}
		seen[[2]interface{}{pos.Line, kind}] = true
		steps = append(steps, diag.ProvStep{Pos: pos, Kind: kind, Msg: fmt.Sprintf(format, args...)})
	}
	if rs := st.ref(id); rs != nil {
		name := c.disp(id)
		synth(rs.declPos, "decl", "%s declared", name)
		synth(rs.allocPos, "alloc", "%s acquires a release obligation here", name)
		synth(rs.deadPos, "release", "%s is released (storage becomes dead)", name)
		if rs.null == NullMaybe || rs.null == NullYes {
			synth(rs.nullPos, "null", "%s may become null", name)
		}
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].Pos.Before(steps[j].Pos) })
	return steps
}

// attachWitness finalizes and attaches the staged witness to an emitted
// diagnostic, inserting the CFG block path to the report site after the
// entry step. Called by report with the staged (or an empty ref-less)
// witness, so every diagnostic carries a non-empty path under -explain.
func (c *checker) attachWitness(d *diag.Diagnostic, pend *diag.Provenance, pos ctoken.Pos) {
	if pend == nil {
		pend = c.witness(nil, noRef)
	}
	if c.prov.g != nil && pos.IsValid() {
		if path := c.prov.g.PathToLine(pos.Line); len(path) > 0 {
			var b strings.Builder
			for i, n := range path {
				if i > 0 {
					b.WriteString(" -> ")
				}
				fmt.Fprintf(&b, "%d", n.ID)
			}
			step := diag.ProvStep{Pos: pos, Kind: "path",
				Msg: "reached via execution points " + b.String()}
			pend.Steps = append(pend.Steps, diag.ProvStep{})
			copy(pend.Steps[2:], pend.Steps[1:])
			pend.Steps[1] = step
		}
	}
	d.Prov = pend
}
