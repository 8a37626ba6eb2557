// Package interp is the run-time baseline the paper argues against (§1):
// a dmalloc/Purify-style instrumented executor for the same C subset the
// static checker analyzes. It interprets the AST with an instrumented heap
// and detects — on executed paths only — null dereferences, uses of freed
// storage, double frees, frees of offset or non-heap pointers,
// uninitialized reads, and leaks at exit.
//
// Its purpose is experiment E13: run-time tools find a bug only when a
// test case drives execution through it, while the annotation checker
// covers all paths (§1: "Run-time checking also suffers from the flaw that
// its effectiveness depends entirely on running the right test cases").
package interp

import (
	"fmt"
	"strings"

	"golclint/internal/cast"
	"golclint/internal/ctoken"
	"golclint/internal/ctypes"
	"golclint/internal/sema"
)

// ErrorKind classifies run-time memory errors.
type ErrorKind int

// Run-time error kinds.
const (
	NullDeref ErrorKind = iota
	UseAfterFree
	DoubleFree
	FreeOffset  // freeing a pointer into the middle of a block
	FreeNonHeap // freeing static/stack storage
	UninitRead
	OutOfBounds
	AssertFailed
	StepLimit
	BadProgram // interpreter-level problem (unknown function, bad types)
)

var kindNames = map[ErrorKind]string{
	NullDeref: "null dereference", UseAfterFree: "use after free",
	DoubleFree: "double free", FreeOffset: "free of offset pointer",
	FreeNonHeap: "free of non-heap storage", UninitRead: "uninitialized read",
	OutOfBounds: "out of bounds access", AssertFailed: "assertion failed",
	StepLimit: "step limit exceeded", BadProgram: "bad program",
}

// String names the kind.
func (k ErrorKind) String() string { return kindNames[k] }

// RuntimeError is one detected error.
type RuntimeError struct {
	Kind ErrorKind
	Pos  ctoken.Pos
	Msg  string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string {
	return fmt.Sprintf("%s: %s: %s", e.Pos, e.Kind, e.Msg)
}

// Leak describes a heap block never freed.
type Leak struct {
	AllocPos ctoken.Pos
	Size     int
}

// Result is the outcome of one execution.
type Result struct {
	Errors   []*RuntimeError
	Leaks    []Leak
	Output   string
	ExitCode int
	Steps    int
	Halted   bool // stopped early (error/exit/step limit)
	// ReachedWatch reports whether execution touched the watch line set by
	// RunSpec (always false when no watch was set).
	ReachedWatch bool
}

// ErrorKinds returns the set of error kinds observed.
func (r *Result) ErrorKinds() map[ErrorKind]bool {
	m := map[ErrorKind]bool{}
	for _, e := range r.Errors {
		m[e.Kind] = true
	}
	return m
}

// object is one allocated region: a sequence of abstract slots.
type object struct {
	id      int
	slots   []cvalue
	defined []bool
	freed   bool
	heap    bool // from malloc (leak-tracked, freeable)
	name    string
	allocAt ctoken.Pos
	freedAt ctoken.Pos
}

// cvalue is a run-time value.
type cvalue struct {
	kind vkind
	i    int64
	f    float64
	obj  *object // pointer target (nil pointer: kind=vptr, obj=nil)
	off  int
}

type vkind int

const (
	vUndef vkind = iota
	vInt
	vFloat
	vPtr
)

func intVal(i int64) cvalue     { return cvalue{kind: vInt, i: i} }
func floatVal(f float64) cvalue { return cvalue{kind: vFloat, f: f} }
func ptrVal(o *object, off int) cvalue {
	return cvalue{kind: vPtr, obj: o, off: off}
}

var nullPtr = cvalue{kind: vPtr, obj: nil}

// isTrue interprets a value as a C condition.
func (v cvalue) isTrue() bool {
	switch v.kind {
	case vInt:
		return v.i != 0
	case vFloat:
		return v.f != 0
	case vPtr:
		return v.obj != nil
	}
	return false
}

func (v cvalue) asInt() int64 {
	switch v.kind {
	case vInt:
		return v.i
	case vFloat:
		return int64(v.f)
	case vPtr:
		if v.obj == nil {
			return 0
		}
		return int64(v.obj.id*1000 + v.off)
	}
	return 0
}

func (v cvalue) asFloat() float64 {
	if v.kind == vFloat {
		return v.f
	}
	return float64(v.asInt())
}

// location is an lvalue: a slot in an object.
type location struct {
	obj *object
	off int
}

// control is the statement-level control flow signal.
type control int

const (
	ctlNext control = iota
	ctlBreak
	ctlContinue
	ctlReturn
	ctlExit
)

// Options configures an execution.
type Options struct {
	// MaxSteps bounds execution (default 1 << 20).
	MaxSteps int
	// StopAtFirstError halts at the first runtime error (like a
	// crash); otherwise errors are recorded and execution continues
	// where meaningful.
	StopAtFirstError bool
}

// Interp executes a program.
type Interp struct {
	prog    *sema.Program
	opts    Options
	funcs   map[string]*cast.FuncDef
	globals map[string]location
	enums   map[string]int64

	heap   []*object
	nextID int
	steps  int
	out    strings.Builder
	errs   []*RuntimeError
	exit   int
	halted bool
	retVal cvalue

	// curPos is the position of the statement currently executing; errors
	// raised with an invalid position (notably StepLimit tripping on a
	// back edge) are attributed to it, so every fault carries the source
	// line where execution actually was.
	curPos ctoken.Pos
	// allocCount numbers heap allocations within one run; when it reaches
	// failAllocAt the allocation returns NULL (RunSpec fault injection).
	allocCount  int
	failAllocAt int
	// watchFile/watchLine mark the fault site a harness run is trying to
	// reach; reachedWatch records whether execution touched it.
	watchFile    string
	watchLine    int
	reachedWatch bool
	// globalVars are the file-scope definitions, kept so Reset can rebuild
	// the globals exactly as construction did.
	globalVars []*cast.VarDecl
}

// New prepares an interpreter over the analyzed program.
func New(prog *sema.Program, opts Options) *Interp {
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 1 << 20
	}
	in := &Interp{
		prog: prog, opts: opts,
		funcs:   map[string]*cast.FuncDef{},
		globals: map[string]location{},
		enums:   prog.Enums,
	}
	for _, u := range prog.Units {
		for _, f := range u.Funcs() {
			in.funcs[f.Name] = f
		}
		for _, d := range u.Decls {
			if vd, ok := d.(*cast.VarDecl); ok && !vd.IsPrototype() && vd.Storage != cast.StorageTypedef {
				in.globalVars = append(in.globalVars, vd)
			}
		}
	}
	for _, vd := range in.globalVars {
		in.defineGlobal(vd)
	}
	return in
}

func (in *Interp) defineGlobal(vd *cast.VarDecl) {
	if _, exists := in.globals[vd.Name]; exists {
		return
	}
	obj := in.newObject(slotCount(vd.Type), false, vd.Name, vd.Pos())
	// File-scope objects are zero-initialized in C.
	for i := range obj.slots {
		obj.slots[i] = zeroFor(vd.Type)
		obj.defined[i] = true
	}
	in.globals[vd.Name] = location{obj: obj, off: 0}
	if vd.Init != nil {
		env := &frame{in: in, vars: map[string]varInfo{}}
		v := env.eval(vd.Init)
		obj.slots[0] = v.v
	}
}

func zeroFor(t *ctypes.Type) cvalue {
	if t != nil && t.IsPointerLike() {
		return nullPtr
	}
	if t != nil && t.IsFloat() {
		return floatVal(0)
	}
	return intVal(0)
}

// slotCount computes the abstract size of a type: one slot per scalar,
// structs flattened, arrays by element count (unknown size: 16).
func slotCount(t *ctypes.Type) int {
	if t == nil {
		return 1
	}
	r := t.Resolve()
	if r == nil {
		return 1
	}
	switch r.Kind {
	case ctypes.Struct, ctypes.Union:
		n := 0
		for _, f := range r.Fields {
			n += slotCount(f.Type)
		}
		if n == 0 {
			n = 1
		}
		return n
	case ctypes.Array:
		ln := r.Len
		if ln <= 0 {
			ln = 16
		}
		return ln * slotCount(r.Elem)
	default:
		return 1
	}
}

// fieldOffset computes a field's slot offset within a struct.
func fieldOffset(t *ctypes.Type, name string) (int, *ctypes.Type, bool) {
	r := t.Resolve()
	if r == nil || (r.Kind != ctypes.Struct && r.Kind != ctypes.Union) {
		return 0, nil, false
	}
	off := 0
	for _, f := range r.Fields {
		if f.Name == name {
			return off, f.Type, true
		}
		if r.Kind == ctypes.Struct {
			off += slotCount(f.Type)
		}
	}
	return 0, nil, false
}

func (in *Interp) newObject(n int, heap bool, name string, pos ctoken.Pos) *object {
	in.nextID++
	o := &object{
		id: in.nextID, slots: make([]cvalue, n), defined: make([]bool, n),
		heap: heap, name: name, allocAt: pos,
	}
	if heap {
		in.heap = append(in.heap, o)
	}
	return o
}

func (in *Interp) errorf(kind ErrorKind, pos ctoken.Pos, format string, args ...interface{}) {
	// Faults raised without a position (a step budget tripping on a loop
	// back edge, say) land on the statement currently executing, so every
	// recorded error names the faulting source line.
	if !pos.IsValid() && in.curPos.IsValid() {
		pos = in.curPos
	}
	in.noteWatch(pos)
	in.errs = append(in.errs, &RuntimeError{Kind: kind, Pos: pos, Msg: fmt.Sprintf(format, args...)})
	if in.opts.StopAtFirstError {
		in.halted = true
	}
}

// noteWatch records that execution touched pos, for RunSpec watch lines.
func (in *Interp) noteWatch(pos ctoken.Pos) {
	if in.watchLine != 0 && int(pos.Line) == in.watchLine && pos.File.String() == in.watchFile {
		in.reachedWatch = true
	}
}

// allocHeap allocates one instrumented heap object, honoring the per-run
// allocation fault schedule: the failAllocAt'th allocation returns nil (a
// modeled out-of-memory failure), which the malloc-family builtins surface
// as NULL results.
func (in *Interp) allocHeap(n int, name string, pos ctoken.Pos) *object {
	in.allocCount++
	if in.failAllocAt != 0 && in.allocCount == in.failAllocAt {
		return nil
	}
	return in.newObject(n, true, name, pos)
}

// Run executes the named entry function (typically "main") and returns the
// instrumented result, including end-of-execution leak detection.
func (in *Interp) Run(entry string) *Result {
	f, ok := in.funcs[entry]
	if !ok {
		in.errorf(BadProgram, ctoken.Pos{}, "entry function %q not defined", entry)
	} else {
		in.callFunction(f, nil, f.Pos())
	}
	return in.finish()
}

// finish assembles the Result for the execution so far, including the
// end-of-execution leak scan.
func (in *Interp) finish() *Result {
	res := &Result{
		Errors: in.errs, Output: in.out.String(), ExitCode: in.exit,
		Steps: in.steps, Halted: in.halted, ReachedWatch: in.reachedWatch,
	}
	for _, o := range in.heap {
		if !o.freed {
			res.Leaks = append(res.Leaks, Leak{AllocPos: o.allocAt, Size: len(o.slots)})
		}
	}
	return res
}

// callFunction executes a function body with the given argument values.
func (in *Interp) callFunction(f *cast.FuncDef, args []cvalue, at ctoken.Pos) cvalue {
	if in.halted {
		return cvalue{}
	}
	fr := &frame{in: in, vars: map[string]varInfo{}}
	for i, p := range f.Params {
		obj := in.newObject(slotCount(p.Type), false, p.Name, p.Pos())
		if i < len(args) {
			obj.slots[0] = args[i]
			obj.defined[0] = true
		}
		fr.vars[p.Name] = varInfo{loc: location{obj: obj, off: 0}, typ: p.Type}
	}
	ctl := fr.exec(f.Body)
	if ctl == ctlReturn || ctl == ctlNext {
		return in.retVal
	}
	return cvalue{}
}
