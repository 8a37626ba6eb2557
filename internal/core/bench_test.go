package core

import (
	"fmt"
	"testing"

	"golclint/internal/cpp"
	"golclint/internal/diag"
	"golclint/internal/flags"
	"golclint/internal/testgen"
)

// Benchmarks for the abstract-state core (E17). Run with -benchmem: the
// headline claims are check-phase ns/op and allocs/op, recorded before and
// after the interned-reference dense store in EXPERIMENTS.md.

// benchStore builds a store shaped like a mid-sized function's state:
// nRefs references (a mix of locals, parameter mirrors, globals, and
// derived fields) with a sprinkling of alias edges.
func benchStore(fs *fnState, nRefs int) *store {
	st := fs.newStore()
	for i := 0; i < nRefs; i++ {
		var key string
		switch i % 4 {
		case 0:
			key = fmt.Sprintf("p%d", i)
		case 1:
			key = fmt.Sprintf("arg:p%d", i-1)
		case 2:
			key = fmt.Sprintf("g:glob%d", i)
		default:
			key = fmt.Sprintf("p%d->f", i-3)
		}
		id := fs.in.intern(key)
		rs := st.newRef(id)
		rs.def = DefState(i % 4)
		rs.null = NullState(i % 3)
		rs.alloc = AllocState(i % 5)
		if i%4 == 1 {
			st.addAlias(fs.in.intern(fmt.Sprintf("p%d", i-1)), id)
		}
	}
	return st
}

// benchRewind bounds arena growth: every maskth iteration the fnState is
// rewound and the subject store rebuilt, outside the timer — the same reuse
// pattern the checker applies between functions.
const benchRewindMask = 1<<11 - 1

func BenchmarkStoreClone(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("refs=%d", n), func(b *testing.B) {
			fs := newFnState()
			st := benchStore(fs, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i&benchRewindMask == benchRewindMask {
					b.StopTimer()
					fs.reset()
					st = benchStore(fs, n)
					b.StartTimer()
				}
				c := st.clone()
				_ = c
			}
		})
	}
}

func BenchmarkMergeStores(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("refs=%d", n), func(b *testing.B) {
			fs := newFnState()
			a := benchStore(fs, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i&benchRewindMask == benchRewindMask {
					b.StopTimer()
					fs.reset()
					a = benchStore(fs, n)
					b.StartTimer()
				}
				x := a.clone()
				y := a.clone()
				m, _ := mergeStores(x, y)
				_ = m
			}
		})
	}
}

// benchFuncSrc is a representative annotated function: branches, a loop,
// field derivations, allocation, and transfer — every hot store operation.
const benchFuncSrc = `typedef /*@null@*/ struct _list {
	/*@only@*/ char *this;
	/*@null@*/ /*@only@*/ struct _list *next;
} *list;

extern /*@out@*/ /*@only@*/ void *smalloc(unsigned long);
extern void free(/*@null@*/ /*@only@*/ void *p);

void list_addh(/*@temp@*/ list l, /*@only@*/ char *e)
{
	if (l != NULL)
	{
		while (l->next != NULL)
		{
			l = l->next;
		}
		l->next = (list) smalloc(sizeof(*l->next));
		l->next->this = e;
	}
	else
	{
		free(e);
	}
}
`

func BenchmarkCheckFunction(b *testing.B) {
	res := CheckSource("bench.c", benchFuncSrc, Options{})
	if res.Program == nil || len(res.Units) == 0 {
		b.Fatal("setup failed")
	}
	var fn = res.Units[0].Funcs()
	if len(fn) == 0 {
		b.Fatal("no function")
	}
	fl := flags.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &checker{prog: res.Program, fl: fl, rep: diag.NewReporter(0), fs: newFnState(), unknown: map[string]bool{}}
		c.checkFunction(fn[len(fn)-1])
	}
}

// BenchmarkCheckCorpus measures the whole checking phase (CFG + dataflow,
// serial) over the E9 testgen corpus, with parsing and environment
// construction hoisted out of the loop. This is the workload E17's
// BENCH_state.json numbers come from.
func BenchmarkCheckCorpus(b *testing.B) {
	p := testgen.Generate(testgen.Config{
		Seed: 42, Modules: 32, FuncsPer: 10, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: 16},
	})
	res := CheckSources(p.Files, Options{Includes: cpp.MapIncluder(p.Headers)})
	if res.Program == nil {
		b.Fatal("setup failed")
	}
	fl := flags.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := diag.NewReporter(fl.MaxMessages)
		CheckProgram(res.Program, fl, rep)
	}
}
