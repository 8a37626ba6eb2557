// Command lclbench regenerates every table and figure reproduction from
// the paper's evaluation (experiments E1-E21 in DESIGN.md and
// EXPERIMENTS.md). Each subcommand prints one experiment; "all" runs the
// full set.
//
// The perf experiments also emit machine-readable companions alongside the
// prose tables — BENCH_scaling.json (E9), BENCH_modular.json (E10),
// BENCH_parallel.json (E15), BENCH_incremental.json (E16),
// BENCH_state.json (E17), BENCH_frontend.json (E18),
// BENCH_provenance.json (E19), BENCH_validate.json (E20),
// BENCH_serve.json (E21), BENCH_distributed.json (E22), and
// BENCH_editloop.json (E23) in the current
// directory — each stamped with the
// experiment's elapsed time and allocation totals (measured per benchmark
// row, so alloc figures are attributable) so the numbers are diffable
// across changes.
//
// Usage:
//
//	lclbench [-jobs n] [-quick] [samples|listaddh|ercdb|scaling|modular|economy|staticvsdynamic|nofixpoint|parallel|incremental|state|frontend|provenance|validate|serve|distributed|editloop|all]
//
//	-jobs n   highest worker count the parallel experiment sweeps to
//	          (0 = GOMAXPROCS)
//	-quick    run only the BENCH-emitting experiments on small
//	          corpora (the CI smoke mode)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"golclint/internal/atomicio"
	"golclint/internal/cache"
	"golclint/internal/cfg"
	"golclint/internal/cli"
	"golclint/internal/core"
	"golclint/internal/cpp"
	"golclint/internal/diag"
	"golclint/internal/ercdb"
	"golclint/internal/flags"
	"golclint/internal/interp"
	"golclint/internal/library"
	"golclint/internal/obs"
	"golclint/internal/server"
	"golclint/internal/testgen"
	"golclint/internal/validate"
)

// outDir is where BENCH_*.json files land; tests redirect it.
var outDir = "."

// benchMeta stamps every BENCH file with enough context to compare runs.
type benchMeta struct {
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// ElapsedNS is the experiment's end-to-end wall-clock time.
	ElapsedNS int64 `json:"elapsed_ns"`
	// AllocBytes is the total heap allocated during the experiment
	// (runtime.MemStats.TotalAlloc delta).
	AllocBytes uint64 `json:"alloc_bytes"`
	// PeakHeapBytes is the heap footprint obtained from the OS by the end
	// of the experiment (runtime.MemStats.HeapSys), an upper bound on the
	// peak live heap.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
}

// measure runs f, returning meta filled with elapsed time and allocation
// deltas for the given schema/experiment identifiers.
func measure(schema, experiment string, f func()) benchMeta {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return benchMeta{
		Schema:        schema,
		Experiment:    experiment,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		ElapsedNS:     elapsed.Nanoseconds(),
		AllocBytes:    after.TotalAlloc - before.TotalAlloc,
		PeakHeapBytes: after.HeapSys,
	}
}

// measureRow runs one benchmark row, returning its wall-clock time and the
// heap allocated during the call. Each row takes its own before/after
// MemStats readings so alloc totals are attributable per row rather than
// smeared across a whole experiment.
func measureRow(f func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, after.TotalAlloc - before.TotalAlloc
}

// writeBenchJSON writes v to outDir/name, reporting the path so runs are
// self-describing.
func writeBenchJSON(name string, v interface{}) {
	path := filepath.Join(outDir, name)
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lclbench: %v\n", err)
		return
	}
	if err := atomicio.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "lclbench: %v\n", err)
		return
	}
	fmt.Printf("wrote %s\n", path)
}

var experiments = []struct {
	name string
	run  func()
}{
	{"samples", runSamples},
	{"listaddh", runListAddh},
	{"ercdb", runErcDB},
	{"scaling", runScaling},
	{"modular", runModular},
	{"economy", runEconomy},
	{"staticvsdynamic", runStaticVsDynamic},
	{"nofixpoint", runNoFixpoint},
	{"parallel", runParallel},
	{"incremental", runIncremental},
	{"state", runState},
	{"frontend", runFrontend},
	{"provenance", runProvenance},
	{"validate", runValidate},
	{"serve", runServe},
	{"distributed", runDistributed},
	{"editloop", runEditloop},
}

// maxJobs is the highest worker count the parallel experiment sweeps to
// (set by -jobs; 0 means GOMAXPROCS).
var maxJobs = 0

func main() {
	fs := flag.NewFlagSet("lclbench", flag.ExitOnError)
	jobs := fs.Int("jobs", 0, "highest worker count for the parallel experiment (0 = GOMAXPROCS)")
	quick := fs.Bool("quick", false, "run the BENCH-emitting experiments on small corpora (CI smoke)")
	_ = fs.Parse(os.Args[1:])
	maxJobs = *jobs
	if *quick {
		runScalingSizes([]int{2, 4})
		runModularModules(8)
		runParallelConfig(8, 6, maxJobs)
		runIncrementalModules(8)
		runStateIters(3)
		runFrontendIters(3)
		runProvenanceIters(10)
		runValidateIters(3)
		runServeConfig(8, 6, 20, 4)
		runDistributedConfig(true)
		runEditloopConfig(true)
		return
	}
	cmd := "all"
	if fs.NArg() > 0 {
		cmd = fs.Arg(0)
	}
	if cmd == "all" {
		for _, e := range experiments {
			e.run()
		}
		return
	}
	for _, e := range experiments {
		if e.name == cmd {
			e.run()
			return
		}
	}
	fmt.Fprintf(os.Stderr, "lclbench: unknown experiment %q\n", cmd)
	os.Exit(2)
}

func header(id, title string) {
	fmt.Printf("\n=== %s: %s ===\n", id, title)
}

// ---------------------------------------------------------------------------
// E1-E3: the sample.c walkthrough (Figures 1-4).

const sampleNull = `extern char *gname;

void setName (/*@null@*/ char *pname)
{
	gname = pname;
}
`

const sampleTruenull = `extern char *gname;
extern /*@truenull@*/ int isNull (/*@null@*/ char *x);

void setName (/*@null@*/ char *pname)
{
	if (!isNull (pname))
	{
		gname = pname;
	}
}
`

const sampleOnlyTemp = `extern /*@only@*/ char *gname;

void setName (/*@temp@*/ char *pname)
{
	gname = pname;
}
`

func runSamples() {
	header("E1 (Figure 2)", "null parameter assigned to non-null global")
	fmt.Print(core.CheckSource("sample.c", sampleNull, core.Options{}).Messages())
	header("E2 (Figure 3)", "truenull guard removes the anomaly")
	res := core.CheckSource("sample.c", sampleTruenull, core.Options{})
	if len(res.Diags) == 0 {
		fmt.Println("(no messages — anomaly resolved)")
	} else {
		fmt.Print(res.Messages())
	}
	header("E3 (Figure 4)", "only global assigned a temp parameter")
	fmt.Print(core.CheckSource("sample.c", sampleOnlyTemp, core.Options{}).Messages())
}

// ---------------------------------------------------------------------------
// E4: list_addh (Figures 5-6).

const listAddh = `typedef /*@null@*/ struct _list {
	/*@only@*/ char *this;
	/*@null@*/ /*@only@*/ struct _list *next;
} *list;

extern /*@out@*/ /*@only@*/ void *smalloc(unsigned long);

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
}
`

func runListAddh() {
	header("E4 (Figures 5-6)", "buggy list_addh: control flow and anomalies")
	res := core.CheckSource("list.c", listAddh, core.Options{})
	for _, u := range res.Units {
		for _, f := range u.Funcs() {
			fmt.Print(cfg.Build(f).Dump())
		}
	}
	fmt.Println()
	fmt.Print(res.Messages())
}

// ---------------------------------------------------------------------------
// E5-E8: the Section 6 employee-database walkthrough.

func runErcDB() {
	header("E5-E8 (Section 6)", "employee database annotation iterations")
	fmt.Printf("%-16s %8s %8s %10s %s\n", "stage", "lines", "annots", "messages", "by category")
	for _, st := range ercdb.Stages() {
		res := core.CheckSources(ercdb.CSources(st), core.Options{
			Includes: cpp.MapIncluder(ercdb.Headers(st)),
		})
		counts := res.CountByCode()
		var keys []diag.Code
		for c := range counts {
			keys = append(keys, c)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		var parts []string
		for _, c := range keys {
			parts = append(parts, fmt.Sprintf("%s=%d", c, counts[c]))
		}
		fmt.Printf("%-16s %8d %8d %10d %s\n", st, ercdb.TotalLines(st),
			ercdb.AnnotationCount(st), len(res.Diags), strings.Join(parts, " "))
	}
	fmt.Println("paper: 15 annotations total (1 null + 1 out + 13 only); final program clean")
}

// ---------------------------------------------------------------------------
// E9: checking time scales ~linearly with program size (§7: 100k lines in
// under four minutes on a DEC 3000/500).

// scalingRow is one program size in BENCH_scaling.json. Phase durations and
// counters come from the instrumented run (internal/obs).
type scalingRow struct {
	Lines     int     `json:"lines"`
	Modules   int     `json:"modules"`
	CheckMS   float64 `json:"check_ms"`
	MSPerKLOC float64 `json:"ms_per_kloc"`
	Messages  int     `json:"messages"`
	// AllocBytes is the heap allocated checking this row alone (per-row
	// MemStats delta).
	AllocBytes uint64           `json:"alloc_bytes"`
	PhasesNS   map[string]int64 `json:"phases_ns"`
	Counters   map[string]int64 `json:"counters"`
}

type scalingDoc struct {
	benchMeta
	Rows []scalingRow `json:"rows"`
}

func runScaling() { runScalingSizes([]int{2, 8, 32, 64, 128}) }

// runScalingSizes is runScaling over a configurable module-count set (tests
// use a small one).
func runScalingSizes(sizes []int) {
	header("E9 (Section 7)", "checking time vs program size")
	fmt.Printf("%10s %8s %12s %12s %10s\n", "lines", "modules", "check(ms)", "ms/kloc", "messages")
	var rows []scalingRow
	meta := measure("golclint-bench-scaling/v1", "E9", func() {
		for _, modules := range sizes {
			p := testgen.Generate(testgen.Config{
				Seed: 42, Modules: modules, FuncsPer: 10, Annotate: true,
				Bugs: map[testgen.BugKind]int{testgen.BugLeak: modules / 2},
			})
			m := obs.New()
			var res *core.Result
			elapsed, alloc := measureRow(func() {
				res = core.CheckSources(p.Files, core.Options{Includes: cpp.MapIncluder(p.Headers), Metrics: m})
			})
			ms := float64(elapsed.Microseconds()) / 1000
			fmt.Printf("%10d %8d %12.1f %12.2f %10d\n",
				p.Lines, modules, ms, ms/(float64(p.Lines)/1000), len(res.Diags))
			snap := m.Snapshot()
			rows = append(rows, scalingRow{
				Lines: p.Lines, Modules: modules, CheckMS: ms,
				MSPerKLOC: ms / (float64(p.Lines) / 1000), Messages: len(res.Diags),
				AllocBytes: alloc,
				PhasesNS:   snap.PhasesNS, Counters: snap.Counters,
			})
		}
	})
	fmt.Println("paper shape: time grows ~linearly; ms/kloc stays ~flat")
	writeBenchJSON("BENCH_scaling.json", scalingDoc{benchMeta: meta, Rows: rows})
}

// ---------------------------------------------------------------------------
// E10: modular re-checking with interface libraries (§7: a 5000-line
// module re-checks in seconds versus minutes for the whole program).

// modularDoc is BENCH_modular.json: whole-program vs one-module timings.
type modularDoc struct {
	benchMeta
	WholeLines int   `json:"whole_lines"`
	WholeNS    int64 `json:"whole_ns"`
	// WholeAllocBytes / ModuleAllocBytes are per-measurement MemStats
	// deltas, so each figure is attributable to its own check.
	WholeAllocBytes  uint64           `json:"whole_alloc_bytes"`
	ModuleLines      int              `json:"module_lines"`
	ModuleNS         int64            `json:"module_ns"`
	ModuleAllocBytes uint64           `json:"module_alloc_bytes"`
	Speedup          float64          `json:"speedup"`
	LibraryEntries   int              `json:"library_entries"`
	ModulePhasesNS   map[string]int64 `json:"module_phases_ns"`
	ModuleCounters   map[string]int64 `json:"module_counters"`
}

func runModular() { runModularModules(64) }

// runModularModules is runModular with a configurable corpus size (tests
// use a small one).
func runModularModules(modules int) {
	header("E10 (Section 7)", "whole-program vs modular re-check")
	var doc modularDoc
	meta := measure("golclint-bench-modular/v1", "E10", func() {
		p := testgen.Generate(testgen.Config{
			Seed: 43, Modules: modules, FuncsPer: 10, Annotate: true,
		})
		var whole *core.Result
		wholeTime, wholeAlloc := measureRow(func() {
			whole = core.CheckSources(p.Files, core.Options{Includes: cpp.MapIncluder(p.Headers)})
		})

		lib := library.Build(whole.Program)
		mod := map[string]string{"mod0.c": p.Files["mod0.c"]}
		m := obs.New()
		modTime, modAlloc := measureRow(func() {
			library.CheckModule(mod, lib, core.Options{Includes: cpp.MapIncluder(p.Headers), Metrics: m})
		})

		fmt.Printf("whole program (%d lines): %v\n", p.Lines, wholeTime)
		fmt.Printf("one module with library (%d lines): %v\n",
			strings.Count(p.Files["mod0.c"], "\n"), modTime)
		fmt.Printf("speedup: %.1fx (library: %s)\n",
			float64(wholeTime)/float64(modTime), lib.Stats())
		snap := m.Snapshot()
		doc = modularDoc{
			WholeLines: p.Lines, WholeNS: wholeTime.Nanoseconds(),
			WholeAllocBytes:  wholeAlloc,
			ModuleLines:      strings.Count(p.Files["mod0.c"], "\n"),
			ModuleNS:         modTime.Nanoseconds(),
			ModuleAllocBytes: modAlloc,
			Speedup:          float64(wholeTime) / float64(modTime),
			LibraryEntries:   lib.EntryCount(),
			ModulePhasesNS:   snap.PhasesNS, ModuleCounters: snap.Counters,
		}
	})
	fmt.Println("paper shape: module re-check is an order of magnitude faster")
	doc.benchMeta = meta
	writeBenchJSON("BENCH_modular.json", doc)
}

// ---------------------------------------------------------------------------
// E11: message economy (§7: ~1000 messages on the unannotated program,
// nearly all eliminated by a few annotations).

func runEconomy() {
	header("E11 (Section 7)", "annotation economy: messages before/after annotating")
	fl := flags.Default()
	fl.ImplicitOnly = false
	for _, modules := range []int{8, 32, 64} {
		bare := testgen.Generate(testgen.Config{Seed: 44, Modules: modules, FuncsPer: 10})
		ann := testgen.Generate(testgen.Config{Seed: 44, Modules: modules, FuncsPer: 10, Annotate: true})
		resBare := core.CheckSources(bare.Files, core.Options{Flags: fl.Clone(), Includes: cpp.MapIncluder(bare.Headers)})
		resAnn := core.CheckSources(ann.Files, core.Options{Flags: fl.Clone(), Includes: cpp.MapIncluder(ann.Headers)})
		annots := 3 * modules // only/null markers per module (create+destroy+field)
		fmt.Printf("%6d lines: unannotated %4d messages -> annotated %3d messages (~%d annotations, %.1f messages per annotation)\n",
			bare.Lines, len(resBare.Diags), len(resAnn.Diags), annots,
			float64(len(resBare.Diags)-len(resAnn.Diags))/float64(annots))
	}
	fmt.Println("paper shape: adding one annotation eliminates many messages")
}

// ---------------------------------------------------------------------------
// E13: static vs run-time detection under partial test coverage.

func runStaticVsDynamic() { runStaticVsDynamicConfig(6, 4, 4, []int{0, 25, 50, 100}) }

// runStaticVsDynamicConfig is runStaticVsDynamic with a configurable corpus
// and coverage sweep. The interpreter baseline is minutes-scale at the full
// configuration on small machines, so the package test exercises a reduced
// one (the committed full run records the headline table).
func runStaticVsDynamicConfig(modules, funcsPer, bugsEach int, fracs []int) {
	header("E13 (Section 1/7)", "seeded-bug recall: static checker vs run-time baseline")
	bugMix := map[testgen.BugKind]int{
		testgen.BugLeak: bugsEach, testgen.BugCondLeak: bugsEach, testgen.BugUseAfterFree: bugsEach,
		testgen.BugDoubleFree: bugsEach, testgen.BugNullDeref: bugsEach, testgen.BugUninit: bugsEach,
	}
	p := testgen.Generate(testgen.Config{
		Seed: 45, Modules: modules, FuncsPer: funcsPer, Annotate: true, WithDriver: true, Bugs: bugMix,
	})
	total := len(p.Bugs)

	res := core.CheckSources(p.Files, core.Options{Includes: cpp.MapIncluder(p.Headers)})
	staticFound := 0
	for _, b := range p.Bugs {
		for _, d := range res.Diags {
			if d.Pos.File.String() == b.File {
				staticFound++
				break
			}
		}
	}

	fmt.Printf("%d seeded bugs across %d modules (%d lines)\n", total, modules, p.Lines)
	fmt.Printf("%-28s %8s\n", "detector", "found")
	fmt.Printf("%-28s %5d/%d\n", "static (no test cases)", staticFound, total)
	for _, frac := range fracs {
		n := total * frac / 100
		var covered []int
		for i := 0; i < n; i++ {
			covered = append(covered, i)
		}
		pc := p.SetCoverage(covered)
		resC := core.CheckSources(pc.Files, core.Options{Includes: cpp.MapIncluder(pc.Headers)})
		run := interp.New(resC.Program, interp.Options{}).Run("main")
		dynFound := len(run.Leaks)
		for range run.Errors {
			dynFound++
		}
		if dynFound > n {
			dynFound = n // one detection per covered bug at most, for the table
		}
		fmt.Printf("run-time, %3d%% coverage       %5d/%d\n", frac, dynFound, total)
	}
	fmt.Println("paper shape: run-time detection is bounded by test coverage; static is not")
}

// ---------------------------------------------------------------------------
// E14: no fixpoint iteration — deeply nested loops cost the same as
// straight-line code of equal size.

func runNoFixpoint() {
	header("E14 (Section 2/5)", "single-pass analysis: loop nesting does not change cost")
	mkNested := func(depth int) string {
		var b strings.Builder
		b.WriteString("void f(int n) {\nint x;\nx = 0;\n")
		for i := 0; i < depth; i++ {
			b.WriteString("while (x < n) {\n")
		}
		b.WriteString("x = x + 1;\n")
		for i := 0; i < depth; i++ {
			b.WriteString("}\n")
		}
		b.WriteString("}\n")
		return b.String()
	}
	mkFlat := func(n int) string {
		var b strings.Builder
		b.WriteString("void f(int n) {\nint x;\nx = 0;\n")
		for i := 0; i < n; i++ {
			b.WriteString("x = x + 1;\n")
		}
		b.WriteString("}\n")
		return b.String()
	}
	timeCheck := func(src string) time.Duration {
		start := time.Now()
		for i := 0; i < 50; i++ {
			core.CheckSource("f.c", src, core.Options{})
		}
		return time.Since(start) / 50
	}
	for _, depth := range []int{4, 16, 64} {
		nested := timeCheck(mkNested(depth))
		flat := timeCheck(mkFlat(2*depth + 1))
		fmt.Printf("depth %3d: nested loops %8v, straight-line same size %8v (ratio %.2f)\n",
			depth, nested, flat, float64(nested)/float64(flat))
	}
	fmt.Println("paper shape: an iterative fixpoint would be superlinear in depth; a single pass is not")
}

// ---------------------------------------------------------------------------
// E15: parallel per-function checking. The paper's modularity argument (§7:
// each function checked independently from interface annotations) means the
// checking phase parallelizes; this experiment sweeps worker counts over
// the largest E9 corpus and records the wall-vs-CPU split.

// parallelRow is one worker count in BENCH_parallel.json.
type parallelRow struct {
	Jobs int `json:"jobs"`
	// WallMS is the end-to-end run time (includes the serial preprocess/
	// parse/sema front end); CheckWallMS is the cfg+check fan-out alone,
	// and CheckCPUMS the per-worker sum over the same region.
	WallMS      float64 `json:"wall_ms"`
	CheckWallMS float64 `json:"check_wall_ms"`
	CheckCPUMS  float64 `json:"check_cpu_ms"`
	// Speedup and CheckSpeedup are against the jobs=1 row (wall and
	// check-phase wall respectively).
	Speedup      float64 `json:"speedup"`
	CheckSpeedup float64 `json:"check_speedup"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	Messages     int     `json:"messages"`
}

type parallelDoc struct {
	benchMeta
	Lines     int           `json:"lines"`
	Modules   int           `json:"modules"`
	Functions int64         `json:"functions"`
	MaxJobs   int           `json:"max_jobs"`
	Rows      []parallelRow `json:"rows"`
}

func runParallel() { runParallelConfig(128, 10, maxJobs) }

// runParallelConfig is runParallel over a configurable corpus (modules ×
// funcsPer, matching E9's largest configuration by default) and worker
// ceiling (0 = GOMAXPROCS). Worker counts sweep powers of two up to the
// ceiling, always including the ceiling itself.
func runParallelConfig(modules, funcsPer, ceiling int) {
	header("E15 (Section 7)", "parallel per-function checking: wall-clock vs workers")
	if ceiling <= 0 {
		ceiling = runtime.GOMAXPROCS(0)
		// Always sweep at least to 4 workers so the jobs=4 row exists for
		// cross-machine comparison; on fewer cores it shows (honestly) that
		// speedup is core-bound.
		if ceiling < 4 {
			ceiling = 4
		}
	}
	var sweep []int
	for j := 1; j < ceiling; j *= 2 {
		sweep = append(sweep, j)
	}
	sweep = append(sweep, ceiling)

	p := testgen.Generate(testgen.Config{
		Seed: 42, Modules: modules, FuncsPer: funcsPer, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: modules / 2},
	})
	fmt.Printf("corpus: %d lines, %d modules\n", p.Lines, modules)
	fmt.Printf("%6s %10s %14s %14s %9s %9s %10s\n",
		"jobs", "wall(ms)", "check.wall(ms)", "check.cpu(ms)", "speedup", "chk.spd", "messages")

	var rows []parallelRow
	var funcs int64
	var doc parallelDoc
	meta := measure("golclint-bench-parallel/v1", "E15", func() {
		var baseWall, baseCheckWall float64
		for _, jobs := range sweep {
			m := obs.New()
			var res *core.Result
			elapsed, alloc := measureRow(func() {
				res = core.CheckSources(p.Files, core.Options{
					Includes: cpp.MapIncluder(p.Headers), Metrics: m, Jobs: jobs,
				})
			})
			snap := m.Snapshot()
			wallMS := float64(elapsed.Microseconds()) / 1000
			checkWallMS := float64(snap.CheckWallNS) / 1e6
			checkCPUMS := float64(snap.PhasesNS["cfg"]+snap.PhasesNS["check"]) / 1e6
			if jobs == 1 {
				baseWall, baseCheckWall = wallMS, checkWallMS
			}
			row := parallelRow{
				Jobs: jobs, WallMS: wallMS, CheckWallMS: checkWallMS,
				CheckCPUMS: checkCPUMS,
				Speedup:    baseWall / wallMS, CheckSpeedup: baseCheckWall / checkWallMS,
				AllocBytes: alloc, Messages: len(res.Diags),
			}
			funcs = snap.Counters["functions_checked"]
			fmt.Printf("%6d %10.1f %14.1f %14.1f %8.2fx %8.2fx %10d\n",
				jobs, wallMS, checkWallMS, checkCPUMS, row.Speedup, row.CheckSpeedup, row.Messages)
			rows = append(rows, row)
		}
	})
	fmt.Println("paper shape: per-function independence turns modularity into wall-clock speedup")
	doc = parallelDoc{
		benchMeta: meta, Lines: p.Lines, Modules: modules,
		Functions: funcs, MaxJobs: ceiling, Rows: rows,
	}
	writeBenchJSON("BENCH_parallel.json", doc)
}

// ---------------------------------------------------------------------------
// E16: incremental re-checking with the persistent analysis cache. An
// unchanged module replays its stored diagnostics without re-analysis, so a
// warm run costs only preprocessing + hashing; editing one module re-checks
// that module alone. This is the development-loop complement to E10's
// interface libraries.

// incrementalRow is one pass (cold / warm / dirty) in
// BENCH_incremental.json.
type incrementalRow struct {
	Pass        string  `json:"pass"`
	WallMS      float64 `json:"wall_ms"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	CacheBytes  int64   `json:"cache_bytes"`
	Messages    int     `json:"messages"`
	AllocBytes  uint64  `json:"alloc_bytes"`
}

type incrementalDoc struct {
	benchMeta
	Modules int `json:"modules"`
	Lines   int `json:"lines"`
	// Jobs is fixed at 1 so pass-to-pass wall-time ratios measure the
	// cache alone, not scheduler noise; cached output is byte-identical at
	// every worker count (see internal/goldentest).
	Jobs int              `json:"jobs"`
	Rows []incrementalRow `json:"rows"`
	// SpeedupWarm / SpeedupDirty are cold wall time over the warm and
	// one-module-dirty passes.
	SpeedupWarm  float64 `json:"speedup_warm"`
	SpeedupDirty float64 `json:"speedup_dirty"`
}

func runIncremental() { runIncrementalModules(50) }

// runIncrementalModules is runIncremental over a configurable corpus size
// (the -quick smoke uses a small one).
func runIncrementalModules(modules int) {
	header("E16", "incremental re-checking with the persistent analysis cache")
	cacheDir, err := os.MkdirTemp("", "golclint-bench-cache-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lclbench: %v\n", err)
		return
	}
	defer os.RemoveAll(cacheDir)
	c, err := cache.Open(cacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lclbench: %v\n", err)
		return
	}

	p := testgen.Generate(testgen.Config{
		Seed: 46, Modules: modules, FuncsPer: 10, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: modules / 2},
	})
	// Interface facts come from the annotated headers, as in a real
	// incremental build: the library is built once and shared.
	hdr := core.CheckSources(p.Headers, core.Options{})
	lib := library.Build(hdr.Program)
	mods := map[string]map[string]string{}
	for name, src := range p.Files {
		mods[name] = map[string]string{name: src}
	}

	fmt.Printf("corpus: %d lines, %d modules\n", p.Lines, modules)
	fmt.Printf("%8s %10s %8s %8s %12s %10s\n",
		"pass", "wall(ms)", "hits", "misses", "cache(B)", "messages")

	var rows []incrementalRow
	runPass := func(name string) incrementalRow {
		m := obs.New()
		opt := core.Options{
			Includes: cpp.MapIncluder(p.Headers), Cache: c, Metrics: m, Jobs: 1,
		}
		var results map[string]*core.Result
		elapsed, alloc := measureRow(func() {
			results = library.CheckModules(mods, lib, opt)
		})
		messages := 0
		for _, res := range results {
			messages += len(res.Diags)
		}
		row := incrementalRow{
			Pass:        name,
			WallMS:      float64(elapsed.Microseconds()) / 1000,
			CacheHits:   m.Get(obs.CacheHits),
			CacheMisses: m.Get(obs.CacheMisses),
			CacheBytes:  m.Get(obs.CacheBytes),
			Messages:    messages,
			AllocBytes:  alloc,
		}
		fmt.Printf("%8s %10.1f %8d %8d %12d %10d\n",
			name, row.WallMS, row.CacheHits, row.CacheMisses, row.CacheBytes, row.Messages)
		return row
	}

	var doc incrementalDoc
	meta := measure("golclint-bench-incremental/v1", "E16", func() {
		rows = append(rows, runPass("cold"))
		rows = append(rows, runPass("warm"))
		// Implementation-only edit to one module: exactly one re-check.
		mods["mod0.c"] = map[string]string{"mod0.c": p.Files["mod0.c"] + "\nint e16_dirty_marker;\n"}
		rows = append(rows, runPass("dirty"))
	})
	doc = incrementalDoc{
		benchMeta: meta, Modules: modules, Lines: p.Lines, Jobs: 1, Rows: rows,
		SpeedupWarm:  rows[0].WallMS / rows[1].WallMS,
		SpeedupDirty: rows[0].WallMS / rows[2].WallMS,
	}
	fmt.Printf("warm %.1fx, one-module-dirty %.1fx faster than cold\n",
		doc.SpeedupWarm, doc.SpeedupDirty)
	fmt.Println("paper shape: unchanged modules replay from the cache; editing touches only what changed")
	writeBenchJSON("BENCH_incremental.json", doc)
}

// ---------------------------------------------------------------------------
// E17: the interned-reference dense store. Measures the check phase alone
// (parsing and environment construction hoisted out, serial workers) over
// the E9 reference corpus: ns per whole-corpus pass, allocations per pass,
// and the copy-on-write counters. The emitted BENCH_state.json also carries
// the committed allocation budget that scripts/bench.sh enforces, plus the
// map-keyed store's numbers from the commit that replaced it, so the file
// is a self-contained before/after record.

const (
	// stateBudgetAllocsPerOp is the committed check-phase allocation budget
	// on the E17 workload; scripts/bench.sh fails its smoke run when a build
	// exceeds it by more than 20% (the regression guard).
	stateBudgetAllocsPerOp = 17000

	// stateBaseline* record the string-keyed map store's cost on the same
	// workload and machine class, measured at the commit that replaced it
	// (the "before" column of EXPERIMENTS.md E17).
	stateBaselineCheckNSPerOp = 19938660
	stateBaselineAllocsPerOp  = 135659
)

// stateDoc is BENCH_state.json.
type stateDoc struct {
	benchMeta
	Lines   int `json:"lines"`
	Modules int `json:"modules"`
	Iters   int `json:"iters"`
	// CheckNSPerOp / Alloc*PerOp are per whole-corpus CheckProgram pass,
	// averaged over Iters passes.
	CheckNSPerOp    int64  `json:"check_ns_per_op"`
	AllocBytesPerOp uint64 `json:"alloc_bytes_per_op"`
	AllocsPerOp     uint64 `json:"allocs_per_op"`
	// Copy-on-write counters from one instrumented pass.
	StoreClones     int64 `json:"store_clones"`
	RefStatesCopied int64 `json:"refstates_copied"`
	MergeNS         int64 `json:"merge_ns"`
	// The committed guard and the before-rewrite reference numbers.
	BudgetAllocsPerOp    uint64 `json:"budget_allocs_per_op"`
	BaselineCheckNSPerOp int64  `json:"baseline_check_ns_per_op"`
	BaselineAllocsPerOp  uint64 `json:"baseline_allocs_per_op"`
}

func runState() { runStateIters(10) }

// runStateIters is runState with a configurable pass count (the -quick
// smoke uses fewer). The corpus is always E9's 32-module configuration so
// the committed allocation budget means the same thing in every mode.
func runStateIters(iters int) {
	header("E17", "interned-reference dense store: check-phase cost")
	p := testgen.Generate(testgen.Config{
		Seed: 42, Modules: 32, FuncsPer: 10, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: 16},
	})
	m := obs.New()
	res := core.CheckSources(p.Files, core.Options{Includes: cpp.MapIncluder(p.Headers), Metrics: m})
	if res.Program == nil {
		fmt.Fprintln(os.Stderr, "lclbench: E17 corpus failed to parse")
		return
	}
	fl := flags.Default()
	check := func() {
		rep := diag.NewReporter(fl.MaxMessages)
		core.CheckProgram(res.Program, fl, rep)
	}
	check() // warm code paths before measuring
	var doc stateDoc
	meta := measure("golclint-bench-state/v1", "E17", func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < iters; i++ {
			check()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		doc.CheckNSPerOp = elapsed.Nanoseconds() / int64(iters)
		doc.AllocBytesPerOp = (after.TotalAlloc - before.TotalAlloc) / uint64(iters)
		doc.AllocsPerOp = (after.Mallocs - before.Mallocs) / uint64(iters)
	})
	snap := m.Snapshot()
	doc.benchMeta = meta
	doc.Lines, doc.Modules, doc.Iters = p.Lines, 32, iters
	doc.StoreClones = snap.Counters["store_clones"]
	doc.RefStatesCopied = snap.Counters["refstates_copied"]
	doc.MergeNS = snap.Counters["merge_ns"]
	doc.BudgetAllocsPerOp = stateBudgetAllocsPerOp
	doc.BaselineCheckNSPerOp = stateBaselineCheckNSPerOp
	doc.BaselineAllocsPerOp = stateBaselineAllocsPerOp

	fmt.Printf("corpus: %d lines, %d modules; %d check passes\n", p.Lines, 32, iters)
	fmt.Printf("%-16s %14s %14s %9s\n", "", "map store", "dense store", "ratio")
	fmt.Printf("%-16s %14d %14d %8.1fx\n", "check ns/op",
		int64(stateBaselineCheckNSPerOp), doc.CheckNSPerOp,
		float64(stateBaselineCheckNSPerOp)/float64(doc.CheckNSPerOp))
	fmt.Printf("%-16s %14d %14d %8.1fx\n", "allocs/op",
		uint64(stateBaselineAllocsPerOp), doc.AllocsPerOp,
		float64(stateBaselineAllocsPerOp)/float64(doc.AllocsPerOp))
	fmt.Printf("cow: %d clones, %d copies faulted, %.1f ms merging\n",
		doc.StoreClones, doc.RefStatesCopied, float64(doc.MergeNS)/1e6)
	fmt.Printf("committed budget: %d allocs/op (smoke fails above +20%%)\n",
		uint64(stateBudgetAllocsPerOp))
	writeBenchJSON("BENCH_state.json", doc)
}

// ---------------------------------------------------------------------------
// E18: the parallel zero-copy frontend. Measures preprocess+parse alone
// (core.Frontend, no analysis) over the E9 reference corpus: ns per
// whole-corpus pass and allocations per pass at jobs=1, plus the wall time
// of the same pass at jobs=4 so the fan-out's effect on the host machine is
// on record. The emitted BENCH_frontend.json carries the committed
// allocation budget that scripts/bench.sh enforces and the pre-rewrite
// per-file frontend's numbers, so the file is a self-contained
// before/after record.

const (
	// frontendBudgetAllocsPerOp is the committed frontend allocation budget
	// on the E18 workload; scripts/bench.sh fails its smoke run when a
	// build exceeds it by more than 20% (the regression guard).
	frontendBudgetAllocsPerOp = 6500

	// frontendBaseline* record the serial copying frontend's cost on the
	// same workload and machine class, measured at the commit that replaced
	// it (the "before" column of EXPERIMENTS.md E18): one Preprocessor and
	// parser per file, string-concatenating macro expansion, and a lexer
	// allocating each token's text.
	frontendBaselineNSPerOp     = 9929679
	frontendBaselineAllocsPerOp = 48797
	frontendBaselineBytesPerOp  = 9200635
)

// frontendDoc is BENCH_frontend.json.
type frontendDoc struct {
	benchMeta
	Lines   int `json:"lines"`
	Modules int `json:"modules"`
	Iters   int `json:"iters"`
	// *PerOp figures are per whole-corpus Frontend pass at jobs=1,
	// averaged over Iters passes.
	FrontendNSPerOp int64  `json:"frontend_ns_per_op"`
	AllocBytesPerOp uint64 `json:"alloc_bytes_per_op"`
	AllocsPerOp     uint64 `json:"allocs_per_op"`
	// Jobs4NSPerOp is the same pass fanned out to four workers. On a
	// single-CPU host this approximates the jobs=1 figure.
	Jobs4NSPerOp int64 `json:"jobs4_ns_per_op"`
	// Phase wall from one instrumented jobs=1 pass.
	PreprocessWallNS int64 `json:"preprocess_wall_ns"`
	ParseWallNS      int64 `json:"parse_wall_ns"`
	// The committed guard and the before-rewrite reference numbers.
	BudgetAllocsPerOp   uint64 `json:"budget_allocs_per_op"`
	BaselineNSPerOp     int64  `json:"baseline_ns_per_op"`
	BaselineAllocsPerOp uint64 `json:"baseline_allocs_per_op"`
	BaselineBytesPerOp  uint64 `json:"baseline_bytes_per_op"`
}

func runFrontend() { runFrontendIters(20) }

// runFrontendIters is runFrontend with a configurable pass count (the
// -quick smoke uses fewer). The corpus is always E9's 32-module
// configuration so the committed allocation budget means the same thing in
// every mode.
func runFrontendIters(iters int) {
	header("E18", "parallel zero-copy frontend: preprocess+parse cost")
	p := testgen.Generate(testgen.Config{
		Seed: 42, Modules: 32, FuncsPer: 10, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: 16},
	})
	opts := func(jobs int) core.Options {
		return core.Options{Includes: cpp.MapIncluder(p.Headers), Jobs: jobs}
	}
	front := func(jobs int) { core.Frontend(p.Files, opts(jobs)) }
	front(1) // warm code paths before measuring
	var doc frontendDoc
	meta := measure("golclint-bench-frontend/v1", "E18", func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < iters; i++ {
			front(1)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		doc.FrontendNSPerOp = elapsed.Nanoseconds() / int64(iters)
		doc.AllocBytesPerOp = (after.TotalAlloc - before.TotalAlloc) / uint64(iters)
		doc.AllocsPerOp = (after.Mallocs - before.Mallocs) / uint64(iters)

		start = time.Now()
		for i := 0; i < iters; i++ {
			front(4)
		}
		doc.Jobs4NSPerOp = time.Since(start).Nanoseconds() / int64(iters)
	})
	m := obs.New()
	o := opts(1)
	o.Metrics = m
	core.Frontend(p.Files, o)
	snap := m.Snapshot()
	doc.benchMeta = meta
	doc.Lines, doc.Modules, doc.Iters = p.Lines, 32, iters
	doc.PreprocessWallNS = snap.PreprocessWallNS
	doc.ParseWallNS = snap.ParseWallNS
	doc.BudgetAllocsPerOp = frontendBudgetAllocsPerOp
	doc.BaselineNSPerOp = frontendBaselineNSPerOp
	doc.BaselineAllocsPerOp = frontendBaselineAllocsPerOp
	doc.BaselineBytesPerOp = frontendBaselineBytesPerOp

	fmt.Printf("corpus: %d lines, %d modules; %d frontend passes\n", p.Lines, 32, iters)
	fmt.Printf("%-16s %14s %14s %9s\n", "", "copying", "zero-copy", "ratio")
	fmt.Printf("%-16s %14d %14d %8.1fx\n", "frontend ns/op",
		int64(frontendBaselineNSPerOp), doc.FrontendNSPerOp,
		float64(frontendBaselineNSPerOp)/float64(doc.FrontendNSPerOp))
	fmt.Printf("%-16s %14d %14d %8.1fx\n", "allocs/op",
		uint64(frontendBaselineAllocsPerOp), doc.AllocsPerOp,
		float64(frontendBaselineAllocsPerOp)/float64(doc.AllocsPerOp))
	fmt.Printf("%-16s %14d %14d %8.1fx\n", "bytes/op",
		uint64(frontendBaselineBytesPerOp), doc.AllocBytesPerOp,
		float64(frontendBaselineBytesPerOp)/float64(doc.AllocBytesPerOp))
	fmt.Printf("jobs=4 wall: %d ns/op; phase wall: preprocess %.2f ms, parse %.2f ms\n",
		doc.Jobs4NSPerOp, float64(doc.PreprocessWallNS)/1e6, float64(doc.ParseWallNS)/1e6)
	fmt.Printf("committed budget: %d allocs/op (smoke fails above +20%%)\n",
		uint64(frontendBudgetAllocsPerOp))
	writeBenchJSON("BENCH_frontend.json", doc)
}

// ---------------------------------------------------------------------------
// E19: diagnostic provenance. Measures the check phase over the E17 corpus
// in three modes — the plain CheckProgram entry point, the provenance-
// capable path with recording off, and with recording on — interleaved so
// machine drift hits all three equally. The off-vs-baseline delta is the
// cost the provenance hooks impose on every default run (the ≤2% wall /
// zero-extra-allocs contract scripts/bench.sh enforces); the on-vs-off
// delta is the price of actually recording witnesses under -explain.

// provenanceDoc is BENCH_provenance.json.
type provenanceDoc struct {
	benchMeta
	Lines   int `json:"lines"`
	Modules int `json:"modules"`
	Iters   int `json:"iters"`
	// *NSPerOp are per whole-corpus check pass: the fastest pass of each
	// mode (minimums are robust against scheduler noise); Alloc* figures
	// are averages (allocation counts are effectively deterministic).
	BaselineCheckNSPerOp int64  `json:"baseline_check_ns_per_op"`
	OffCheckNSPerOp      int64  `json:"off_check_ns_per_op"`
	OnCheckNSPerOp       int64  `json:"on_check_ns_per_op"`
	BaselineAllocsPerOp  uint64 `json:"baseline_allocs_per_op"`
	OffAllocsPerOp       uint64 `json:"off_allocs_per_op"`
	OnAllocsPerOp        uint64 `json:"on_allocs_per_op"`
	OffAllocBytesPerOp   uint64 `json:"off_alloc_bytes_per_op"`
	OnAllocBytesPerOp    uint64 `json:"on_alloc_bytes_per_op"`
	// OverheadOffPct compares the provenance-off path against the plain
	// entry point (the guarded figure); OverheadOnPct compares recording
	// on against off (the -explain price tag).
	OverheadOffPct      float64 `json:"overhead_off_pct"`
	OverheadOnPct       float64 `json:"overhead_on_pct"`
	ExtraAllocsOffPerOp int64   `json:"extra_allocs_off_per_op"`
	// Witnessed / Diags from one recording pass: every retained diagnostic
	// must carry a non-empty witness.
	Witnessed int `json:"witnessed"`
	Diags     int `json:"diags"`
	// The committed E17 budget the off path is held to.
	BudgetAllocsPerOp uint64 `json:"budget_allocs_per_op"`
}

func runProvenance() { runProvenanceIters(10) }

// runProvenanceIters is runProvenance with a configurable pass count (the
// -quick smoke uses fewer). The corpus matches E17 exactly so the committed
// allocation budget carries over.
func runProvenanceIters(iters int) {
	header("E19", "diagnostic provenance: recording overhead")
	p := testgen.Generate(testgen.Config{
		Seed: 42, Modules: 32, FuncsPer: 10, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: 16},
	})
	res := core.CheckSources(p.Files, core.Options{Includes: cpp.MapIncluder(p.Headers)})
	if res.Program == nil {
		fmt.Fprintln(os.Stderr, "lclbench: E19 corpus failed to parse")
		return
	}
	fl := flags.Default()
	baseline := func() {
		rep := diag.NewReporter(fl.MaxMessages)
		core.CheckProgram(res.Program, fl, rep)
	}
	pass := func(explain bool) func() {
		return func() {
			rep := diag.NewReporter(fl.MaxMessages)
			core.CheckProgramExplain(res.Program, fl, rep, explain)
		}
	}
	modes := []func(){baseline, pass(false), pass(true)}
	for _, f := range modes {
		f() // warm code paths before measuring
	}
	minNS := [3]int64{1 << 62, 1 << 62, 1 << 62}
	var mallocs, bytes [3]uint64
	var doc provenanceDoc
	meta := measure("golclint-bench-provenance/v1", "E19", func() {
		var before, after runtime.MemStats
		for i := 0; i < iters; i++ {
			for j, f := range modes {
				// Settle the heap so a collection triggered by earlier
				// experiments' garbage cannot land inside one mode's pass
				// and skew the three-way comparison.
				runtime.GC()
				runtime.ReadMemStats(&before)
				start := time.Now()
				f()
				elapsed := time.Since(start).Nanoseconds()
				runtime.ReadMemStats(&after)
				if elapsed < minNS[j] {
					minNS[j] = elapsed
				}
				mallocs[j] += after.Mallocs - before.Mallocs
				bytes[j] += after.TotalAlloc - before.TotalAlloc
			}
		}
	})
	doc.benchMeta = meta
	doc.Lines, doc.Modules, doc.Iters = p.Lines, 32, iters
	doc.BaselineCheckNSPerOp, doc.OffCheckNSPerOp, doc.OnCheckNSPerOp = minNS[0], minNS[1], minNS[2]
	doc.BaselineAllocsPerOp = mallocs[0] / uint64(iters)
	doc.OffAllocsPerOp = mallocs[1] / uint64(iters)
	doc.OnAllocsPerOp = mallocs[2] / uint64(iters)
	doc.OffAllocBytesPerOp = bytes[1] / uint64(iters)
	doc.OnAllocBytesPerOp = bytes[2] / uint64(iters)
	doc.OverheadOffPct = 100 * (float64(doc.OffCheckNSPerOp) - float64(doc.BaselineCheckNSPerOp)) /
		float64(doc.BaselineCheckNSPerOp)
	doc.OverheadOnPct = 100 * (float64(doc.OnCheckNSPerOp) - float64(doc.OffCheckNSPerOp)) /
		float64(doc.OffCheckNSPerOp)
	doc.ExtraAllocsOffPerOp = int64(doc.OffAllocsPerOp) - int64(doc.BaselineAllocsPerOp)
	doc.BudgetAllocsPerOp = stateBudgetAllocsPerOp

	rep := diag.NewReporter(fl.MaxMessages)
	core.CheckProgramExplain(res.Program, fl, rep, true)
	for _, d := range rep.Diags() {
		doc.Diags++
		if d.Prov != nil && len(d.Prov.Steps) > 0 {
			doc.Witnessed++
		}
	}

	fmt.Printf("corpus: %d lines, %d modules; %d passes per mode (interleaved)\n", p.Lines, 32, iters)
	fmt.Printf("%-16s %14s %14s %14s\n", "", "baseline", "prov off", "prov on")
	fmt.Printf("%-16s %14d %14d %14d\n", "check ns/op",
		doc.BaselineCheckNSPerOp, doc.OffCheckNSPerOp, doc.OnCheckNSPerOp)
	fmt.Printf("%-16s %14d %14d %14d\n", "allocs/op",
		doc.BaselineAllocsPerOp, doc.OffAllocsPerOp, doc.OnAllocsPerOp)
	fmt.Printf("hooks overhead (off vs baseline): %+.2f%% wall, %+d allocs/op\n",
		doc.OverheadOffPct, doc.ExtraAllocsOffPerOp)
	fmt.Printf("recording overhead (on vs off): %+.2f%% wall\n", doc.OverheadOnPct)
	fmt.Printf("witnesses: %d/%d diagnostics carry a non-empty path\n", doc.Witnessed, doc.Diags)
	writeBenchJSON("BENCH_provenance.json", doc)
}

// ---------------------------------------------------------------------------
// E20: counterexample validation. Checks a seeded corpus covering every bug
// kind with witnesses on, then runs the validation search (internal/validate)
// over the diagnostics and reports the confirmed rate and per-diagnostic
// cost. The gates scripts/bench.sh enforces: every seeded bug's diagnostic
// validates `confirmed` (the static claims are demonstrable), the overall
// confirmed rate stays >= 0.8, and a whole-corpus validation pass stays
// inside the committed wall budget.

// validateBudgetNSPerOp is the committed wall budget for one whole-corpus
// validation pass (generous: the measured figure is ~two orders below).
const validateBudgetNSPerOp = 5_000_000_000

// validateDoc is BENCH_validate.json.
type validateDoc struct {
	benchMeta
	Lines   int `json:"lines"`
	Modules int `json:"modules"`
	Iters   int `json:"iters"`
	// Seeded ground truth: bugs planted, and how many of them have a
	// diagnostic at the seeded site tagged confirmed.
	SeededTotal     int `json:"seeded_total"`
	SeededConfirmed int `json:"seeded_confirmed"`
	// Tag tally over all diagnostics of one pass.
	Diags        int `json:"diags"`
	Confirmed    int `json:"confirmed"`
	Infeasible   int `json:"infeasible"`
	Unreproduced int `json:"unreproduced"`
	// ConfirmedRate is Confirmed/Diags.
	ConfirmedRate float64 `json:"confirmed_rate"`
	// ValidateNSPerOp is the fastest whole-corpus validation pass;
	// NSPerDiag divides it by the diagnostic count.
	ValidateNSPerOp int64 `json:"validate_ns_per_op"`
	NSPerDiag       int64 `json:"ns_per_diag"`
	BudgetNSPerOp   int64 `json:"budget_ns_per_op"`
}

func runValidate() { runValidateIters(10) }

// runValidateIters is runValidate with a configurable pass count (the
// -quick smoke uses fewer).
func runValidateIters(iters int) {
	header("E20", "counterexample validation: confirmed rate and cost")
	bugsEach := 4
	p := testgen.Generate(testgen.Config{
		Seed: 42, Modules: 24, FuncsPer: 8, Annotate: true,
		Bugs: map[testgen.BugKind]int{
			testgen.BugLeak: bugsEach, testgen.BugCondLeak: bugsEach,
			testgen.BugUseAfterFree: bugsEach, testgen.BugDoubleFree: bugsEach,
			testgen.BugNullDeref: bugsEach, testgen.BugUninit: bugsEach,
		},
	})
	res := core.CheckSources(p.Files, core.Options{
		Includes: cpp.MapIncluder(p.Headers), Explain: true,
	})
	if res.Program == nil || len(res.ParseErrors) > 0 {
		fmt.Fprintln(os.Stderr, "lclbench: E20 corpus failed to parse")
		return
	}

	var doc validateDoc
	var sum validate.Summary
	minNS := int64(1 << 62)
	meta := measure("golclint-bench-validate/v1", "E20", func() {
		for i := 0; i < iters; i++ {
			// Apply skips already-tagged diagnostics (cache replay leaves
			// them tagged); clear the tags so every pass is a full one.
			for _, d := range res.Diags {
				d.Validation = nil
			}
			start := time.Now()
			sum = validate.Apply(res.Program, res.Diags, validate.Options{})
			elapsed := time.Since(start).Nanoseconds()
			if elapsed < minNS {
				minNS = elapsed
			}
		}
	})
	doc.benchMeta = meta
	doc.Lines, doc.Modules, doc.Iters = p.Lines, 24, iters
	doc.Diags = sum.Examined
	doc.Confirmed, doc.Infeasible, doc.Unreproduced = sum.Confirmed, sum.Infeasible, sum.Unreproduced
	if doc.Diags > 0 {
		doc.ConfirmedRate = float64(doc.Confirmed) / float64(doc.Diags)
		doc.NSPerDiag = minNS / int64(doc.Diags)
	}
	doc.ValidateNSPerOp = minNS
	doc.BudgetNSPerOp = validateBudgetNSPerOp

	doc.SeededTotal = len(p.Bugs)
	for _, b := range p.Bugs {
		for _, d := range res.Diags {
			if d.Pos.File.String() == b.File && int(d.Pos.Line) == b.Line &&
				d.Validation != nil && d.Validation.Tag == diag.Confirmed {
				doc.SeededConfirmed++
				break
			}
		}
	}

	fmt.Printf("corpus: %d lines, %d modules, %d seeded bugs; %d validation passes\n",
		p.Lines, 24, doc.SeededTotal, iters)
	fmt.Printf("diagnostics: %d (%d confirmed, %d path-infeasible, %d unreproduced)\n",
		doc.Diags, doc.Confirmed, doc.Infeasible, doc.Unreproduced)
	fmt.Printf("seeded bugs confirmed: %d/%d\n", doc.SeededConfirmed, doc.SeededTotal)
	fmt.Printf("confirmed rate: %.3f (gate: >= 0.8)\n", doc.ConfirmedRate)
	fmt.Printf("validation pass: %d ns/op, %d ns/diag (budget %d ns/op)\n",
		doc.ValidateNSPerOp, doc.NSPerDiag, doc.BudgetNSPerOp)
	writeBenchJSON("BENCH_validate.json", doc)
}

// ---------------------------------------------------------------------------
// E21: the analysis server. A long-lived daemon keeps the interface library
// and the content-addressed cache resident, so an editor's re-check request
// pays neither process startup nor cold analysis. The experiment compares a
// cold single-shot CLI run over an E9-style corpus against warm requests to
// a live server (same corpus, same checker path), records warm p50/p99 and
// coalescing under concurrent clients, and BENCH_serve.json carries the
// speedup scripts/bench.sh gates at >= 5x.

// serveDoc is BENCH_serve.json.
type serveDoc struct {
	benchMeta
	Lines   int `json:"lines"`
	Modules int `json:"modules"`
	// ColdCLINS is the best-of-3 wall time of a fresh CLI process-equivalent
	// run (cli.Run, no cache) over the whole corpus from disk.
	ColdCLINS int64 `json:"cold_cli_ns"`
	// ColdServerNS is the first request to a fresh server (cache cold);
	// WarmP50NS / WarmP99NS are percentiles over WarmReqs repeats of the
	// same request once resident.
	ColdServerNS int64 `json:"cold_server_ns"`
	WarmReqs     int   `json:"warm_reqs"`
	WarmP50NS    int64 `json:"warm_p50_ns"`
	WarmP99NS    int64 `json:"warm_p99_ns"`
	// SpeedupWarm is ColdCLINS / WarmP50NS — the gated headline figure.
	SpeedupWarm float64 `json:"speedup_warm"`
	// Concurrent-client section: Clients workers posting primed per-module
	// requests for BurstReqs total requests.
	Clients       int     `json:"clients"`
	BurstReqs     int     `json:"burst_reqs"`
	ThroughputRPS float64 `json:"throughput_rps"`
	Coalesced     int64   `json:"coalesced"`
	MemoHits      int64   `json:"memo_hits"`
	// Resident-state footprint at the end of the run.
	CacheEntries int   `json:"cache_entries"`
	CacheBytes   int64 `json:"cache_bytes"`
}

func runServe() { runServeConfig(32, 10, 60, 4) }

// runServeConfig is runServe over a configurable corpus (modules × funcsPer),
// warm-request count, and concurrent-client count (the -quick smoke uses a
// small configuration).
func runServeConfig(modules, funcsPer, warmReqs, clients int) {
	header("E21", "analysis server: warm request latency vs cold CLI")
	p := testgen.Generate(testgen.Config{
		Seed: 42, Modules: modules, FuncsPer: funcsPer, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: modules / 2},
	})

	// Cold CLI baseline: the corpus on disk, checked by the same entry point
	// the golclint binary uses, no cache directory — every run pays the full
	// frontend and analysis. Best of 3 keeps scheduler noise out of the
	// denominator (understating the speedup, never inflating it).
	dir, err := os.MkdirTemp("", "golclint-bench-serve-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lclbench: %v\n", err)
		return
	}
	defer os.RemoveAll(dir)
	var args []string
	for name, src := range p.Headers {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "lclbench: %v\n", err)
			return
		}
	}
	for name, src := range p.Files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "lclbench: %v\n", err)
			return
		}
		args = append(args, path)
	}
	sort.Strings(args)
	coldCLI := int64(1 << 62)
	for i := 0; i < 3; i++ {
		start := time.Now()
		cli.Run(args, io.Discard, io.Discard)
		if ns := time.Since(start).Nanoseconds(); ns < coldCLI {
			coldCLI = ns
		}
	}

	// Live server on a loopback port, exactly as `golclint -serve` runs it.
	srv, err := server.New(server.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lclbench: %v\n", err)
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lclbench: %v\n", err)
		return
	}
	defer ln.Close()
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	post := func(req *server.CheckRequest) (time.Duration, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		resp, err := http.Post(base+"/check", "application/json", strings.NewReader(string(body)))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("POST /check: %s", resp.Status)
		}
		return time.Since(start), nil
	}

	var doc serveDoc
	meta := measure("golclint-bench-serve/v1", "E21", func() {
		// Whole-corpus batch request: the server-side equivalent of the cold
		// CLI run above.
		batch := &server.CheckRequest{Files: p.Files, Headers: p.Headers}
		cold, err := post(batch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lclbench: %v\n", err)
			return
		}
		doc.ColdServerNS = cold.Nanoseconds()

		warm := make([]int64, 0, warmReqs)
		for i := 0; i < warmReqs; i++ {
			d, err := post(batch)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lclbench: %v\n", err)
				return
			}
			warm = append(warm, d.Nanoseconds())
		}
		sort.Slice(warm, func(i, j int) bool { return warm[i] < warm[j] })
		doc.WarmP50NS = warm[len(warm)/2]
		p99 := len(warm) * 99 / 100
		if p99 >= len(warm) {
			p99 = len(warm) - 1
		}
		doc.WarmP99NS = warm[p99]

		// Concurrent clients over per-module requests (primed once each):
		// the editor-fleet shape. Identical in-flight requests coalesce.
		perMod := make([]*server.CheckRequest, 0, len(p.Files))
		for _, name := range sortedKeys(p.Files) {
			req := &server.CheckRequest{
				Files:   map[string]string{name: p.Files[name]},
				Headers: p.Headers,
			}
			if _, err := post(req); err != nil {
				fmt.Fprintf(os.Stderr, "lclbench: %v\n", err)
				return
			}
			perMod = append(perMod, req)
		}
		burst := clients * 2 * len(perMod)
		var wg sync.WaitGroup
		burstStart := time.Now()
		for c := 0; c < clients; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2*len(perMod); i++ {
					if _, err := post(perMod[(c+i)%len(perMod)]); err != nil {
						fmt.Fprintf(os.Stderr, "lclbench: %v\n", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		doc.Clients = clients
		doc.BurstReqs = burst
		doc.ThroughputRPS = float64(burst) / time.Since(burstStart).Seconds()
	})

	st := srv.StatsSnapshot()
	doc.benchMeta = meta
	doc.Lines, doc.Modules = p.Lines, modules
	doc.ColdCLINS = coldCLI
	doc.WarmReqs = warmReqs
	doc.SpeedupWarm = float64(coldCLI) / float64(doc.WarmP50NS)
	doc.Coalesced = st.Coalesced
	doc.MemoHits = st.MemoHits
	doc.CacheEntries = st.CacheMem.Entries
	doc.CacheBytes = st.CacheMem.Bytes

	fmt.Printf("corpus: %d lines, %d modules\n", p.Lines, modules)
	fmt.Printf("%-24s %12.1f ms\n", "cold CLI (best of 3)", float64(coldCLI)/1e6)
	fmt.Printf("%-24s %12.1f ms\n", "cold server request", float64(doc.ColdServerNS)/1e6)
	fmt.Printf("%-24s %12.2f ms  p99 %.2f ms (%d reqs)\n", "warm server request p50",
		float64(doc.WarmP50NS)/1e6, float64(doc.WarmP99NS)/1e6, warmReqs)
	fmt.Printf("warm speedup vs cold CLI: %.1fx (gate: >= 5x)\n", doc.SpeedupWarm)
	fmt.Printf("%d clients, %d requests: %.0f req/s, %d coalesced, %d memo replays\n",
		doc.Clients, doc.BurstReqs, doc.ThroughputRPS, doc.Coalesced, doc.MemoHits)
	fmt.Printf("resident cache: %d entries, %d bytes\n", doc.CacheEntries, doc.CacheBytes)
	fmt.Println("paper extension: a resident checker turns whole-corpus re-checks into millisecond requests")
	writeBenchJSON("BENCH_serve.json", doc)
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---------------------------------------------------------------------------
// E22: distributed sharded checking over a shared remote cache at
// million-line scale. n worker processes partition the module list with a
// stable hash and coordinate only through the shared cache; the experiment
// shows (a) ms/KLOC stays flat from 10K to 1M+ lines under sharding,
// (b) a cold fleet replaying a warm shared remote cache beats a cold
// single process by the gated factor, (c) merged shard output is
// byte-identical to the single-process run at every shard count, and
// (d) frame compression at least halves cache bytes with byte-identical
// warm replay.

// distributedRow is one corpus size in the E22 scaling ladder, checked by
// a cold shard fleet writing through to a shared remote store.
type distributedRow struct {
	Lines   int `json:"lines"`
	Modules int `json:"modules"`
	Shards  int `json:"shards"`
	// CheckMS is the summed wall time of all shard workers (the host is
	// single-core, so the sum is the honest fleet cost).
	CheckMS   float64 `json:"check_ms"`
	MSPerKLOC float64 `json:"ms_per_kloc"`
	Messages  int     `json:"messages"`
}

type distributedDoc struct {
	benchMeta
	// Quick marks the reduced CI smoke configuration; gates that need the
	// million-line corpus only assert when Quick is false.
	Quick bool             `json:"quick"`
	Rows  []distributedRow `json:"rows"`
	// Fleet section, on the largest corpus: a cold single process versus a
	// fleet of cold-disk workers replaying the warm shared remote store.
	FleetShards           int     `json:"fleet_shards"`
	ColdSingleNS          int64   `json:"cold_single_ns"`
	ColdFleetWarmRemoteNS int64   `json:"cold_fleet_warm_remote_ns"`
	FleetSpeedup          float64 `json:"fleet_speedup"`
	RemoteGets            int64   `json:"remote_gets"`
	RemotePuts            int64   `json:"remote_puts"`
	// Parity section: merged sorted diag-jsonl streams equal the
	// single-process run's for every n in ParityShardCounts, cold and
	// warm, in plain, -explain, and -validate modes.
	ParityShardCounts []int `json:"parity_shard_counts"`
	ParityCold        bool  `json:"parity_cold"`
	ParityWarm        bool  `json:"parity_warm"`
	ParityExplain     bool  `json:"parity_explain"`
	ParityValidate    bool  `json:"parity_validate"`
	// Compression section, on the E9 corpus shape.
	CompressionRawBytes        int64   `json:"compression_raw_bytes"`
	CompressionCompressedBytes int64   `json:"compression_compressed_bytes"`
	CompressionRatio           float64 `json:"compression_ratio"`
	WarmReplayIdentical        bool    `json:"warm_replay_identical"`
}

func runDistributed() { runDistributedConfig(false) }

// materializeCorpus writes p to a temp dir, returning the sorted .c paths.
// The caller removes the dir.
func materializeCorpus(p *testgen.Program) (string, []string, error) {
	dir, err := os.MkdirTemp("", "golclint-bench-dist-")
	if err != nil {
		return "", nil, err
	}
	for name, src := range p.AllSources() {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			os.RemoveAll(dir)
			return "", nil, err
		}
	}
	var args []string
	for name := range p.Files {
		args = append(args, filepath.Join(dir, name))
	}
	sort.Strings(args)
	return dir, args, nil
}

// startBlobServer runs an in-process shared remote store on a loopback
// port, exactly as `golclint -cache-serve` serves it. It returns the
// server (for stats), its base URL, and a shutdown func.
func startBlobServer(dir string) (*server.BlobServer, string, func(), error) {
	bs, err := server.NewBlob(server.BlobOptions{Dir: dir})
	if err != nil {
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	go bs.Serve(ln)
	return bs, "http://" + ln.Addr().String(), func() { ln.Close() }, nil
}

// runShardFleet runs n shard workers sequentially (one core) over paths,
// all sharing cacheDir and, if non-empty, the remote store at remoteURL.
// It returns the summed wall time and the highest exit code.
func runShardFleet(n int, paths []string, cacheDir, remoteURL string, extra ...string) (time.Duration, int) {
	var total time.Duration
	exit := 0
	for i := 0; i < n; i++ {
		args := []string{"-shard", fmt.Sprintf("%d/%d", i, n)}
		if cacheDir != "" {
			args = append(args, "-cache-dir", cacheDir)
		}
		if remoteURL != "" {
			args = append(args, "-remote-cache", remoteURL)
		}
		args = append(args, extra...)
		args = append(args, paths...)
		start := time.Now()
		code := cli.Run(args, io.Discard, io.Discard)
		total += time.Since(start)
		if code > exit {
			exit = code
		}
	}
	return total, exit
}

// shardJSONL runs one shard worker with a diag-jsonl stream and returns
// the stream's lines sorted (the canonical merge order) plus stdout.
func shardJSONL(shard string, paths []string, cacheDir string, extra ...string) ([]string, string, error) {
	tmp, err := os.CreateTemp("", "golclint-bench-jsonl-")
	if err != nil {
		return nil, "", err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	args := []string{"-shard", shard, "-cache-dir", cacheDir, "-diag-jsonl", tmp.Name()}
	args = append(args, extra...)
	args = append(args, paths...)
	var out strings.Builder
	if code := cli.Run(args, &out, io.Discard); code > 1 {
		return nil, "", fmt.Errorf("shard %s exited %d", shard, code)
	}
	b, err := os.ReadFile(tmp.Name())
	if err != nil {
		return nil, "", err
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(lines) == 1 && lines[0] == "" {
		lines = nil
	}
	sort.Strings(lines)
	return lines, out.String(), nil
}

// runWithStats runs a single-process shard worker with -stats-json and
// returns its stdout.
func runWithStats(paths []string, cacheDir, statsPath string) (string, error) {
	args := []string{"-shard", "0/1", "-cache-dir", cacheDir, "-stats-json", statsPath}
	args = append(args, paths...)
	var out strings.Builder
	if code := cli.Run(args, &out, io.Discard); code > 1 {
		return "", fmt.Errorf("stats run exited %d", code)
	}
	return out.String(), nil
}

// readDiskCompression pulls the disk layer's raw/compressed byte counters
// out of a -stats-json document.
func readDiskCompression(path string) (raw, comp int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	var doc struct {
		CacheStores map[string]cache.StoreStats `json:"cache_stores"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return 0, 0, err
	}
	disk, ok := doc.CacheStores["disk"]
	if !ok {
		return 0, 0, fmt.Errorf("%s carries no disk cache stats", path)
	}
	return disk.RawBytes, disk.CompressedBytes, nil
}

// runDistributedConfig is E22; quick selects the reduced CI smoke corpora.
func runDistributedConfig(quick bool) {
	header("E22", "distributed sharded checking over a shared remote cache")

	// Corpus ladder. Full mode spans 10K to 1M+ lines across 2000 modules;
	// quick keeps the same shape two orders of magnitude smaller.
	moduleSizes := []int{20, 200, 2000}
	funcsPer, stmtsPer := 4, 90
	parityModules := 20
	compressionModules := 32
	if quick {
		moduleSizes = []int{4, 8, 16}
		funcsPer, stmtsPer = 3, 20
		parityModules = 6
		compressionModules = 8
	}
	const fleetShards = 4

	doc := distributedDoc{Quick: quick, FleetShards: fleetShards,
		ParityShardCounts: []int{1, 2, 4, 8},
		ParityCold:        true, ParityWarm: true, ParityExplain: true, ParityValidate: true,
	}
	fail := func(err error) bool {
		if err != nil {
			fmt.Fprintf(os.Stderr, "lclbench: %v\n", err)
			return true
		}
		return false
	}

	meta := measure("golclint-bench-distributed/v1", "E22", func() {
		// (a) Scaling ladder: a cold 4-shard fleet writing through to a
		// shared remote store, at each corpus size.
		fmt.Printf("%10s %8s %7s %12s %12s\n", "lines", "modules", "shards", "fleet(ms)", "ms/kloc")
		for _, modules := range moduleSizes {
			p := testgen.Generate(testgen.Config{
				Seed: 42, Modules: modules, FuncsPer: funcsPer, StmtsPer: stmtsPer,
				Annotate: true,
				Bugs:     map[testgen.BugKind]int{testgen.BugLeak: modules / 2},
			})
			dir, paths, err := materializeCorpus(p)
			if fail(err) {
				return
			}
			remoteDir, err := os.MkdirTemp("", "golclint-bench-remote-")
			if fail(err) {
				return
			}
			bs, remoteURL, stop, err := startBlobServer(remoteDir)
			if fail(err) {
				return
			}
			cacheDir, err := os.MkdirTemp("", "golclint-bench-cache-")
			if fail(err) {
				return
			}
			elapsed, _ := runShardFleet(fleetShards, paths, cacheDir, remoteURL)
			ms := float64(elapsed.Microseconds()) / 1000
			row := distributedRow{
				Lines: p.Lines, Modules: modules, Shards: fleetShards,
				CheckMS: ms, MSPerKLOC: ms / (float64(p.Lines) / 1000),
			}
			fmt.Printf("%10d %8d %7d %12.1f %12.2f\n", row.Lines, row.Modules, row.Shards, row.CheckMS, row.MSPerKLOC)
			doc.Rows = append(doc.Rows, row)

			if modules == moduleSizes[len(moduleSizes)-1] {
				// (b) Fleet section on the largest corpus. The remote store
				// is now warm (the cold fleet above wrote through). A cold
				// single process with a fresh disk pays full analysis; a
				// fleet of workers with no local state at all — the
				// fresh-machine shape — replays remote GETs instead.
				singleDir, err := os.MkdirTemp("", "golclint-bench-single-")
				if fail(err) {
					return
				}
				coldSingle, _ := runShardFleet(1, paths, singleDir, "")
				warmFleet, _ := runShardFleet(fleetShards, paths, "", remoteURL)
				doc.ColdSingleNS = coldSingle.Nanoseconds()
				doc.ColdFleetWarmRemoteNS = warmFleet.Nanoseconds()
				doc.FleetSpeedup = float64(coldSingle.Nanoseconds()) / float64(warmFleet.Nanoseconds())
				st := bs.StatsSnapshot()
				doc.RemoteGets, doc.RemotePuts = st.Gets, st.Puts
				os.RemoveAll(singleDir)
			}
			stop()
			os.RemoveAll(dir)
			os.RemoveAll(cacheDir)
			os.RemoveAll(remoteDir)
		}

		// (c) Parity: merged sorted shard streams equal the single-process
		// stream for every n, cold and warm, in every output mode.
		pp := testgen.Generate(testgen.Config{
			Seed: 7, Modules: parityModules, FuncsPer: 3, Annotate: true,
			Bugs: map[testgen.BugKind]int{
				testgen.BugLeak: parityModules / 2, testgen.BugUseAfterFree: parityModules / 2,
				testgen.BugNullDeref: parityModules / 2,
			},
		})
		pdir, ppaths, err := materializeCorpus(pp)
		if fail(err) {
			return
		}
		defer os.RemoveAll(pdir)
		for _, mode := range [][]string{nil, {"-explain"}, {"-validate"}} {
			warmDir, err := os.MkdirTemp("", "golclint-bench-parity-")
			if fail(err) {
				return
			}
			single, _, err := shardJSONL("0/1", ppaths, warmDir, mode...)
			if fail(err) {
				return
			}
			want := strings.Join(single, "\n")
			for _, n := range doc.ParityShardCounts {
				for _, pass := range []string{"cold", "warm"} {
					dir := warmDir
					if pass == "cold" {
						dir, err = os.MkdirTemp("", "golclint-bench-parity-")
						if fail(err) {
							return
						}
					}
					var merged []string
					for i := 0; i < n; i++ {
						lines, _, err := shardJSONL(fmt.Sprintf("%d/%d", i, n), ppaths, dir, mode...)
						if fail(err) {
							return
						}
						merged = append(merged, lines...)
					}
					sort.Strings(merged)
					ok := strings.Join(merged, "\n") == want
					if !ok {
						fmt.Printf("parity FAILED: n=%d %s mode=%v\n", n, pass, mode)
					}
					if pass == "cold" {
						doc.ParityCold = doc.ParityCold && ok
						os.RemoveAll(dir)
					} else {
						doc.ParityWarm = doc.ParityWarm && ok
					}
					switch {
					case len(mode) > 0 && mode[0] == "-explain":
						doc.ParityExplain = doc.ParityExplain && ok
					case len(mode) > 0 && mode[0] == "-validate":
						doc.ParityValidate = doc.ParityValidate && ok
					}
				}
			}
			os.RemoveAll(warmDir)
		}
		fmt.Printf("parity (n in %v, cold+warm, plain/explain/validate): cold=%v warm=%v explain=%v validate=%v\n",
			doc.ParityShardCounts, doc.ParityCold, doc.ParityWarm, doc.ParityExplain, doc.ParityValidate)

		// (d) Compression on the E9 corpus shape: gzip framing must at
		// least halve stored bytes, and the warm replay from those
		// compressed entries must be byte-identical.
		cp := testgen.Generate(testgen.Config{
			Seed: 42, Modules: compressionModules, FuncsPer: 10, Annotate: true,
			Bugs: map[testgen.BugKind]int{testgen.BugLeak: compressionModules / 2},
		})
		cdir, cpaths, err := materializeCorpus(cp)
		if fail(err) {
			return
		}
		defer os.RemoveAll(cdir)
		ccache, err := os.MkdirTemp("", "golclint-bench-comp-")
		if fail(err) {
			return
		}
		defer os.RemoveAll(ccache)
		statsPath := filepath.Join(cdir, "stats.json")
		coldOut, err := runWithStats(cpaths, ccache, statsPath)
		if fail(err) {
			return
		}
		raw, comp, err := readDiskCompression(statsPath)
		if fail(err) {
			return
		}
		doc.CompressionRawBytes, doc.CompressionCompressedBytes = raw, comp
		if comp > 0 {
			doc.CompressionRatio = float64(raw) / float64(comp)
		}
		_, warmOut, err := shardJSONL("0/1", cpaths, ccache)
		if fail(err) {
			return
		}
		doc.WarmReplayIdentical = coldOut == warmOut
		fmt.Printf("compression: %d raw -> %d stored bytes (%.2fx), warm replay identical: %v\n",
			raw, comp, doc.CompressionRatio, doc.WarmReplayIdentical)
	})

	doc.benchMeta = meta
	if doc.ColdFleetWarmRemoteNS > 0 {
		fmt.Printf("cold single %0.1f ms vs cold fleet over warm remote %0.1f ms: %.1fx (gate: >= 5x)\n",
			float64(doc.ColdSingleNS)/1e6, float64(doc.ColdFleetWarmRemoteNS)/1e6, doc.FleetSpeedup)
	}
	fmt.Println("paper extension: shard workers coordinating only through a shared cache check million-line corpora with flat ms/KLOC")
	writeBenchJSON("BENCH_distributed.json", doc)
}

// ---------------------------------------------------------------------------
// E23: function-granular incremental checking — the editloop. The corpus is
// an E22-style modular program whose functions are check-heavy (branchy
// code over tracked allocations, the profile where re-checking is worth
// avoiding). After warming the cache, exactly one function of one module is
// edited and the whole corpus re-checked: the function-granular layer must
// re-check only the edited function (func_cache_misses == 1) and replay
// everything else, beating a module-granular warm re-check of the same edit
// by the gated factor. The parity section drives the real CLI over a
// materialized corpus and asserts the dirty warm transcript equals a cold
// run over the same edited sources, byte for byte, in plain, -explain, and
// -validate modes at jobs 1, 4, and 8.

// editloopSpeedupGate is the committed dirty-edit speedup of the
// function-granular layer over module-granular warm re-checking;
// scripts/bench.sh enforces it on the full (non-quick) configuration.
const editloopSpeedupGate = 5.0

// editloopDoc is BENCH_editloop.json.
type editloopDoc struct {
	benchMeta
	// Quick marks the reduced CI smoke configuration; the speedup gate
	// only asserts when Quick is false (small corpora under-reward
	// replay: fixed frontend cost dominates).
	Quick    bool `json:"quick"`
	Lines    int  `json:"lines"`
	Modules  int  `json:"modules"`
	FuncsPer int  `json:"funcs_per"`
	Reps     int  `json:"reps"`
	// Whole-corpus modular passes over the function-cache store.
	ColdMS float64 `json:"cold_ms"`
	WarmMS float64 `json:"warm_ms"`
	// One-function-edit re-checks (fastest of Reps distinct edits):
	// DirtyFnMS with function-granular sub-entries, DirtyModMS with the
	// module-granular baseline (-fn-cache=false).
	DirtyFnMS    float64 `json:"dirty_fn_ms"`
	DirtyModMS   float64 `json:"dirty_mod_ms"`
	SpeedupDirty float64 `json:"speedup_dirty"`
	SpeedupGate  float64 `json:"speedup_gate"`
	// Function-layer counters of one dirty pass: exactly one miss, every
	// other function of the dirty module replayed.
	FuncCacheHits     int64 `json:"func_cache_hits"`
	FuncCacheMisses   int64 `json:"func_cache_misses"`
	FuncReplayedDiags int64 `json:"func_replayed_diags"`
	// An interface-annotation edit invalidates conservatively: every
	// function of the edited module re-checks.
	AnnotEditFuncMisses int64 `json:"annot_edit_func_misses"`
	// CLI transcript parity on the edited corpus, warm vs cold.
	ParityJobs     []int `json:"parity_jobs"`
	ParityPlain    bool  `json:"parity_plain"`
	ParityExplain  bool  `json:"parity_explain"`
	ParityValidate bool  `json:"parity_validate"`
	Messages       int   `json:"messages"`
}

func runEditloop() { runEditloopConfig(false) }

// runEditloopConfig is E23; quick selects the reduced CI smoke corpus.
func runEditloopConfig(quick bool) {
	header("E23", "function-granular incremental checking: the editloop")
	fail := func(err error) bool {
		if err != nil {
			fmt.Fprintf(os.Stderr, "lclbench: %v\n", err)
			return true
		}
		return false
	}
	modules, funcsPer, heavy, reps := 6, 6, 6, 5
	if quick {
		modules, funcsPer, heavy, reps = 4, 3, 4, 3
	}
	p := testgen.Generate(testgen.Config{
		Seed: 47, Modules: modules, FuncsPer: funcsPer, HeavyPer: heavy,
		Annotate: true, Bugs: map[testgen.BugKind]int{testgen.BugLeak: modules},
	})
	hdr := core.CheckSources(p.Headers, core.Options{})
	lib := library.Build(hdr.Program)
	mods := map[string]map[string]string{}
	for name, src := range p.Files {
		mods[name] = map[string]string{name: src}
	}
	fmt.Printf("corpus: %d lines, %d modules, %d functions per module (check-heavy)\n",
		p.Lines, modules, funcsPer)

	fnDir, err := os.MkdirTemp("", "golclint-bench-editloop-fn-")
	if fail(err) {
		return
	}
	defer os.RemoveAll(fnDir)
	modDir, err := os.MkdirTemp("", "golclint-bench-editloop-mod-")
	if fail(err) {
		return
	}
	defer os.RemoveAll(modDir)
	fnStore, err := cache.Open(fnDir)
	if fail(err) {
		return
	}
	modStore, err := cache.Open(modDir)
	if fail(err) {
		return
	}

	// runPass re-checks all modules against one store; disable selects the
	// module-granular baseline (the -fn-cache=false path).
	runPass := func(store cache.Store, disable bool, lib *library.Library,
		mods map[string]map[string]string, inc cpp.Includer) (float64, *obs.Metrics, int) {
		m := obs.New()
		opt := core.Options{
			Includes: inc, Cache: store, Metrics: m, Jobs: 1, DisableFnCache: disable,
		}
		var results map[string]*core.Result
		elapsed, _ := measureRow(func() {
			results = library.CheckModules(mods, lib, opt)
		})
		messages := 0
		for _, res := range results {
			messages += len(res.Diags)
		}
		return float64(elapsed.Microseconds()) / 1000, m, messages
	}
	editName := func(r int) string { return fmt.Sprintf("mod0_calc%d", r%funcsPer) }
	editedMods := func(r int) (map[string]map[string]string, error) {
		q, err := p.EditBody("mod0.c", editName(r))
		if err != nil {
			return nil, err
		}
		out := map[string]map[string]string{}
		for name := range mods {
			out[name] = mods[name]
		}
		out["mod0.c"] = map[string]string{"mod0.c": q.Files["mod0.c"]}
		return out, nil
	}

	inc := cpp.MapIncluder(p.Headers)
	var doc editloopDoc
	doc.Quick, doc.SpeedupGate, doc.Reps = quick, editloopSpeedupGate, reps
	doc.Lines, doc.Modules, doc.FuncsPer = p.Lines, modules, funcsPer
	meta := measure("golclint-bench-editloop/v1", "E23", func() {
		var m *obs.Metrics
		doc.ColdMS, _, doc.Messages = runPass(fnStore, false, lib, mods, inc)
		doc.WarmMS, _, _ = runPass(fnStore, false, lib, mods, inc)
		runPass(modStore, true, lib, mods, inc) // warm the baseline store

		// Reps distinct one-function edits, each a genuine dirty re-check
		// against the original-warm stores; fastest-of-reps on both sides.
		doc.DirtyFnMS, doc.DirtyModMS = 1e18, 1e18
		for r := 0; r < reps; r++ {
			em, err := editedMods(r)
			if fail(err) {
				return
			}
			wall, fm, _ := runPass(fnStore, false, lib, em, inc)
			if wall < doc.DirtyFnMS {
				doc.DirtyFnMS = wall
			}
			if r == 0 {
				m = fm
			}
			if got := fm.Get(obs.FuncCacheMisses); got != 1 {
				fmt.Printf("WARNING: edit %s re-checked %d functions, want 1\n", editName(r), got)
			}
			wall, _, _ = runPass(modStore, true, lib, em, inc)
			if wall < doc.DirtyModMS {
				doc.DirtyModMS = wall
			}
		}
		doc.FuncCacheHits = m.Get(obs.FuncCacheHits)
		doc.FuncCacheMisses = m.Get(obs.FuncCacheMisses)
		doc.FuncReplayedDiags = m.Get(obs.FuncReplayedDiags)
		doc.SpeedupDirty = doc.DirtyModMS / doc.DirtyFnMS

		// Interface-annotation edit: conservative, module-wide re-check.
		q, err := p.EditAnnot("mod0")
		if fail(err) {
			return
		}
		qhdr := core.CheckSources(q.Headers, core.Options{})
		qlib := library.Build(qhdr.Program)
		_, am, _ := runPass(fnStore, false, qlib, mods, cpp.MapIncluder(q.Headers))
		doc.AnnotEditFuncMisses = am.Get(obs.FuncCacheMisses)

		// CLI transcript parity, warm dirty vs cold, on the edited corpus.
		dir, paths, err := materializeCorpus(p)
		if fail(err) {
			return
		}
		defer os.RemoveAll(dir)
		doc.ParityJobs = []int{1, 4, 8}
		doc.ParityPlain, doc.ParityExplain, doc.ParityValidate = true, true, true
		for _, mode := range []string{"plain", "explain", "validate"} {
			warmDir := filepath.Join(dir, "cache-"+mode)
			var modeArgs []string
			if mode != "plain" {
				modeArgs = []string{"-" + mode}
			}
			prime := append(append([]string{"-cache-dir", warmDir}, modeArgs...), paths...)
			cli.Run(prime, io.Discard, io.Discard)
			for ji, jobs := range doc.ParityJobs {
				q, err := p.EditBody("mod0.c", editName(ji))
				if fail(err) {
					return
				}
				if err := os.WriteFile(filepath.Join(dir, "mod0.c"),
					[]byte(q.Files["mod0.c"]), 0o644); fail(err) {
					return
				}
				js := fmt.Sprintf("%d", jobs)
				var warm, cold strings.Builder
				warmArgs := append(append([]string{"-cache-dir", warmDir, "-jobs", js}, modeArgs...), paths...)
				warmCode := cli.Run(warmArgs, &warm, io.Discard)
				coldArgs := append(append([]string{"-jobs", js}, modeArgs...), paths...)
				coldCode := cli.Run(coldArgs, &cold, io.Discard)
				if warm.String() != cold.String() || warmCode != coldCode {
					switch mode {
					case "plain":
						doc.ParityPlain = false
					case "explain":
						doc.ParityExplain = false
					case "validate":
						doc.ParityValidate = false
					}
					fmt.Printf("PARITY MISMATCH: %s at jobs %d\n", mode, jobs)
				}
			}
			// Restore the original module for the next mode's prime run.
			if err := os.WriteFile(filepath.Join(dir, "mod0.c"),
				[]byte(p.Files["mod0.c"]), 0o644); fail(err) {
				return
			}
		}
	})
	doc.benchMeta = meta

	fmt.Printf("%8s %10s\n", "pass", "wall(ms)")
	fmt.Printf("%8s %10.1f\n", "cold", doc.ColdMS)
	fmt.Printf("%8s %10.1f\n", "warm", doc.WarmMS)
	fmt.Printf("%8s %10.1f  (function-granular: %d re-checked, %d replayed, %d diags replayed)\n",
		"dirty-fn", doc.DirtyFnMS, doc.FuncCacheMisses, doc.FuncCacheHits, doc.FuncReplayedDiags)
	fmt.Printf("%8s %10.1f  (module-granular baseline)\n", "dirty-mod", doc.DirtyModMS)
	fmt.Printf("dirty-edit speedup: %.1fx (gate: >= %.0fx, full config)\n",
		doc.SpeedupDirty, doc.SpeedupGate)
	fmt.Printf("annotation edit re-checks %d functions (conservative module-wide invalidation)\n",
		doc.AnnotEditFuncMisses)
	fmt.Printf("transcript parity warm-vs-cold at jobs %v: plain=%v explain=%v validate=%v\n",
		doc.ParityJobs, doc.ParityPlain, doc.ParityExplain, doc.ParityValidate)
	fmt.Println("paper extension: an edit re-checks one function, not one module — the editloop is sub-frontend-cost")
	writeBenchJSON("BENCH_editloop.json", doc)
}
