// Command lclbench regenerates every table and figure reproduction from
// the paper's evaluation and the extensions built on it (experiments E1-E23
// in DESIGN.md and EXPERIMENTS.md; E12 and E16 have no subcommand: package
// tests cover them, and E23 times E16's cold and warm passes). Each
// subcommand prints one experiment; "all" runs the full set.
//
// The perf experiments also write a machine-readable companion,
// BENCH_<name>.json, to the current directory: scaling (E9), modular
// (E10), parallel (E15), state (E17), frontend (E18), provenance (E19),
// validate (E20), serve (E21), distributed (E22) and editloop (E23). Each
// is stamped with the host (CPU count, GOMAXPROCS, commit), the
// experiment's elapsed time and allocation totals, and the spread (min,
// median and MAD over the reps) of every figure timed over repeated runs.
// lclbench then evaluates the gate table (gates.go) on each document it
// writes and exits 1 if any gate fails.
//
// Usage:
//
//	lclbench [-jobs n] [-quick] [samples|listaddh|ercdb|scaling|modular|economy|staticvsdynamic|nofixpoint|parallel|state|frontend|provenance|validate|serve|distributed|editloop|all]
//
//	-jobs n   highest worker count the parallel experiment sweeps to
//	          (0 = GOMAXPROCS)
//	-quick    run on small corpora; with "all", only the BENCH-emitting
//	          experiments (the CI smoke mode)
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
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
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Commit is the build's vcs.revision, suffixed "+dirty" when built
	// from a modified tree; binaries built by `go run` carry none, so it
	// is empty there.
	Commit string `json:"commit"`
	// ElapsedNS is the experiment's end-to-end wall-clock time.
	ElapsedNS int64 `json:"elapsed_ns"`
	// AllocBytes is the total heap allocated during the experiment
	// (runtime.MemStats.TotalAlloc delta).
	AllocBytes uint64 `json:"alloc_bytes"`
	// PeakHeapBytes is the heap footprint obtained from the OS by the end
	// of the experiment (runtime.MemStats.HeapSys), an upper bound on the
	// peak live heap.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// Spread is the timing behind each figure measured over repeated runs,
	// keyed by the document field it backs.
	Spread map[string]timing `json:"spread,omitempty"`
}

func (m *benchMeta) meta() *benchMeta { return m }

// record files t as the spread behind field and returns it.
func (m *benchMeta) record(field string, t timing) timing {
	if m.Spread == nil {
		m.Spread = map[string]timing{}
	}
	m.Spread[field] = t
	return t
}

// benchDoc is a BENCH document: a struct embedding benchMeta.
type benchDoc interface{ meta() *benchMeta }

// timing is the spread of one function's wall time over Reps timed runs,
// with its mean allocation per run.
type timing struct {
	Reps        int     `json:"reps"`
	MinNS       int64   `json:"min_ns"`
	MedianNS    int64   `json:"median_ns"`
	MADNS       int64   `json:"mad_ns"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
	ns          []int64 // per-run wall times, sorted
}

// percentile returns the p-th percentile of the per-run wall times.
func (t timing) percentile(p int) int64 { return t.ns[min(len(t.ns)*p/100, len(t.ns)-1)] }

func (t timing) medianMS() float64 { return float64(t.MedianNS) / 1e6 }

// spreadReps is the run count behind figures no gate reads: enough for a
// median and a MAD without stretching the full runs.
const spreadReps = 3

// timeReps runs each of fs warmups times untimed (0 to time a cold path
// from its first run), then reps times timed, and returns each one's
// timing. Several functions are compared: their runs are interleaved so
// machine drift hits each alike, and the heap is collected before each run
// so a collection owed to one function's garbage cannot land inside
// another's. A lone function's runs go back to back, as a server sees
// repeated requests, with the allocation counters read only around the
// whole series (reading them stops the world and empties every P's span
// cache, which would slow the next run).
func timeReps(warmups, reps int, fs ...func()) []timing {
	for range warmups {
		for _, f := range fs {
			f()
		}
	}
	settle := len(fs) > 1
	out := make([]timing, len(fs))
	var before, after runtime.MemStats
	for i := 0; i < reps; i++ {
		for j, f := range fs {
			if settle {
				runtime.GC()
			}
			if settle || i == 0 {
				runtime.ReadMemStats(&before)
			}
			start := time.Now()
			f()
			out[j].ns = append(out[j].ns, time.Since(start).Nanoseconds())
			if settle || i == reps-1 {
				runtime.ReadMemStats(&after)
				out[j].AllocsPerOp += after.Mallocs - before.Mallocs
				out[j].BytesPerOp += after.TotalAlloc - before.TotalAlloc
			}
		}
	}
	for j := range out {
		t := &out[j]
		sort.Slice(t.ns, func(a, b int) bool { return t.ns[a] < t.ns[b] })
		t.Reps, t.MinNS, t.MedianNS = reps, t.ns[0], t.percentile(50)
		t.AllocsPerOp /= uint64(reps)
		t.BytesPerOp /= uint64(reps)
		dev := make([]int64, reps)
		for i, ns := range t.ns {
			dev[i] = max(ns-t.MedianNS, t.MedianNS-ns)
		}
		sort.Slice(dev, func(a, b int) bool { return dev[a] < dev[b] })
		t.MADNS = dev[reps/2]
	}
	return out
}

// experiment is one lclbench subcommand. id names the experiment in its
// BENCH document and gate rows; prose-only experiments have none and
// return a nil document.
type experiment struct {
	name string
	id   string
	run  func(quick bool) (benchDoc, error)
}

var experiments = []experiment{
	{"samples", "", prose(runSamples)},
	{"listaddh", "", prose(runListAddh)},
	{"ercdb", "", prose(runErcDB)},
	{"scaling", "E9", runScaling},
	{"modular", "E10", runModular},
	{"economy", "", prose(runEconomy)},
	{"staticvsdynamic", "", runStaticVsDynamic},
	{"nofixpoint", "", prose(runNoFixpoint)},
	{"parallel", "E15", runParallel},
	{"state", "E17", runState},
	{"frontend", "E18", runFrontend},
	{"provenance", "E19", runProvenance},
	{"validate", "E20", runValidate},
	{"serve", "E21", runServe},
	{"distributed", "E22", runDistributed},
	{"editloop", "E23", runEditloop},
}

// prose adapts an experiment that only prints a table.
func prose(f func()) func(bool) (benchDoc, error) {
	return func(bool) (benchDoc, error) { f(); return nil, nil }
}

// maxJobs is the highest worker count the parallel experiment sweeps to
// (set by -jobs; 0 means GOMAXPROCS).
var maxJobs = 0

func main() {
	fs := flag.NewFlagSet("lclbench", flag.ExitOnError)
	jobs := fs.Int("jobs", 0, "highest worker count for the parallel experiment (0 = GOMAXPROCS)")
	quick := fs.Bool("quick", false, "run on small corpora; with \"all\", only the BENCH-emitting experiments (CI smoke)")
	_ = fs.Parse(os.Args[1:])
	maxJobs = *jobs
	cmd := "all"
	if fs.NArg() > 0 {
		cmd = fs.Arg(0)
	}
	ran, failed := false, false
	for _, e := range experiments {
		if cmd != e.name && (cmd != "all" || *quick && e.id == "") {
			continue
		}
		ran = true
		doc, err := runExperiment(e, *quick)
		if err == nil && doc != nil {
			if err = errors.Join(violations(doc, true)...); err == nil {
				fmt.Printf("gates %s: ok\n", e.id)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "lclbench: %s: %v\n", e.name, err)
			failed = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "lclbench: unknown experiment %q\n", cmd)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// runExperiment runs e and, if it produced a document, stamps it, writes
// it to outDir/BENCH_<name>.json and returns it decoded, as the gates read
// it.
func runExperiment(e experiment, quick bool) (map[string]any, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	doc, err := e.run(quick)
	if err != nil || doc == nil {
		return nil, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	m := doc.meta()
	m.Schema, m.Experiment = "golclint-bench-"+e.name+"/v1", e.id
	m.GoVersion, m.GOOS, m.GOARCH = runtime.Version(), runtime.GOOS, runtime.GOARCH
	m.NumCPU, m.GOMAXPROCS, m.Commit = runtime.NumCPU(), runtime.GOMAXPROCS(0), vcsRevision()
	m.ElapsedNS = elapsed.Nanoseconds()
	m.AllocBytes = after.TotalAlloc - before.TotalAlloc
	m.PeakHeapBytes = after.HeapSys

	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "BENCH_"+e.name+".json")
	if err := atomicio.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("wrote %s\n", path)
	var decoded map[string]any
	if err := json.Unmarshal(b, &decoded); err != nil {
		return nil, err
	}
	return decoded, nil
}

// vcsRevision returns the commit the binary was built from, if stamped.
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		return revisionOf(bi.Settings)
	}
	return ""
}

// revisionOf renders build settings' vcs.revision, with "+dirty" appended
// when the tree it was built from had uncommitted changes, so a document
// stamped from a modified tree is not taken for the commit's own.
func revisionOf(settings []debug.BuildSetting) string {
	rev, dirty := "", ""
	for _, s := range settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	if rev == "" {
		return ""
	}
	return rev + dirty
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
	// AllocBytes is the heap allocated by one check of this row.
	AllocBytes uint64           `json:"alloc_bytes"`
	PhasesNS   map[string]int64 `json:"phases_ns"`
	Counters   map[string]int64 `json:"counters"`
}

type scalingDoc struct {
	benchMeta
	Rows []scalingRow `json:"rows"`
}

func runScaling(quick bool) (benchDoc, error) {
	sizes := []int{2, 8, 32, 64, 128}
	if quick {
		sizes = []int{2, 4}
	}
	header("E9 (Section 7)", "checking time vs program size")
	fmt.Printf("%10s %8s %12s %12s %10s\n", "lines", "modules", "check(ms)", "ms/kloc", "messages")
	doc := &scalingDoc{}
	for i, modules := range sizes {
		p := testgen.Generate(testgen.Config{
			Seed: 42, Modules: modules, FuncsPer: 10, Annotate: true,
			Bugs: map[testgen.BugKind]int{testgen.BugLeak: modules / 2},
		})
		var m *obs.Metrics
		var res *core.Result
		t := doc.record(fmt.Sprintf("rows[%d].check_ms", i), timeReps(1, spreadReps, func() {
			m = obs.New()
			res = core.CheckSources(p.Files, core.Options{Includes: cpp.MapIncluder(p.Headers), Metrics: m})
		})[0])
		ms := t.medianMS()
		fmt.Printf("%10d %8d %12.1f %12.2f %10d\n",
			p.Lines, modules, ms, ms/(float64(p.Lines)/1000), len(res.Diags))
		snap := m.Snapshot()
		doc.Rows = append(doc.Rows, scalingRow{
			Lines: p.Lines, Modules: modules, CheckMS: ms,
			MSPerKLOC: ms / (float64(p.Lines) / 1000), Messages: len(res.Diags),
			AllocBytes: t.BytesPerOp,
			PhasesNS:   snap.PhasesNS, Counters: snap.Counters,
		})
	}
	fmt.Println("paper shape: time grows ~linearly; ms/kloc stays ~flat")
	return doc, nil
}

// ---------------------------------------------------------------------------
// E10: modular re-checking with interface libraries (§7: a 5000-line
// module re-checks in seconds versus minutes for the whole program).

// modularDoc is BENCH_modular.json: whole-program vs one-module timings.
type modularDoc struct {
	benchMeta
	WholeLines int   `json:"whole_lines"`
	WholeNS    int64 `json:"whole_ns"`
	// WholeAllocBytes / ModuleAllocBytes are the heap allocated by one
	// check each.
	WholeAllocBytes  uint64           `json:"whole_alloc_bytes"`
	ModuleLines      int              `json:"module_lines"`
	ModuleNS         int64            `json:"module_ns"`
	ModuleAllocBytes uint64           `json:"module_alloc_bytes"`
	Speedup          float64          `json:"speedup"`
	LibraryEntries   int              `json:"library_entries"`
	ModulePhasesNS   map[string]int64 `json:"module_phases_ns"`
	ModuleCounters   map[string]int64 `json:"module_counters"`
}

func runModular(quick bool) (benchDoc, error) {
	modules := 64
	if quick {
		modules = 8
	}
	header("E10 (Section 7)", "whole-program vs modular re-check")
	p := testgen.Generate(testgen.Config{
		Seed: 43, Modules: modules, FuncsPer: 10, Annotate: true,
	})
	doc := &modularDoc{}
	var whole *core.Result
	wt := doc.record("whole_ns", timeReps(1, spreadReps, func() {
		whole = core.CheckSources(p.Files, core.Options{Includes: cpp.MapIncluder(p.Headers)})
	})[0])

	lib := library.Build(whole.Program)
	mod := map[string]string{"mod0.c": p.Files["mod0.c"]}
	var m *obs.Metrics
	mt := doc.record("module_ns", timeReps(1, spreadReps, func() {
		m = obs.New()
		library.CheckModule(mod, lib, core.Options{Includes: cpp.MapIncluder(p.Headers), Metrics: m})
	})[0])

	doc.WholeLines, doc.WholeNS, doc.WholeAllocBytes = p.Lines, wt.MedianNS, wt.BytesPerOp
	doc.ModuleLines = strings.Count(p.Files["mod0.c"], "\n")
	doc.ModuleNS, doc.ModuleAllocBytes = mt.MedianNS, mt.BytesPerOp
	doc.Speedup = float64(wt.MedianNS) / float64(mt.MedianNS)
	doc.LibraryEntries = lib.EntryCount()
	snap := m.Snapshot()
	doc.ModulePhasesNS, doc.ModuleCounters = snap.PhasesNS, snap.Counters
	fmt.Printf("whole program (%d lines): %v\n", p.Lines, time.Duration(wt.MedianNS))
	fmt.Printf("one module with library (%d lines): %v\n", doc.ModuleLines, time.Duration(mt.MedianNS))
	fmt.Printf("speedup: %.1fx (library: %s)\n", doc.Speedup, lib.Stats())
	fmt.Println("paper shape: module re-check is an order of magnitude faster")
	return doc, nil
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

// runStaticVsDynamic's interpreter baseline is minutes-scale at the full
// configuration on small machines, so quick runs a reduced one (the
// committed full run records the headline table).
func runStaticVsDynamic(quick bool) (benchDoc, error) {
	modules, funcsPer, bugsEach, fracs := 6, 4, 4, []int{0, 25, 50, 100}
	if quick {
		modules, funcsPer, bugsEach, fracs = 2, 2, 1, []int{0, 100}
	}
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
	return nil, nil
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
		return time.Duration(timeReps(1, 50, func() { core.CheckSource("f.c", src, core.Options{}) })[0].MedianNS)
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

// runParallel checks E9's largest configuration (quick: a small one) at
// worker counts sweeping powers of two up to the -jobs ceiling (0 =
// GOMAXPROCS), always including the ceiling itself.
func runParallel(quick bool) (benchDoc, error) {
	modules, funcsPer := 128, 10
	if quick {
		modules, funcsPer = 8, 6
	}
	header("E15 (Section 7)", "parallel per-function checking: wall-clock vs workers")
	ceiling := maxJobs
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

	doc := &parallelDoc{Lines: p.Lines, Modules: modules, MaxJobs: ceiling}
	for i, jobs := range sweep {
		var m *obs.Metrics
		var res *core.Result
		t := doc.record(fmt.Sprintf("rows[%d].wall_ms", i), timeReps(1, spreadReps, func() {
			m = obs.New()
			res = core.CheckSources(p.Files, core.Options{
				Includes: cpp.MapIncluder(p.Headers), Metrics: m, Jobs: jobs,
			})
		})[0])
		snap := m.Snapshot()
		row := parallelRow{
			Jobs: jobs, WallMS: t.medianMS(), CheckWallMS: float64(snap.CheckWallNS) / 1e6,
			CheckCPUMS: float64(snap.PhasesNS["cfg"]+snap.PhasesNS["check"]) / 1e6,
			AllocBytes: t.BytesPerOp, Messages: len(res.Diags),
		}
		base := row
		if i > 0 {
			base = doc.Rows[0]
		}
		row.Speedup, row.CheckSpeedup = base.WallMS/row.WallMS, base.CheckWallMS/row.CheckWallMS
		doc.Functions = snap.Counters["functions_checked"]
		fmt.Printf("%6d %10.1f %14.1f %14.1f %8.2fx %8.2fx %10d\n",
			jobs, row.WallMS, row.CheckWallMS, row.CheckCPUMS, row.Speedup, row.CheckSpeedup, row.Messages)
		doc.Rows = append(doc.Rows, row)
	}
	fmt.Println("paper shape: per-function independence turns modularity into wall-clock speedup")
	return doc, nil
}

// ---------------------------------------------------------------------------
// E17: the interned-reference dense store. Measures the check phase alone
// (parsing and environment construction hoisted out, serial workers) over
// the E9 reference corpus: ns per whole-corpus pass, allocations per pass,
// and the copy-on-write counters. The emitted BENCH_state.json also carries
// the committed allocation budget its gate enforces, plus the map-keyed
// store's numbers from the commit that replaced it, so the file is a
// self-contained before/after record.

const (
	// stateBudgetAllocsPerOp is the committed check-phase allocation budget
	// on the E17 workload; a build exceeding it by more than 20% fails the
	// gate (the regression guard).
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
	// CheckNSPerOp is the median whole-corpus CheckProgram pass over Iters
	// passes; Alloc*PerOp are the mean per pass.
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

// e17Corpus is the E9 32-module configuration E17, E18 and E19 share in
// every mode, so the committed allocation budgets mean the same thing in
// each.
func e17Corpus() *testgen.Program {
	return testgen.Generate(testgen.Config{
		Seed: 42, Modules: 32, FuncsPer: 10, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: 16},
	})
}

func runState(quick bool) (benchDoc, error) {
	iters := 10
	if quick {
		iters = 3
	}
	header("E17", "interned-reference dense store: check-phase cost")
	p := e17Corpus()
	m := obs.New()
	res := core.CheckSources(p.Files, core.Options{Includes: cpp.MapIncluder(p.Headers), Metrics: m})
	if res.Program == nil {
		return nil, errors.New("E17 corpus failed to parse")
	}
	fl := flags.Default()
	doc := &stateDoc{Lines: p.Lines, Modules: 32, Iters: iters}
	t := doc.record("check_ns_per_op", timeReps(1, iters, func() {
		core.CheckProgram(res.Program, fl, diag.NewReporter(fl.MaxMessages))
	})[0])
	doc.CheckNSPerOp, doc.AllocBytesPerOp, doc.AllocsPerOp = t.MedianNS, t.BytesPerOp, t.AllocsPerOp
	snap := m.Snapshot()
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
	fmt.Printf("committed budget: %d allocs/op (gate fails above +20%%)\n",
		uint64(stateBudgetAllocsPerOp))
	return doc, nil
}

// ---------------------------------------------------------------------------
// E18: the parallel zero-copy frontend. Measures preprocess+parse alone
// (core.Frontend, no analysis) over the E9 reference corpus: ns per
// whole-corpus pass and allocations per pass at jobs=1, plus the wall time
// of the same pass at jobs=4 so the fan-out's effect on the host machine is
// on record. The emitted BENCH_frontend.json carries the committed
// allocation budget its gate enforces and the pre-rewrite per-file
// frontend's numbers, so the file is a self-contained before/after record.

const (
	// frontendBudgetAllocsPerOp is the committed frontend allocation budget
	// on the E18 workload; a build exceeding it by more than 20% fails the
	// gate (the regression guard).
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
	// FrontendNSPerOp is the median whole-corpus Frontend pass at jobs=1
	// over Iters passes; Alloc*PerOp are the mean per pass.
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

func runFrontend(quick bool) (benchDoc, error) {
	iters := 20
	if quick {
		iters = 3
	}
	header("E18", "parallel zero-copy frontend: preprocess+parse cost")
	p := e17Corpus()
	opts := func(jobs int) core.Options {
		return core.Options{Includes: cpp.MapIncluder(p.Headers), Jobs: jobs}
	}
	front := func(jobs int) func() { return func() { core.Frontend(p.Files, opts(jobs)) } }
	doc := &frontendDoc{Lines: p.Lines, Modules: 32, Iters: iters}
	t := doc.record("frontend_ns_per_op", timeReps(1, iters, front(1))[0])
	doc.FrontendNSPerOp, doc.AllocBytesPerOp, doc.AllocsPerOp = t.MedianNS, t.BytesPerOp, t.AllocsPerOp
	doc.Jobs4NSPerOp = doc.record("jobs4_ns_per_op", timeReps(1, iters, front(4))[0]).MedianNS
	m := obs.New()
	o := opts(1)
	o.Metrics = m
	core.Frontend(p.Files, o)
	snap := m.Snapshot()
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
	fmt.Printf("committed budget: %d allocs/op (gate fails above +20%%)\n",
		uint64(frontendBudgetAllocsPerOp))
	return doc, nil
}

// ---------------------------------------------------------------------------
// E19: diagnostic provenance. Measures the check phase over the E17 corpus
// in three modes — the plain CheckProgram entry point, the provenance-
// capable path with recording off, and with recording on — interleaved so
// machine drift hits all three equally. The off-vs-baseline delta is the
// cost the provenance hooks impose on every default run (the ≤2% wall /
// zero-extra-allocs contract its gates enforce); the on-vs-off delta is the
// price of actually recording witnesses under -explain.

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

// runProvenance runs 10 passes per mode in every configuration; its corpus
// matches E17 exactly so the committed allocation budget carries over.
func runProvenance(bool) (benchDoc, error) {
	const iters = 10
	header("E19", "diagnostic provenance: recording overhead")
	p := e17Corpus()
	res := core.CheckSources(p.Files, core.Options{Includes: cpp.MapIncluder(p.Headers)})
	if res.Program == nil {
		return nil, errors.New("E19 corpus failed to parse")
	}
	fl := flags.Default()
	baseline := func() { core.CheckProgram(res.Program, fl, diag.NewReporter(fl.MaxMessages)) }
	pass := func(explain bool) func() {
		return func() { core.CheckProgramExplain(res.Program, fl, diag.NewReporter(fl.MaxMessages), explain) }
	}
	doc := &provenanceDoc{Lines: p.Lines, Modules: 32, Iters: iters, BudgetAllocsPerOp: stateBudgetAllocsPerOp}
	ts := timeReps(1, iters, baseline, pass(false), pass(true))
	base := doc.record("baseline_check_ns_per_op", ts[0])
	off := doc.record("off_check_ns_per_op", ts[1])
	on := doc.record("on_check_ns_per_op", ts[2])
	doc.BaselineCheckNSPerOp, doc.OffCheckNSPerOp, doc.OnCheckNSPerOp = base.MinNS, off.MinNS, on.MinNS
	doc.BaselineAllocsPerOp, doc.OffAllocsPerOp, doc.OnAllocsPerOp = base.AllocsPerOp, off.AllocsPerOp, on.AllocsPerOp
	doc.OffAllocBytesPerOp, doc.OnAllocBytesPerOp = off.BytesPerOp, on.BytesPerOp
	doc.OverheadOffPct = 100 * (float64(doc.OffCheckNSPerOp) - float64(doc.BaselineCheckNSPerOp)) /
		float64(doc.BaselineCheckNSPerOp)
	doc.OverheadOnPct = 100 * (float64(doc.OnCheckNSPerOp) - float64(doc.OffCheckNSPerOp)) /
		float64(doc.OffCheckNSPerOp)
	doc.ExtraAllocsOffPerOp = int64(doc.OffAllocsPerOp) - int64(doc.BaselineAllocsPerOp)

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
	return doc, nil
}

// ---------------------------------------------------------------------------
// E20: counterexample validation. Checks a seeded corpus covering every bug
// kind with witnesses on, then runs the validation search (internal/validate)
// over the diagnostics and reports the confirmed rate and per-diagnostic
// cost. Its gates: every seeded bug's diagnostic validates `confirmed` (the
// static claims are demonstrable), the overall confirmed rate stays >= 0.8,
// and a whole-corpus validation pass stays inside the committed wall budget.

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

func runValidate(quick bool) (benchDoc, error) {
	iters := 10
	if quick {
		iters = 3
	}
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
		return nil, errors.New("E20 corpus failed to parse")
	}

	doc := &validateDoc{Lines: p.Lines, Modules: 24, Iters: iters, BudgetNSPerOp: validateBudgetNSPerOp}
	var sum validate.Summary
	t := doc.record("validate_ns_per_op", timeReps(1, iters, func() {
		// Apply skips already-tagged diagnostics (cache replay leaves
		// them tagged); clear the tags so every pass is a full one.
		for _, d := range res.Diags {
			d.Validation = nil
		}
		sum = validate.Apply(res.Program, res.Diags, validate.Options{})
	})[0])
	doc.Diags = sum.Examined
	doc.Confirmed, doc.Infeasible, doc.Unreproduced = sum.Confirmed, sum.Infeasible, sum.Unreproduced
	doc.ValidateNSPerOp = t.MinNS
	if doc.Diags > 0 {
		doc.ConfirmedRate = float64(doc.Confirmed) / float64(doc.Diags)
		doc.NSPerDiag = t.MinNS / int64(doc.Diags)
	}

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
	return doc, nil
}

// ---------------------------------------------------------------------------
// E21: the analysis server. A long-lived daemon keeps the interface library
// and the content-addressed cache resident, so an editor's re-check request
// pays neither process startup nor cold analysis. The experiment compares a
// cold single-shot CLI run over an E9-style corpus against warm requests to
// a live server (same corpus, same checker path), records warm p50/p99 and
// coalescing under concurrent clients, and BENCH_serve.json carries the
// speedup its gate holds at >= 5x.

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

func runServe(quick bool) (benchDoc, error) {
	modules, funcsPer, warmReqs, clients := 32, 10, 60, 4
	if quick {
		modules, funcsPer, warmReqs = 8, 6, 20
	}
	header("E21", "analysis server: warm request latency vs cold CLI")
	p := testgen.Generate(testgen.Config{
		Seed: 42, Modules: modules, FuncsPer: funcsPer, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: modules / 2},
	})
	doc := &serveDoc{Lines: p.Lines, Modules: modules, WarmReqs: warmReqs, Clients: clients}

	// Cold CLI baseline: the corpus on disk, checked by the same entry point
	// the golclint binary uses, no cache directory — every run pays the full
	// frontend and analysis. Best of 3 keeps scheduler noise out of the
	// denominator (understating the speedup, never inflating it).
	dir, paths, err := materializeCorpus("", p)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	coldCLI := doc.record("cold_cli_ns", timeReps(0, 3, func() {
		if code := cli.Run(paths, io.Discard, io.Discard); code > 1 && err == nil {
			err = fmt.Errorf("cold CLI run exited %d", code)
		}
	})[0])
	if err != nil {
		return nil, err
	}

	// A live server on a loopback port, exactly as `golclint -serve` runs
	// it. Request bodies are encoded up front so the timings cover the
	// round trip alone.
	srv, err := server.New(server.Options{})
	if err != nil {
		return nil, err
	}
	base, stop, err := listen(srv)
	if err != nil {
		return nil, err
	}
	defer stop()
	post := func(body []byte) {
		if err == nil {
			err = postCheck(base, body)
		}
	}
	batch, err := json.Marshal(&server.CheckRequest{Files: p.Files, Headers: p.Headers})
	if err != nil {
		return nil, err
	}
	cold := doc.record("cold_server_ns", timeReps(0, 1, func() { post(batch) })[0])
	warm := doc.record("warm_p50_ns", timeReps(1, warmReqs, func() { post(batch) })[0])

	// Concurrent clients over per-module requests (primed once each):
	// the editor-fleet shape. Identical in-flight requests coalesce.
	var perMod [][]byte
	for _, name := range sortedKeys(p.Files) {
		body, err := json.Marshal(&server.CheckRequest{Files: map[string]string{name: p.Files[name]}, Headers: p.Headers})
		if err != nil {
			return nil, err
		}
		post(body)
		perMod = append(perMod, body)
	}
	burst := doc.record("throughput_rps", timeReps(0, 1, func() {
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for c := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2*len(perMod) && errs[c] == nil; i++ {
					errs[c] = postCheck(base, perMod[(c+i)%len(perMod)])
				}
			}()
		}
		wg.Wait()
		if err == nil {
			err = errors.Join(errs...)
		}
	})[0])
	if err != nil {
		return nil, err
	}

	st := srv.StatsSnapshot()
	doc.ColdCLINS, doc.ColdServerNS = coldCLI.MinNS, cold.MedianNS
	doc.WarmP50NS, doc.WarmP99NS = warm.MedianNS, warm.percentile(99)
	doc.SpeedupWarm = float64(doc.ColdCLINS) / float64(doc.WarmP50NS)
	doc.BurstReqs = clients * 2 * len(perMod)
	doc.ThroughputRPS = float64(doc.BurstReqs) / (float64(burst.MedianNS) / 1e9)
	doc.Coalesced, doc.MemoHits = st.Coalesced, st.MemoHits
	mem := st.CacheStores["mem"]
	doc.CacheEntries, doc.CacheBytes = mem.Entries, mem.Bytes

	fmt.Printf("corpus: %d lines, %d modules\n", p.Lines, modules)
	fmt.Printf("%-24s %12.1f ms\n", "cold CLI (best of 3)", float64(doc.ColdCLINS)/1e6)
	fmt.Printf("%-24s %12.1f ms\n", "cold server request", float64(doc.ColdServerNS)/1e6)
	fmt.Printf("%-24s %12.2f ms  p99 %.2f ms (%d reqs)\n", "warm server request p50",
		float64(doc.WarmP50NS)/1e6, float64(doc.WarmP99NS)/1e6, warmReqs)
	fmt.Printf("warm speedup vs cold CLI: %.1fx (gate: >= 5x)\n", doc.SpeedupWarm)
	fmt.Printf("%d clients, %d requests: %.0f req/s, %d coalesced, %d memo replays\n",
		doc.Clients, doc.BurstReqs, doc.ThroughputRPS, doc.Coalesced, doc.MemoHits)
	fmt.Printf("resident cache: %d entries, %d bytes\n", doc.CacheEntries, doc.CacheBytes)
	fmt.Println("paper extension: a resident checker turns whole-corpus re-checks into millisecond requests")
	return doc, nil
}

// postCheck posts an encoded CheckRequest to the server at base and drains
// the response.
func postCheck(base string, body []byte) error {
	resp, err := http.Post(base+"/check", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /check: %s", resp.Status)
	}
	return nil
}

// listen serves s on a loopback port, as golclint's -serve and -cache-serve
// do, and returns its base URL and a func that stops it (never nil).
func listen(s interface{ Serve(net.Listener) error }) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", func() {}, err
	}
	go s.Serve(ln)
	return "http://" + ln.Addr().String(), func() { ln.Close() }, nil
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
// (d) the framed cache stores no more bytes per KLOC than the gated bound,
// with byte-identical warm replay.

// compressionBytesPerKLOC bounds the framed cache bytes E22 stores per KLOC
// of its compression corpus. It is what the JSON entry format, framed with
// its dictionary, stored on the full 32-module corpus (13 903 on the quick
// 8-module one): the record that replaced it may store no more. Stored
// bytes are the figure that matters to a disk or a blob server; a
// raw-over-stored ratio would also move with the raw form's size.
const compressionBytesPerKLOC = 13_459

// distributedRow is one corpus size in the E22 scaling ladder, checked by
// a cold shard fleet writing through to a shared remote store.
type distributedRow struct {
	Lines   int `json:"lines"`
	Modules int `json:"modules"`
	Shards  int `json:"shards"`
	// CheckMS is the wall time of the whole fleet, its workers run one
	// after another (the sum is the honest fleet cost on a small host).
	CheckMS   float64 `json:"check_ms"`
	MSPerKLOC float64 `json:"ms_per_kloc"`
	// Messages is the diagnostics the fleet's workers reported together.
	Messages int `json:"messages"`
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
	// Compression section, on the E9 corpus shape: record bytes before
	// framing, framed bytes stored, and stored bytes per KLOC of the corpus.
	CompressionRawBytes        int64   `json:"compression_raw_bytes"`
	CompressionCompressedBytes int64   `json:"compression_compressed_bytes"`
	CompressionBytesPerKLOC    float64 `json:"compression_bytes_per_kloc"`
	WarmReplayIdentical        bool    `json:"warm_replay_identical"`
}

// materializeCorpus writes p to a new temp dir under root ("" for the
// system default), returning the dir and the sorted .c paths. The caller
// removes the dir.
func materializeCorpus(root string, p *testgen.Program) (string, []string, error) {
	dir, err := os.MkdirTemp(root, "golclint-bench-")
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

// freshDirs returns a func naming a new directory under root on each call.
// Caches create their directory on first use, and removing root removes
// them all.
func freshDirs(root string) func() string {
	n := 0
	return func() string {
		n++
		return filepath.Join(root, fmt.Sprintf("cache%d", n))
	}
}

// runShardFleet runs n shard workers one after another over paths, all
// sharing cacheDir ("" for none) and the extra flags, and returns how many
// diagnostics the fleet reported.
func runShardFleet(n int, paths []string, cacheDir string, extra ...string) (int, error) {
	messages := 0
	for i := 0; i < n; i++ {
		lines, _, err := shardJSONL(fmt.Sprintf("%d/%d", i, n), paths, cacheDir, extra...)
		if err != nil {
			return 0, err
		}
		messages += len(lines)
	}
	return messages, nil
}

// shardJSONL runs one shard worker with a diag-jsonl stream and returns
// the stream's lines sorted (the canonical merge order) plus stdout. A
// worker exiting above 1 (a usage or I/O failure, not an anomaly) is an
// error.
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

// runDistributed is E22; quick selects the reduced CI smoke corpora.
func runDistributed(quick bool) (benchDoc, error) {
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

	doc := &distributedDoc{Quick: quick, FleetShards: fleetShards,
		ParityShardCounts: []int{1, 2, 4, 8},
		ParityCold:        true, ParityWarm: true, ParityExplain: true, ParityValidate: true,
	}

	root, err := os.MkdirTemp("", "golclint-bench-dist-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// (a) Scaling ladder: a cold 4-shard fleet writing through to a fresh
	// shared remote store, at each corpus size.
	fmt.Printf("%10s %8s %7s %12s %12s %10s\n", "lines", "modules", "shards", "fleet(ms)", "ms/kloc", "messages")
	for i, modules := range moduleSizes {
		p := testgen.Generate(testgen.Config{
			Seed: 42, Modules: modules, FuncsPer: funcsPer, StmtsPer: stmtsPer,
			Annotate: true,
			Bugs:     map[testgen.BugKind]int{testgen.BugLeak: modules / 2},
		})
		dir, paths, err := materializeCorpus(root, p)
		if err != nil {
			return nil, err
		}
		fresh := freshDirs(dir)
		bs, err := server.NewBlob(server.BlobOptions{Dir: fresh()})
		if err != nil {
			return nil, err
		}
		remoteURL, stop, err := listen(bs)
		if err != nil {
			return nil, err
		}
		defer stop()
		var messages int
		fleet := doc.record(fmt.Sprintf("rows[%d].check_ms", i), timeReps(0, 1, func() {
			messages, err = runShardFleet(fleetShards, paths, fresh(), "-remote-cache", remoteURL)
		})[0])
		if err != nil {
			return nil, err
		}
		ms := fleet.medianMS()
		row := distributedRow{
			Lines: p.Lines, Modules: modules, Shards: fleetShards,
			CheckMS: ms, MSPerKLOC: ms / (float64(p.Lines) / 1000), Messages: messages,
		}
		fmt.Printf("%10d %8d %7d %12.1f %12.2f %10d\n",
			row.Lines, row.Modules, row.Shards, row.CheckMS, row.MSPerKLOC, row.Messages)
		doc.Rows = append(doc.Rows, row)

		if i == len(moduleSizes)-1 {
			// (b) Fleet section on the largest corpus. The remote store is
			// now warm (the cold fleet above wrote through). A cold single
			// process with a fresh disk pays full analysis; a fleet of
			// workers with no local state at all — the fresh-machine shape
			// — replays remote GETs instead.
			coldSingle := doc.record("cold_single_ns", timeReps(0, 1, func() {
				_, err = runShardFleet(1, paths, fresh())
			})[0])
			warmFleet := doc.record("cold_fleet_warm_remote_ns", timeReps(0, 1, func() {
				if err == nil {
					_, err = runShardFleet(fleetShards, paths, "", "-remote-cache", remoteURL)
				}
			})[0])
			if err != nil {
				return nil, err
			}
			doc.ColdSingleNS, doc.ColdFleetWarmRemoteNS = coldSingle.MedianNS, warmFleet.MedianNS
			doc.FleetSpeedup = float64(coldSingle.MedianNS) / float64(warmFleet.MedianNS)
			st := bs.StatsSnapshot()
			doc.RemoteGets, doc.RemotePuts = st.Gets, st.Puts
		}
		os.RemoveAll(dir)
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
	pdir, ppaths, err := materializeCorpus(root, pp)
	if err != nil {
		return nil, err
	}
	fresh := freshDirs(pdir)
	for _, mode := range [][]string{nil, {"-explain"}, {"-validate"}} {
		warmDir := fresh()
		single, _, err := shardJSONL("0/1", ppaths, warmDir, mode...)
		if err != nil {
			return nil, err
		}
		want := strings.Join(single, "\n")
		for _, n := range doc.ParityShardCounts {
			for _, pass := range []string{"cold", "warm"} {
				dir := warmDir
				if pass == "cold" {
					dir = fresh()
				}
				var merged []string
				for i := 0; i < n; i++ {
					lines, _, err := shardJSONL(fmt.Sprintf("%d/%d", i, n), ppaths, dir, mode...)
					if err != nil {
						return nil, err
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
	}
	fmt.Printf("parity (n in %v, cold+warm, plain/explain/validate): cold=%v warm=%v explain=%v validate=%v\n",
		doc.ParityShardCounts, doc.ParityCold, doc.ParityWarm, doc.ParityExplain, doc.ParityValidate)

	// (d) Compression on the E9 corpus shape: the framed entries must fit
	// the stored-bytes-per-KLOC bound, and the warm replay from them must
	// be byte-identical.
	cp := testgen.Generate(testgen.Config{
		Seed: 42, Modules: compressionModules, FuncsPer: 10, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: compressionModules / 2},
	})
	cdir, cpaths, err := materializeCorpus(root, cp)
	if err != nil {
		return nil, err
	}
	ccache := filepath.Join(cdir, "cache")
	statsPath := filepath.Join(cdir, "stats.json")
	coldOut, err := runWithStats(cpaths, ccache, statsPath)
	if err != nil {
		return nil, err
	}
	raw, comp, err := readDiskCompression(statsPath)
	if err != nil {
		return nil, err
	}
	doc.CompressionRawBytes, doc.CompressionCompressedBytes = raw, comp
	doc.CompressionBytesPerKLOC = float64(comp) / (float64(cp.Lines) / 1000)
	_, warmOut, err := shardJSONL("0/1", cpaths, ccache)
	if err != nil {
		return nil, err
	}
	doc.WarmReplayIdentical = coldOut == warmOut
	fmt.Printf("compression: %d raw -> %d stored bytes (%.0f bytes/KLOC), warm replay identical: %v\n",
		raw, comp, doc.CompressionBytesPerKLOC, doc.WarmReplayIdentical)

	fmt.Printf("cold single %0.1f ms vs cold fleet over warm remote %0.1f ms: %.1fx (gate: >= 5x)\n",
		float64(doc.ColdSingleNS)/1e6, float64(doc.ColdFleetWarmRemoteNS)/1e6, doc.FleetSpeedup)
	fmt.Println("paper extension: shard workers coordinating only through a shared cache check million-line corpora with flat ms/KLOC")
	return doc, nil
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
// function-granular layer over module-granular warm re-checking, gated on
// the full (non-quick) configuration.
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

// runEditloop is E23; quick selects the reduced CI smoke corpus.
func runEditloop(quick bool) (benchDoc, error) {
	header("E23", "function-granular incremental checking: the editloop")
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

	// The corpus on disk serves the CLI parity section; the cache stores
	// live beside it.
	dir, paths, err := materializeCorpus("", p)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fresh := freshDirs(dir)

	// runPass re-checks all modules against one store; disable selects the
	// module-granular baseline (the -fn-cache=false path).
	runPass := func(store cache.Store, disable bool, lib *library.Library,
		mods map[string]map[string]string, inc cpp.Includer) (*obs.Metrics, int) {
		m := obs.New()
		results := library.CheckModules(mods, lib, core.Options{
			Includes: inc, Cache: store, Metrics: m, Jobs: 1, DisableFnCache: disable,
		})
		messages := 0
		for _, res := range results {
			messages += len(res.Diags)
		}
		return m, messages
	}

	inc := cpp.MapIncluder(p.Headers)
	doc := &editloopDoc{Quick: quick, SpeedupGate: editloopSpeedupGate, Reps: reps,
		Lines: p.Lines, Modules: modules, FuncsPer: funcsPer}
	fnStore, err := cache.Open(fresh())
	if err != nil {
		return nil, err
	}
	coldPass := doc.record("cold_ms", timeReps(0, 1, func() { _, doc.Messages = runPass(fnStore, false, lib, mods, inc) })[0])
	warmPass := doc.record("warm_ms", timeReps(1, spreadReps, func() { runPass(fnStore, false, lib, mods, inc) })[0])
	modStore, err := cache.Open(fresh())
	if err != nil {
		return nil, err
	}
	runPass(modStore, true, lib, mods, inc) // warm the baseline store
	doc.ColdMS, doc.WarmMS = coldPass.medianMS(), warmPass.medianMS()

	// Distinct one-function edits, each a genuine dirty re-check against
	// the original-warm stores, fastest of reps on both sides; each side's
	// warm-up takes the first edit. The sides run one after the other: a
	// collection between runs would empty the cache's inflater pool. Edit r changes function r%funcsPer of module
	// r/funcsPer.
	edits := make([]map[string]map[string]string, reps+1)
	for r := range edits {
		mod := r / funcsPer % modules
		file := fmt.Sprintf("mod%d.c", mod)
		q, err := p.EditBody(file, fmt.Sprintf("mod%d_calc%d", mod, r%funcsPer))
		if err != nil {
			return nil, err
		}
		edits[r] = maps.Clone(mods)
		edits[r][file] = map[string]string{file: q.Files[file]}
	}
	var first *obs.Metrics
	dirty := func(store cache.Store, disable bool) func() {
		r := 0
		return func() {
			m, _ := runPass(store, disable, lib, edits[r], inc)
			if !disable {
				if first == nil {
					first = m
				}
				if got := m.Get(obs.FuncCacheMisses); got != 1 {
					fmt.Printf("WARNING: edit %d re-checked %d functions, want 1\n", r, got)
				}
			}
			r++
		}
	}
	doc.DirtyFnMS = float64(doc.record("dirty_fn_ms", timeReps(1, reps, dirty(fnStore, false))[0]).MinNS) / 1e6
	doc.DirtyModMS = float64(doc.record("dirty_mod_ms", timeReps(1, reps, dirty(modStore, true))[0]).MinNS) / 1e6
	doc.SpeedupDirty = doc.DirtyModMS / doc.DirtyFnMS
	doc.FuncCacheHits = first.Get(obs.FuncCacheHits)
	doc.FuncCacheMisses = first.Get(obs.FuncCacheMisses)
	doc.FuncReplayedDiags = first.Get(obs.FuncReplayedDiags)

	// Interface-annotation edit: conservative, module-wide re-check.
	q, err := p.EditAnnot("mod0")
	if err != nil {
		return nil, err
	}
	qhdr := core.CheckSources(q.Headers, core.Options{})
	am, _ := runPass(fnStore, false, library.Build(qhdr.Program), mods, cpp.MapIncluder(q.Headers))
	doc.AnnotEditFuncMisses = am.Get(obs.FuncCacheMisses)

	// CLI transcript parity, warm dirty vs cold, on the edited corpus.
	doc.ParityJobs = []int{1, 4, 8}
	doc.ParityPlain, doc.ParityExplain, doc.ParityValidate = true, true, true
	for _, mode := range []string{"plain", "explain", "validate"} {
		warmDir := fresh()
		var modeArgs []string
		if mode != "plain" {
			modeArgs = []string{"-" + mode}
		}
		prime := append(append([]string{"-cache-dir", warmDir}, modeArgs...), paths...)
		cli.Run(prime, io.Discard, io.Discard)
		for ji, jobs := range doc.ParityJobs {
			q, err := p.EditBody("mod0.c", fmt.Sprintf("mod0_calc%d", ji%funcsPer))
			if err != nil {
				return nil, err
			}
			if err := os.WriteFile(filepath.Join(dir, "mod0.c"), []byte(q.Files["mod0.c"]), 0o644); err != nil {
				return nil, err
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
		if err := os.WriteFile(filepath.Join(dir, "mod0.c"), []byte(p.Files["mod0.c"]), 0o644); err != nil {
			return nil, err
		}
	}

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
	return doc, nil
}
