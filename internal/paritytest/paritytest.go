// Package paritytest checks golclint's byte-identity contract as one
// matrix. A cell is one configuration: cache layer (which fixes the
// transport: the Resident cache is the server, every other layer the CLI),
// -jobs, shard count, output mode, argument order and -fn-cache. Every run of
// every cell must report what an uncached -jobs 1 CLI run over the same
// sources reports: exit code, stdout, stderr and the sorted -diag-jsonl
// stream (for the server, the structured diagnostics). Golden-corpus
// references must also equal the committed transcripts. Inputs are the
// golden corpus, testgen seeds and edit scripts (testgen's, and header-only
// ones). Check also holds each cache layer to its own counters. The inputs
// of one Check or Corpus call share their stores: one warm -cache-dir, one
// server per -jobs value and one blob server, so an entry or memo that
// leaks from one input into another's output fails the cell that reads it.
//
// The package is imported only by tests: the rows live beside the code they
// hold, in goldentest (cached and edited golden runs), server (resident
// runs), cli (shard fleets) and this package's own tests (generated
// programs, edit scripts, remote stores).
package paritytest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"golclint/internal/cli"
	"golclint/internal/obs"
	"golclint/internal/server"
	"golclint/internal/testgen"
)

// Cache is the cache layer a cell runs against.
type Cache int

func (c Cache) String() string {
	return [...]string{"none", "disk-cold", "disk-warm", "disk-edit", "resident", "remote"}[c]
}

const (
	// NoCache: one run without -cache-dir. Every layer but Resident runs
	// cli.ParseConfig and cli.RunConfig in process.
	NoCache Cache = iota
	// DiskCold: one run against a -cache-dir holding none of its entries.
	// The first cold cell of an input and kind (see warmKey) fills the
	// shared warm directory; later ones get a fresh one.
	DiskCold
	// DiskWarm: one run against the shared warm directory, which must
	// replay every module whatever -jobs and argument order stored it. A
	// kind no earlier cell of the input stored is first stored by one more
	// run.
	DiskWarm
	// DiskEdit: one run per state of the input's edit script, oldest
	// first, against one fresh -cache-dir.
	DiskEdit
	// Resident: a POST /check to the shared in-process server.Server for
	// the cell's -jobs, which must be a cache hit. When no earlier cell of the input
	// posted the same mode there, it follows a first request that must not
	// be.
	Resident
	// Remote: two runs against one fresh -cache-dir over the shared
	// in-process blob server. The second run must not read the blob
	// server.
	Remote
)

// Mode is the output mode.
type Mode int

const (
	Plain Mode = iota
	Explain
	Validate
)

func (m Mode) String() string { return [...]string{"plain", "explain", "validate"}[m] }

// Config is one cell. The zero Config is an uncached CLI run at the
// default -jobs.
type Config struct {
	Cache Cache
	Jobs  int // -jobs; 0 passes no flag
	// Shards > 0 runs that many -shard i/n workers and merges their
	// streams; the reference is then the -shard 0/1 run, which checks each
	// file as its own module.
	Shards    int
	Mode      Mode
	Reverse   bool // positional arguments in reverse order
	NoFnCache bool // -fn-cache=false
	// Lib checks against the interface library built from the input's
	// headers. A CLI run passes -lib, after a -dump-lib run over the
	// headers; a Resident cell posts one module per file (a Modules
	// request, with the headers), and its reference is the -shard 0/1
	// -lib run.
	Lib bool
}

// warmKey groups the cells whose runs store the same entries: -jobs and
// argument order must not change a key; mode, -fn-cache and the
// per-module shard split do.
func (c Config) warmKey() string {
	return fmt.Sprintf("%s/%v/%v/%v", c.Mode, c.NoFnCache, c.Shards > 0, c.Lib)
}

// Source is one state of an input: module sources (the positional
// arguments, by base name) and the include files written beside them.
type Source struct {
	Files, Headers map[string]string
	// Dirs are subdirectories of the sources' directory, each with the
	// include files written into it, and I names those passed as -I, in
	// flag order. A server request gets the headers the CLI resolves:
	// Headers first, then each of I in order.
	Dirs map[string]map[string]string
	I    []string
}

// resolvedHeaders is every header name the CLI can resolve in src, with the
// bytes it resolves to.
func (src Source) resolvedHeaders() map[string]string {
	hdrs := map[string]string{}
	for i := len(src.I) - 1; i >= 0; i-- {
		for name, text := range src.Dirs[src.I[i]] {
			hdrs[name] = text
		}
	}
	for name, text := range src.Headers {
		hdrs[name] = text
	}
	return hdrs
}

// Input is what the matrix checks.
type Input struct {
	Name string
	// Steps are the states of an edit script, oldest first; a plain input
	// has one. DiskEdit cells check every step, other cells the last.
	Steps []Source
	Flags string // -flags
	// Golden maps a mode to the committed transcript of the last step.
	Golden map[Mode]string
	// Dirty maps an edit-script step to the function-cache misses its
	// DiskEdit run must show: the functions the edit made dirty.
	Dirty map[int]int64
}

// Outcome is one run of one cell.
type Outcome struct {
	Step   int // the index of the step checked
	Exit   int
	Stdout string
	Stderr string
	Diags  []string // the sorted -diag-jsonl stream (CLI only)
	Wire   string   // -stats-json wire form, a JSON line per diagnostic
	// Counters are the run's counters; CacheHit is the server's verdict.
	Counters map[string]int64
	CacheHit bool
}

// stores are the caches the inputs of one Check or Corpus call share.
type stores struct {
	mu       sync.Mutex
	dir      string
	warmDir  string          // the DiskWarm cells' cache
	stored   map[string]bool // input/warmKey pairs stored in warmDir
	posted   map[string]bool // -jobs/input/mode triples posted to servers
	servers  map[int]*server.Server
	blob     *server.BlobServer
	blobURL  string
	remoteMu sync.Mutex // held by a Remote cell, so the blob's counters are its own
	reported bool       // some reference reported a diagnostic
}

// newStores returns empty stores for t and its subtests. Once they are
// done, t fails unless some reference reported a diagnostic.
func newStores(t *testing.T) *stores {
	s := &stores{dir: t.TempDir(), stored: map[string]bool{}, posted: map[string]bool{}, servers: map[int]*server.Server{}}
	s.warmDir = s.scratch(t)
	blob, err := server.NewBlob(server.BlobOptions{Dir: s.scratch(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(blob.Handler())
	t.Cleanup(func() {
		ts.Close()
		if !s.reported {
			t.Error("no reference reported a diagnostic; the rows are vacuous")
		}
	})
	s.blob, s.blobURL = blob, ts.URL
	return s
}

// scratch returns a fresh directory.
func (s *stores) scratch(t *testing.T) string {
	d, err := os.MkdirTemp(s.dir, "")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// mark records key in set and reports whether it was there already.
func (s *stores) mark(set map[string]bool, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := set[key]
	set[key] = true
	return seen
}

// server returns the shared server for -jobs jobs.
func (s *stores) server(t *testing.T, jobs int) *server.Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.servers[jobs] == nil {
		srv, err := server.New(server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s.servers[jobs] = srv
	}
	return s.servers[jobs]
}

// Check runs every configuration over in and compares each run with the
// reference of the state it checked.
func Check(t *testing.T, in *Input, configs []Config) {
	t.Helper()
	newStores(t).check(t, in, configs)
}

// Corpus checks each input over configs(in) in a parallel subtest named
// after it, skipping the inputs configs gives no cell. The inputs share
// their stores.
func Corpus(t *testing.T, ins []*Input, configs func(*Input) []Config) {
	t.Helper()
	s := newStores(t)
	for _, in := range ins {
		if cs := configs(in); len(cs) > 0 {
			t.Run(in.Name, func(t *testing.T) {
				t.Parallel()
				s.check(t, in, cs)
			})
		}
	}
}

// check writes in's states to disk and checks every cell.
func (s *stores) check(t *testing.T, in *Input, configs []Config) {
	m := &matrix{t: t, s: s, in: in, libs: map[int]string{}, refs: map[string]*Outcome{}}
	write := func(dir string, files map[string]string) {
		for name, text := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, src := range in.Steps {
		dir := s.scratch(t)
		write(dir, src.Files)
		write(dir, src.Headers)
		for sub, hdrs := range src.Dirs {
			if err := os.Mkdir(filepath.Join(dir, sub), 0o755); err != nil {
				t.Fatal(err)
			}
			write(filepath.Join(dir, sub), hdrs)
		}
		m.dirs = append(m.dirs, dir)
	}
	for _, c := range configs {
		for i, o := range m.cell(c) {
			name := fmt.Sprintf("%s: %+v run %d", in.Name, c, i+1)
			m.compare(name, c, o)
			misses, hits := o.Counters["func_cache_misses"], o.Counters["func_cache_hits"]
			if c.NoFnCache && misses+hits != 0 {
				t.Errorf("%s: -fn-cache=false touched the function layer %d times", name, misses+hits)
			}
			if want, ok := in.Dirty[o.Step]; ok && c.Cache == DiskEdit && !c.NoFnCache && misses != want {
				t.Errorf("%s: step %d: func_cache_misses = %d, want %d", name, o.Step, misses, want)
			}
		}
	}
}

// matrix is one input's check against the shared stores.
type matrix struct {
	t    *testing.T
	s    *stores
	in   *Input
	dirs []string // each state's source directory, by step
	libs map[int]string
	refs map[string]*Outcome
}

// cell runs one configuration and checks its cache layer's promises.
func (m *matrix) cell(c Config) []*Outcome {
	t, name, final := m.t, fmt.Sprintf("%s: %+v", m.in.Name, c), len(m.in.Steps)-1
	if c.Cache == Resident && (c.Shards > 0 || c.Reverse || c.NoFnCache) || final < 0 ||
		c.Cache == DiskEdit && final == 0 || c.Cache == NoCache && c.NoFnCache {
		t.Fatalf("%s: invalid configuration", name)
	}
	switch c.Cache {
	case NoCache:
		return []*Outcome{m.cli(c, final, "")}
	case DiskCold:
		dir := m.s.warmDir
		if m.s.mark(m.s.stored, m.in.Name+"/"+c.warmKey()) {
			dir = m.s.scratch(t)
		}
		o := m.cli(c, final, dir)
		if n := o.Counters["cache_hits"]; n != 0 {
			t.Errorf("%s: %d cache hits in a directory holding none of its entries", name, n)
		}
		return []*Outcome{o}
	case DiskWarm:
		var runs []*Outcome
		if !m.s.mark(m.s.stored, m.in.Name+"/"+c.warmKey()) {
			runs = append(runs, m.cli(c, final, m.s.warmDir))
		}
		o := m.cli(c, final, m.s.warmDir)
		if o.Counters["cache_misses"] != 0 || o.Counters["cache_hits"] == 0 {
			t.Errorf("%s: cache_hits %d, cache_misses %d: a warm run must replay every module",
				name, o.Counters["cache_hits"], o.Counters["cache_misses"])
		}
		return append(runs, o)
	case DiskEdit:
		dir := m.s.scratch(t)
		var runs []*Outcome
		for step := 0; step <= final; step++ {
			runs = append(runs, m.cli(c, step, dir))
		}
		return runs
	case Resident:
		srv := m.s.server(t, c.Jobs)
		var runs []*Outcome
		if !m.s.mark(m.s.posted, fmt.Sprint(c.Jobs, "/", m.in.Name, "/", c.Mode)) {
			runs = append(runs, m.post(srv, c))
			if runs[0].CacheHit {
				t.Errorf("%s: the first request was a cache hit", name)
			}
		}
		o := m.post(srv, c)
		if !o.CacheHit {
			t.Errorf("%s: a repeated request was not a cache hit", name)
		}
		return append(runs, o)
	default: // Remote
		m.s.remoteMu.Lock()
		defer m.s.remoteMu.Unlock()
		dir := m.s.scratch(t)
		first := m.cli(c, final, dir, "-remote-cache", m.s.blobURL)
		gets := m.s.blob.StatsSnapshot().Gets
		second := m.cli(c, final, dir, "-remote-cache", m.s.blobURL)
		if n := m.s.blob.StatsSnapshot().Gets - gets; n != 0 {
			t.Errorf("%s: the second run read the blob server %d times", name, n)
		}
		return []*Outcome{first, second}
	}
}

// cli runs c over the input's state at step, against cacheDir when set.
func (m *matrix) cli(c Config, step int, cacheDir string, extra ...string) *Outcome {
	t := m.t
	jsonl := filepath.Join(m.dirs[step], "diags.jsonl")
	args := append([]string{"-diag-jsonl", jsonl}, extra...)
	add := func(on bool, a ...string) {
		if on {
			args = append(args, a...)
		}
	}
	add(c.Jobs != 0, "-jobs", strconv.Itoa(c.Jobs))
	add(c.Mode != Plain, "-"+c.Mode.String())
	add(m.in.Flags != "", "-flags", m.in.Flags)
	add(c.NoFnCache, "-fn-cache=false")
	add(cacheDir != "", "-cache-dir", cacheDir)
	if c.Lib {
		args = append(args, "-lib", m.lib(step))
	}
	for _, sub := range m.in.Steps[step].I {
		args = append(args, "-I", filepath.Join(m.dirs[step], sub))
	}
	var paths []string
	for name := range m.in.Steps[step].Files {
		paths = append(paths, filepath.Join(m.dirs[step], name))
	}
	sort.Strings(paths)
	if c.Reverse {
		slices.Reverse(paths)
	}

	o := &Outcome{Step: step, Counters: map[string]int64{}}
	var stderr strings.Builder
	for i := 0; i < max(c.Shards, 1); i++ {
		wargs := slices.Clip(args)
		if c.Shards > 0 {
			wargs = append(wargs, "-shard", fmt.Sprintf("%d/%d", i, c.Shards))
		}
		var wout, werr bytes.Buffer
		cfg, err := cli.ParseConfig(append(wargs, paths...), &werr)
		if err != nil {
			t.Fatalf("%s: %+v: %v", m.in.Name, c, err)
		}
		if cacheDir != "" {
			cfg.Metrics = obs.New() // -stats-json's counters, without its cache scan
		}
		code := cli.RunConfig(cfg, &wout, &werr)
		if code > 1 {
			t.Fatalf("%s: %+v: exit %d:\n%s", m.in.Name, c, code, werr.String())
		}
		o.Exit = max(o.Exit, code)
		stderr.Write(werr.Bytes())
		for k, v := range cfg.Metrics.Snapshot().Counters {
			o.Counters[k] += v
		}
		b, err := os.ReadFile(jsonl)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		if s := strings.TrimSuffix(string(b), "\n"); s != "" {
			lines = strings.Split(s, "\n")
		}
		// A report is its records' texts in sorted order: what lets shard
		// streams merge into the whole report.
		texts, _ := m.records(lines)
		m.diff(fmt.Sprintf("%s: %+v: worker %d", m.in.Name, c, i), "stdout against its -diag-jsonl texts", wout.String(), texts)
		o.Diags = append(o.Diags, lines...)
	}
	o.Stdout, o.Wire = m.records(o.Diags)
	o.Stderr = stderr.String()
	if c.Shards > 0 {
		lines := strings.SplitAfter(o.Stderr, "\n")
		sort.Strings(lines) // workers' stderr interleave by shard
		o.Stderr = strings.Join(lines, "")
	}
	return o
}

// lib returns the interface library of the state at step, written by a
// -dump-lib run over its headers.
func (m *matrix) lib(step int) string {
	if path, ok := m.libs[step]; ok {
		return path
	}
	path := filepath.Join(m.dirs[step], "iface.lib")
	args := []string{"-dump-lib", path}
	for _, name := range sortedKeys(m.in.Steps[step].Headers) {
		args = append(args, filepath.Join(m.dirs[step], name))
	}
	var out, errb bytes.Buffer
	if code := cli.Run(args, &out, &errb); code > 1 {
		m.t.Fatalf("%s: -dump-lib over the headers: exit %d:\n%s", m.in.Name, code, errb.String())
	}
	m.libs[step] = path
	return path
}

func sortedKeys(files map[string]string) []string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// records sorts -diag-jsonl lines in place and returns their texts, which
// are the merged report, and their wire form.
func (m *matrix) records(lines []string) (string, string) {
	sort.Strings(lines)
	var texts, wire strings.Builder
	for _, ln := range lines {
		var rec cli.DiagRecord
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			m.t.Fatalf("%s: bad -diag-jsonl record %q: %v", m.in.Name, ln, err)
		}
		texts.WriteString(rec.Text)
		writeWire(&wire, cli.StatsDiag{Pos: rec.Pos, Code: rec.Code, Msg: rec.Msg, Ref: rec.Ref,
			Witness: rec.Witness, Validation: rec.Validation, ValidationDetail: rec.ValidationDetail})
	}
	return texts.String(), wire.String()
}

func writeWire(b *strings.Builder, d cli.StatsDiag) {
	j, _ := json.Marshal(d) // a struct of strings always marshals
	b.Write(append(j, '\n'))
}

// post sends c's request for the input's last step to srv.
func (m *matrix) post(srv *server.Server, c Config) *Outcome {
	t := m.t
	src := m.in.Steps[len(m.in.Steps)-1]
	req := &server.CheckRequest{Files: src.Files, Headers: src.resolvedHeaders(), Flags: m.in.Flags,
		Jobs: c.Jobs, Explain: c.Mode == Explain, Validate: c.Mode == Validate}
	if c.Lib {
		req.Files, req.Modules = nil, map[string]map[string]string{}
		for name, text := range src.Files {
			req.Modules[name] = map[string]string{name: text}
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/check", bytes.NewReader(body)))
	var cr server.CheckResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("%s: %+v: POST /check = %d (%v): %s", m.in.Name, c, rec.Code, err, rec.Body.Bytes())
	}
	var wire strings.Builder
	for _, d := range cr.Diagnostics {
		if c.Mode == Explain && len(d.Witness) == 0 || c.Mode == Validate && d.Validation == "" {
			t.Errorf("%s: %+v: diagnostic %s lacks its witness or validation tag", m.in.Name, c, d.Pos)
		}
		writeWire(&wire, d)
	}
	return &Outcome{Step: len(m.in.Steps) - 1, Exit: cr.Exit, Stdout: cr.Stdout, Stderr: cr.Stderr,
		Wire: wire.String(), Counters: cr.Counters, CacheHit: cr.CacheHit}
}

// references holds every reference run so far by what it depends on:
// sources, flags, mode, shard split and library.
var references sync.Map

// reference is the uncached -jobs 1 CLI run over the state at step,
// -shard 0/1 when sharded, with -lib when lib, computed once and held to
// the golden transcript.
func (m *matrix) reference(step int, mode Mode, sharded, lib bool) *Outcome {
	key := fmt.Sprint(step, mode, sharded, lib)
	if o := m.refs[key]; o != nil {
		return o
	}
	c := Config{Jobs: 1, Mode: mode, Shards: map[bool]int{true: 1}[sharded], Lib: lib}
	src := m.in.Steps[step]
	rkey := fmt.Sprint(src.Files, src.Headers, src.Dirs, src.I, m.in.Flags, mode, sharded, lib)
	v, ok := references.Load(rkey)
	if !ok {
		v, _ = references.LoadOrStore(rkey, m.cli(c, step, ""))
	}
	o := v.(*Outcome)
	name := fmt.Sprintf("%s: reference %+v of state %d", m.in.Name, c, step)
	if golden, ok := m.in.Golden[mode]; ok && !sharded && !lib && step == len(m.in.Steps)-1 {
		want, err := os.ReadFile(golden)
		if err != nil {
			m.t.Fatalf("%s: missing golden file (go test ./internal/goldentest -update): %v", name, err)
		}
		got := fmt.Sprintf("exit %d\n-- stdout --\n%s-- stderr --\n%s", o.Exit, o.Stdout, o.Stderr)
		m.diff(name, "transcript against "+golden, got, string(want))
	}
	if len(o.Diags) > 0 {
		m.s.mu.Lock()
		m.s.reported = true
		m.s.mu.Unlock()
	}
	m.refs[key] = o
	return o
}

// compare reports each way a run differs from its reference.
func (m *matrix) compare(name string, c Config, o *Outcome) {
	ref := m.reference(o.Step, c.Mode, c.Shards > 0 || c.Lib && c.Cache == Resident, c.Lib)
	if o.Exit != ref.Exit {
		m.t.Errorf("%s: exit %d, reference %d", name, o.Exit, ref.Exit)
	}
	m.diff(name, "stdout", o.Stdout, ref.Stdout)
	m.diff(name, "stderr", o.Stderr, ref.Stderr)
	m.diff(name, "diagnostics", o.Wire, ref.Wire)
	if c.Cache != Resident {
		m.diff(name, "sorted -diag-jsonl", strings.Join(o.Diags, "\n"), strings.Join(ref.Diags, "\n"))
	}
}

// diff reports the first line where got and want differ, if any.
func (m *matrix) diff(name, what, got, want string) {
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	g, w = append(g, "(end)"), append(w, "(end)")
	m.t.Errorf("%s: %s differs at line %d:\n  got:  %q\n  want: %q", name, what, i+1, g[i], w[i])
}

// CorpusDir is the golden corpus, relative to any internal/* package.
const CorpusDir = "../../testdata/corpus"

// GoldenInputs returns one input per CorpusDir/*.c file, pinned to its
// .golden transcript and, where they exist, its .explain.golden and
// .validate.golden ones. A first-line directive of the form
//
//	/*golden:flags -allimponly +gcmode*/
//
// sets the file's -flags.
func GoldenInputs(t *testing.T) []*Input {
	t.Helper()
	srcs, err := filepath.Glob(filepath.Join(CorpusDir, "*.c"))
	if err != nil || len(srcs) < 15 {
		t.Fatalf("corpus has %d files (%v), want >= 15", len(srcs), err)
	}
	var ins []*Input
	for _, src := range srcs {
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		base := strings.TrimSuffix(src, ".c")
		in := &Input{Name: filepath.Base(base), Steps: []Source{{Files: map[string]string{filepath.Base(src): string(b)}}},
			Golden: map[Mode]string{Plain: base + ".golden"}}
		first, _, _ := strings.Cut(string(b), "\n")
		if rest, ok := strings.CutPrefix(first, "/*golden:flags "); ok {
			toggles, ok := strings.CutSuffix(rest, "*/")
			if !ok {
				t.Fatalf("%s: malformed golden:flags directive %q", src, first)
			}
			in.Flags = strings.TrimSpace(toggles)
		}
		for mode, suffix := range map[Mode]string{Explain: ".explain.golden", Validate: ".validate.golden"} {
			if _, err := os.Stat(base + suffix); err == nil {
				in.Golden[mode] = base + suffix
			}
		}
		ins = append(ins, in)
	}
	return ins
}

// Generated is the source of a generated program.
func Generated(p *testgen.Program) Source { return Source{Files: p.Files, Headers: p.Headers} }

// AllBugs seeds n bugs of every kind.
func AllBugs(n int) map[testgen.BugKind]int {
	bugs := map[testgen.BugKind]int{}
	for _, k := range testgen.AllBugKinds() {
		bugs[k] = n
	}
	return bugs
}
