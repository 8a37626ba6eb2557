package cli

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestParseConfigFields(t *testing.T) {
	var errb bytes.Buffer
	cfg, err := ParseConfig([]string{
		"-flags", "+null -def", "-jobs", "4", "-max", "7", "-explain",
		"-cache-dir", "/tmp/cc", "-I", "inc1", "-I", "inc2",
		"a.c", "b.c",
	}, &errb)
	if err != nil {
		t.Fatalf("ParseConfig: %v (stderr %q)", err, errb.String())
	}
	if got := cfg.Paths; len(got) != 2 || got[0] != "a.c" || got[1] != "b.c" {
		t.Errorf("Paths = %v", got)
	}
	if len(cfg.IncDirs) != 2 || cfg.IncDirs[0] != "inc1" {
		t.Errorf("IncDirs = %v", cfg.IncDirs)
	}
	if cfg.Jobs != 4 || !cfg.Explain || cfg.Validate || cfg.CacheDir != "/tmp/cc" {
		t.Errorf("cfg = %+v", cfg)
	}
	m := cfg.Flags.Map()
	if !m["null"] || m["def"] {
		t.Errorf("flag toggles not applied: %v", m)
	}
	if cfg.Flags.MaxMessages != 7 {
		t.Errorf("MaxMessages = %d", cfg.Flags.MaxMessages)
	}
	if errb.Len() != 0 {
		t.Errorf("stderr on success: %q", errb.String())
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error text
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}, "flag provided but not defined"},
		{"no inputs", []string{}, "no input files"},
		{"no inputs with flags", []string{"-stats"}, "no input files"},
		{"bad toggle", []string{"-flags", "+nosuchtoggle", "a.c"}, "golclint:"},
		{"malformed toggle", []string{"-flags", "null", "a.c"}, "golclint:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errb bytes.Buffer
			cfg, err := ParseConfig(tc.args, &errb)
			if err == nil {
				t.Fatalf("ParseConfig(%v) succeeded: %+v", tc.args, cfg)
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Errorf("stderr = %q, want substring %q", errb.String(), tc.want)
			}
		})
	}
}

// modeFlags are the flags that select what a run does or writes.
var modeFlags = [][]string{
	{"-shard", "0/2"},
	{"-serve", "127.0.0.1:0"},
	{"-cache-serve", "127.0.0.1:0"},
	{"-cache-dir", "d"},
	{"-remote-cache", "127.0.0.1:1"},
	{"-cache-max-bytes", "4096"},
	{"-lib", "x.lib"},
	{"-dump-lib", "x.lib"},
	{"-cfg", "f"},
	{"-explain"},
	{"-validate"},
	{"-trace", "t.jsonl"},
	{"-trace-out", "t.json"},
	{"-hot", "3"},
	{"-diag-jsonl", "d.jsonl"},
	{"-stats-json", "s.json"},
	{"-fn-cache=false"},
}

// otherFlags are the flags that tune a run without selecting a mode.
var otherFlags = []string{"-I", "-cpuprofile", "-flags", "-jobs", "-max", "-memprofile", "-stats"}

// otherValues are the values the test passes to the otherFlags that take
// one.
var otherValues = map[string]string{"-I": "inc", "-cpuprofile": "c.prof", "-flags": "+null", "-jobs": "2", "-max": "5", "-memprofile": "m.prof"}

// wholeRun are the mode flags Session.Check sets up once before the first
// module or writes once after the last, rather than once per module.
// -shard rejects each of them except -diag-jsonl and -stats-json, the two
// files every shard worker writes for its own share of a fleet run.
var wholeRun = []string{"-dump-lib", "-cfg", "-trace", "-trace-out", "-hot", "-diag-jsonl", "-stats-json"}

// flagName is the flag an argument vector of modeFlags sets.
func flagName(args []string) string {
	name, _, _ := strings.Cut(args[0], "=")
	return name
}

// TestParseConfigConflicts classifies every mode flag alone and every pair
// of them: rejected with one fixed message (exit 2) or accepted. A flag
// ParseConfig defines that is in neither list fails the test until it is
// classified here.
func TestParseConfigConflicts(t *testing.T) {
	var usage bytes.Buffer
	ParseConfig([]string{"-h"}, &usage)
	known := map[string]bool{}
	for _, f := range otherFlags {
		known[f] = true
	}
	for _, f := range modeFlags {
		known[flagName(f)] = true
	}
	for _, ln := range strings.Split(usage.String(), "\n") {
		if rest, ok := strings.CutPrefix(ln, "  -"); ok {
			if name := "-" + strings.Fields(rest)[0]; !known[name] {
				t.Errorf("flag %s is unclassified: add it to modeFlags or otherFlags", name)
			}
		}
	}

	// rejected maps a flag or an unordered pair ("a b", in modeFlags order)
	// to its message; every other flag and pair is accepted.
	const (
		serveNeedsDir = "-cache-serve requires -cache-dir"
		maxNeedsDir   = "-cache-max-bytes requires -cache-dir"
	)
	rejected := map[string]string{
		"-cache-serve":     serveNeedsDir,
		"-cache-max-bytes": maxNeedsDir,

		"-shard -cache-serve":           serveNeedsDir,
		"-serve -cache-serve":           serveNeedsDir,
		"-cache-serve -remote-cache":    serveNeedsDir,
		"-cache-serve -cache-max-bytes": serveNeedsDir,
		"-cache-serve -lib":             serveNeedsDir,
		"-cache-serve -dump-lib":        serveNeedsDir,
		"-cache-serve -cfg":             serveNeedsDir,
		"-cache-serve -explain":         serveNeedsDir,
		"-cache-serve -validate":        serveNeedsDir,
		"-cache-serve -trace":           serveNeedsDir,
		"-cache-serve -trace-out":       serveNeedsDir,
		"-cache-serve -hot":             serveNeedsDir,
		"-cache-serve -diag-jsonl":      serveNeedsDir,
		"-cache-serve -stats-json":      serveNeedsDir,
		"-cache-serve -fn-cache":        serveNeedsDir,

		"-serve -cache-max-bytes": "-cache-max-bytes is not supported with -serve",
		"-shard -serve":           "-shard is not supported with -serve",
		"-serve -remote-cache":    "-remote-cache is not supported with -serve",
		"-serve -lib":             "-lib is not supported with -serve",
		"-serve -dump-lib":        "-dump-lib is not supported with -serve",
		"-serve -cfg":             "-cfg is not supported with -serve",
		"-serve -explain":         "-explain is not supported with -serve",
		"-serve -validate":        "-validate is not supported with -serve",
		"-serve -trace":           "-trace is not supported with -serve",
		"-serve -trace-out":       "-trace-out is not supported with -serve",
		"-serve -hot":             "-hot is not supported with -serve",
		"-serve -diag-jsonl":      "-diag-jsonl is not supported with -serve",
		"-serve -stats-json":      "-stats-json is not supported with -serve",
		"-serve -fn-cache":        "-fn-cache is not supported with -serve",

		"-serve -I":          "-I is not supported with -serve",
		"-serve -cpuprofile": "-cpuprofile is not supported with -serve",
		"-serve -flags":      "-flags is not supported with -serve",
		"-serve -jobs":       "-jobs is not supported with -serve",
		"-serve -max":        "-max is not supported with -serve",
		"-serve -memprofile": "-memprofile is not supported with -serve",
		"-serve -stats":      "-stats is not supported with -serve",

		"-cache-serve -I":          "-I is not supported with -cache-serve",
		"-cache-serve -cpuprofile": "-cpuprofile is not supported with -cache-serve",
		"-cache-serve -flags":      "-flags is not supported with -cache-serve",
		"-cache-serve -jobs":       "-jobs is not supported with -cache-serve",
		"-cache-serve -max":        "-max is not supported with -cache-serve",
		"-cache-serve -memprofile": "-memprofile is not supported with -cache-serve",
		"-cache-serve -stats":      "-stats is not supported with -cache-serve",

		"-shard -cache-max-bytes":        maxNeedsDir,
		"-remote-cache -cache-max-bytes": maxNeedsDir,
		"-cache-max-bytes -lib":          maxNeedsDir,
		"-cache-max-bytes -dump-lib":     maxNeedsDir,
		"-cache-max-bytes -cfg":          maxNeedsDir,
		"-cache-max-bytes -explain":      maxNeedsDir,
		"-cache-max-bytes -validate":     maxNeedsDir,
		"-cache-max-bytes -trace":        maxNeedsDir,
		"-cache-max-bytes -trace-out":    maxNeedsDir,
		"-cache-max-bytes -hot":          maxNeedsDir,
		"-cache-max-bytes -diag-jsonl":   maxNeedsDir,
		"-cache-max-bytes -stats-json":   maxNeedsDir,
		"-cache-max-bytes -fn-cache":     maxNeedsDir,

		"-shard -dump-lib":  "-dump-lib is not supported with -shard",
		"-shard -cfg":       "-cfg is not supported with -shard",
		"-shard -trace":     "-trace is not supported with -shard",
		"-shard -trace-out": "-trace-out is not supported with -shard",
		"-shard -hot":       "-hot is not supported with -shard",
	}

	check := func(key string, args []string) {
		if !slices.Contains(args, "-serve") && !slices.Contains(args, "-cache-serve") {
			args = append(args, "a.c") // the server modes take no inputs
		}
		want, bad := rejected[key]
		if !bad {
			if _, err := ParseConfig(args, io.Discard); err != nil {
				t.Errorf("%q rejected: %v", args, err)
			}
			return
		}
		var out, errb bytes.Buffer
		if code := Run(args, &out, &errb); code != 2 || errb.String() != "golclint: "+want+"\n" {
			t.Errorf("%q: exit %d, stderr %q; want exit 2, %q", args, code, errb.String(), want)
		}
	}
	for i, a := range modeFlags {
		check(flagName(a), slices.Clone(a))
		for _, b := range modeFlags[i+1:] {
			key := flagName(a) + " " + flagName(b)
			check(key, append(slices.Clone(a), b...))
			check(key, append(slices.Clone(b), a...))
		}
	}
	// Each other flag alone, and beside each server mode (-cache-serve
	// over a -cache-dir, which it requires).
	for _, f := range otherFlags {
		args := []string{f}
		if v, ok := otherValues[f]; ok {
			args = append(args, v)
		}
		check(f, slices.Clone(args))
		check("-serve "+f, append([]string{"-serve", "127.0.0.1:0"}, args...))
		check("-cache-serve "+f, append([]string{"-cache-serve", "127.0.0.1:0", "-cache-dir", "d"}, args...))
	}
	// -shard rejects exactly the whole-run flags no shard worker writes
	// for its own share.
	for _, f := range modeFlags {
		name := flagName(f)
		perWorker := name == "-diag-jsonl" || name == "-stats-json"
		if want := slices.Contains(wholeRun, name) && !perWorker; strings.HasSuffix(rejected["-shard "+name], "with -shard") != want {
			t.Errorf("-shard %s: rejected %v, want %v", name, !want, want)
		}
	}

	// Cases beyond a pair: the server modes' own rejections, the profiles
	// -shard rejects, and several conflicts at once, which always name the
	// same flag because the flags are judged in a fixed order.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-serve", "127.0.0.1:0", "a.c"}, "-serve takes no input files"},
		{[]string{"-serve", "127.0.0.1:0", "-cache-serve", "127.0.0.1:1", "-cache-dir", "d"}, "-serve and -cache-serve are exclusive"},
		{[]string{"-shard", "0/2", "-cpuprofile", "c.prof", "a.c"}, "-cpuprofile is not supported with -shard"},
		{[]string{"-shard", "0/2", "-memprofile", "m.prof", "a.c"}, "-memprofile is not supported with -shard"},
		{[]string{"-shard", "0/2", "-memprofile", "m.prof", "-hot", "3", "-trace", "t.jsonl", "-dump-lib", "x.lib", "a.c"}, "-dump-lib is not supported with -shard"},
		{[]string{"-cache-serve", "127.0.0.1:0", "-cache-dir", "d", "a.c"}, "-cache-serve takes no input files"},
		{[]string{"-serve", "127.0.0.1:0", "-stats", "-jobs", "2", "-I", "inc", "-trace", "t.jsonl", "-cache-max-bytes", "1"}, "-cache-max-bytes is not supported with -serve"},
		{[]string{"-serve", "127.0.0.1:0", "-stats", "-jobs", "2", "-I", "inc", "-trace", "t.jsonl", "-shard", "0/2"}, "-trace is not supported with -shard"},
		{[]string{"-serve", "127.0.0.1:0", "-stats", "-jobs", "2", "-I", "inc"}, "-I is not supported with -serve"},
	} {
		for i := 0; i < 20; i++ {
			var out, errb bytes.Buffer
			if code := Run(tc.args, &out, &errb); code != 2 || errb.String() != "golclint: "+tc.want+"\n" {
				t.Fatalf("%q: exit %d, stderr %q; want exit 2, %q", tc.args, code, errb.String(), tc.want)
			}
		}
	}
	// The servers' admission limits are fixed: their former flags are
	// undefined, a parse failure like any unknown flag.
	for _, f := range []string{"-serve-inflight", "-serve-per-client"} {
		var out, errb bytes.Buffer
		code := Run([]string{"-serve", "127.0.0.1:0", f, "2"}, &out, &errb)
		if first, _, _ := strings.Cut(errb.String(), "\n"); code != 2 || first != "flag provided but not defined: "+f {
			t.Errorf("-serve %s 2: exit %d, stderr %q; want exit 2, undefined flag", f, code, errb.String())
		}
	}
	if _, err := ParseConfig([]string{"-cache-serve", "127.0.0.1:0", "-cache-dir", "d", "-cache-max-bytes", "4096"}, io.Discard); err != nil {
		t.Errorf("-cache-serve over a bounded -cache-dir rejected: %v", err)
	}
	// A flag given its default value changes nothing, so no mode rejects it.
	for _, args := range [][]string{
		{"-serve", "127.0.0.1:0", "-fn-cache=true", "-jobs", "0", "-cache-max-bytes", "0", "-lib", ""},
		{"-cache-serve", "127.0.0.1:0", "-cache-dir", "d", "-stats=false"},
		{"-shard", "0/2", "-hot", "0", "-cfg", "", "-cache-max-bytes", "0", "a.c"},
	} {
		if _, err := ParseConfig(args, io.Discard); err != nil {
			t.Errorf("%q rejected: %v", args, err)
		}
	}
}

// -serve waives the no-input-files requirement: a daemon starts with no
// positional arguments.
func TestParseConfigServe(t *testing.T) {
	var errb bytes.Buffer
	cfg, err := ParseConfig([]string{"-serve", "127.0.0.1:0", "-cache-dir", "d"}, &errb)
	if err != nil {
		t.Fatalf("ParseConfig: %v (stderr %q)", err, errb.String())
	}
	if cfg.Serve != "127.0.0.1:0" || cfg.CacheDir != "d" {
		t.Errorf("cfg = %+v", cfg)
	}
	if len(cfg.Paths) != 0 {
		t.Errorf("Paths = %v", cfg.Paths)
	}
}

// ParseConfig is pure: concurrent parses with conflicting arguments must
// not interfere (this is what lets the server validate requests in
// parallel), and parsing alone must not touch the filesystem.
func TestParseConfigPure(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var errb bytes.Buffer
			args := []string{"-jobs", "1", "-flags", "+null", "one.c"}
			if i%2 == 0 {
				args = []string{"-jobs", "8", "-flags", "-null", "-explain", "two.c", "three.c"}
			}
			cfg, err := ParseConfig(args, &errb)
			if err != nil {
				t.Errorf("ParseConfig: %v", err)
				return
			}
			if i%2 == 0 {
				if cfg.Jobs != 8 || cfg.Flags.Map()["null"] || len(cfg.Paths) != 2 {
					t.Errorf("cross-parse interference: %+v", cfg)
				}
			} else {
				if cfg.Jobs != 1 || !cfg.Flags.Map()["null"] || len(cfg.Paths) != 1 {
					t.Errorf("cross-parse interference: %+v", cfg)
				}
			}
		}()
	}
	wg.Wait()

	// The nonexistent path above parses fine; only LoadInputs reads disk.
	var errb bytes.Buffer
	cfg, err := ParseConfig([]string{"definitely/not/a/file.c"}, &errb)
	if err != nil {
		t.Fatalf("ParseConfig rejected a nonexistent path: %v", err)
	}
	if _, _, err := cfg.LoadInputs(); err == nil {
		t.Error("LoadInputs succeeded on a nonexistent path")
	}
}

func TestLoadInputs(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "m.c"), []byte("int x;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "defs.h"), []byte("typedef int myint;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseConfig([]string{"-I", sub, filepath.Join(dir, "m.c")}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	files, inc, err := cfg.LoadInputs()
	if err != nil {
		t.Fatal(err)
	}
	// Keyed by base name, which is how diagnostics report positions.
	if files["m.c"] != "int x;\n" {
		t.Errorf("files = %v", files)
	}
	if src, err := inc.Include("defs.h"); err != nil || src != "typedef int myint;\n" {
		t.Errorf("Include(defs.h) = %q, %v", src, err)
	}
	if _, err := inc.Include("absent.h"); err == nil {
		t.Error("Include(absent.h) succeeded")
	}
}

// TestIncludeDirOrder: when several include directories hold a header of
// the same name, the sources' directories win in argument order, then the
// -I directories in flag order, on every run.
func TestIncludeDirOrder(t *testing.T) {
	root := t.TempDir()
	const src = "#include \"common.h\"\n" +
		"extern /*@only@*/ void *malloc(unsigned long);\n" +
		"extern void free(/*@only@*/ void *p);\n" +
		"int f(int n)\n{\n\tchar *p;\n\tp = (char *) malloc(10);\n\tDROP(p);\n\treturn n;\n}\n"
	write := func(dir, name, text string) string {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(root, dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Only leaky/common.h leaves p unreleased.
	leaky, freeing, bare := filepath.Join(root, "leaky"), filepath.Join(root, "freeing"), filepath.Join(root, "bare")
	write("leaky", "common.h", "#define DROP(p)\n")
	write("freeing", "common.h", "#define DROP(p) free(p)\n")
	a, m := write("leaky", "a.c", src), write("bare", "m.c", src)
	b := write("freeing", "b.c", strings.Replace(src, "int f(", "int g(", 1))
	const leak = ": Only storage p not released before return\n"
	for _, tc := range []struct {
		args  []string
		leaks int // one per source when leaky/common.h is the one resolved
	}{
		{[]string{a, b}, 2},
		{[]string{b, a}, 0},
		{[]string{"-I", bare, "-I", leaky, "-I", freeing, m}, 1},
		{[]string{"-I", freeing, "-I", leaky, m}, 0},
		{[]string{"-I", freeing, a}, 1},
	} {
		var first string
		for run := 0; run < 10; run++ {
			var out, errb bytes.Buffer
			if code := Run(tc.args, &out, &errb); code > 1 || errb.Len() != 0 {
				t.Fatalf("%v: exit %d, stderr %q", tc.args, code, errb.String())
			}
			if run == 0 {
				first = out.String()
				if got := strings.Count(first, leak); got != tc.leaks {
					t.Errorf("%v: %d leaks reported, want %d:\n%s", tc.args, got, tc.leaks, first)
				}
			} else if out.String() != first {
				t.Fatalf("%v: run %d output differs from run 1:\n%s\nvs\n%s", tc.args, run+1, out.String(), first)
			}
		}
	}
}
