package cli

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
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

// Flag combinations the command would otherwise accept and then partly
// ignore are usage errors, each with one fixed message: checked in a fixed
// order, so several at once always name the same flag.
func TestParseConfigConflicts(t *testing.T) {
	shard := func(extra ...string) []string {
		return append(append([]string{"-shard", "0/2"}, extra...), "a.c")
	}
	cases := []struct {
		args []string
		want string
	}{
		{shard("-cfg", "f"), "-cfg is not supported with -shard"},
		{shard("-dump-lib", "x.lib"), "-dump-lib is not supported with -shard"},
		{shard("-trace", "t.jsonl"), "-trace is not supported with -shard"},
		{shard("-trace-out", "t.json"), "-trace-out is not supported with -shard"},
		{shard("-hot", "3"), "-hot is not supported with -shard"},
		{shard("-cpuprofile", "c.prof"), "-cpuprofile is not supported with -shard"},
		{shard("-memprofile", "m.prof"), "-memprofile is not supported with -shard"},
		{shard("-memprofile", "m.prof", "-hot", "3", "-trace", "t.jsonl", "-dump-lib", "x.lib"), "-dump-lib is not supported with -shard"},
		{[]string{"-serve", "127.0.0.1:0", "a.c"}, "-serve takes no input files"},
		{[]string{"-serve", "127.0.0.1:0", "-cache-serve", "127.0.0.1:1", "-cache-dir", "d"}, "-serve and -cache-serve are exclusive"},
		{[]string{"-serve", "127.0.0.1:0", "-cache-dir", "d", "-cache-max-bytes", "4096"}, "-cache-max-bytes is not supported with -serve"},
		{[]string{"-cache-max-bytes", "4096", "a.c"}, "-cache-max-bytes requires -cache-dir"},
	}
	for _, tc := range cases {
		for i := 0; i < 20; i++ {
			var out, errb bytes.Buffer
			if code := Run(tc.args, &out, &errb); code != 2 || errb.String() != "golclint: "+tc.want+"\n" {
				t.Fatalf("%q: exit %d, stderr %q; want exit 2, %q", tc.args, code, errb.String(), tc.want)
			}
		}
	}
	for _, ok := range [][]string{
		{"-cache-dir", "d", "-cache-max-bytes", "4096", "a.c"},
		{"-cache-serve", "127.0.0.1:0", "-cache-dir", "d", "-cache-max-bytes", "4096"},
		{"-serve", "127.0.0.1:0", "-cache-dir", "d"},
		shard("-stats-json", "s.json", "-diag-jsonl", "d.jsonl"),
	} {
		if _, err := ParseConfig(ok, io.Discard); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
}

// -serve waives the no-input-files requirement: a daemon starts with no
// positional arguments.
func TestParseConfigServe(t *testing.T) {
	var errb bytes.Buffer
	cfg, err := ParseConfig([]string{"-serve", "127.0.0.1:0", "-serve-inflight", "3", "-serve-per-client", "2"}, &errb)
	if err != nil {
		t.Fatalf("ParseConfig: %v (stderr %q)", err, errb.String())
	}
	if cfg.Serve != "127.0.0.1:0" || cfg.ServeInFlight != 3 || cfg.ServePerClient != 2 {
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
