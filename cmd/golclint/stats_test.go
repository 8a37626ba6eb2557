package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fixture is a small program that produces deterministic diagnostics in
// two categories, plus a suppressed message.
const fixtureSrc = `extern /*@only@*/ void *malloc(unsigned long);
extern char *gname;

void setName (/*@null@*/ char *pname)
{
	gname = pname;
}

void leaky (int n)
{
	char *p;
	p = (char *) malloc (10);
	if (n > 0) { p = (char *) 0; }
}
`

// writeFixture puts the fixture in a temp dir and returns its path.
func writeFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fixture.c")
	if err := os.WriteFile(path, []byte(fixtureSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture runs f with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var sb strings.Builder
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			sb.WriteString(sc.Text())
			sb.WriteByte('\n')
		}
		done <- sb.String()
	}()
	f()
	w.Close()
	os.Stdout = old
	return <-done
}

// -stats output must be byte-identical across runs (sorted codes).
func TestStatsDeterministic(t *testing.T) {
	src := writeFixture(t)
	var outs []string
	for i := 0; i < 5; i++ {
		outs = append(outs, capture(t, func() {
			if code := run([]string{"-stats", src}); code != 1 {
				t.Errorf("exit = %d, want 1", code)
			}
		}))
	}
	for i := 1; i < len(outs); i++ {
		if outs[i] != outs[0] {
			t.Fatalf("-stats output differs between runs:\n%q\nvs\n%q", outs[0], outs[i])
		}
	}
	// The per-code lines must appear in sorted (declaration) order:
	// nullreturn (code 3) before mustfree (code 6).
	iNull := strings.Index(outs[0], "nullreturn")
	iLeak := strings.Index(outs[0], "mustfree")
	if iNull < 0 || iLeak < 0 || iNull > iLeak {
		t.Fatalf("stats codes missing or unsorted:\n%s", outs[0])
	}
}

// statsLineCounts parses the "  code  n" lines of -stats output.
func statsLineCounts(out string) map[string]int {
	counts := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "  ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		counts[fields[0]] = n
	}
	return counts
}

func TestStatsJSONAndTrace(t *testing.T) {
	src := writeFixture(t)
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "stats.json")
	tracePath := filepath.Join(dir, "trace.jsonl")

	statsOut := capture(t, func() {
		// -jobs 1: phases_ns sum per-worker time, so only a serial run
		// bounds their sum by total_ns.
		if code := run([]string{"-stats", "-stats-json", jsonPath, "-trace", tracePath, "-jobs", "1", src}); code != 1 {
			t.Errorf("exit = %d, want 1", code)
		}
	})

	b, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema     string           `json:"schema"`
		Files      []string         `json:"files"`
		Flags      map[string]bool  `json:"flags"`
		TotalNS    int64            `json:"total_ns"`
		PhasesNS   map[string]int64 `json:"phases_ns"`
		Counters   map[string]int64 `json:"counters"`
		Messages   int              `json:"messages"`
		Suppressed int              `json:"suppressed"`
		ByCode     map[string]int   `json:"messages_by_code"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("stats JSON invalid: %v", err)
	}
	if doc.Schema != "golclint-stats/v1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	if len(doc.Files) != 1 || filepath.Base(doc.Files[0]) != "fixture.c" {
		t.Errorf("files = %v", doc.Files)
	}

	// Durations are volatile: assert presence and sign, not values.
	if doc.TotalNS <= 0 {
		t.Errorf("total_ns = %d, want > 0", doc.TotalNS)
	}
	var phaseSum int64
	for _, name := range []string{"preprocess", "parse", "sema", "cfg", "check"} {
		ns, ok := doc.PhasesNS[name]
		if !ok {
			t.Errorf("phase %q missing", name)
		}
		if ns < 0 {
			t.Errorf("phase %q = %d ns, want >= 0", name, ns)
		}
		phaseSum += ns
	}
	if phaseSum > doc.TotalNS {
		t.Errorf("phase sum %d exceeds total %d", phaseSum, doc.TotalNS)
	}

	for _, counter := range []string{"tokens_lexed", "ast_nodes", "cfg_blocks", "cfg_edges", "functions_checked", "diagnostics_emitted"} {
		if doc.Counters[counter] <= 0 {
			t.Errorf("counter %q = %d, want > 0", counter, doc.Counters[counter])
		}
	}
	if doc.Counters["functions_checked"] != 2 {
		t.Errorf("functions_checked = %d, want 2", doc.Counters["functions_checked"])
	}

	// Per-code counts in the JSON must match the -stats text output.
	textCounts := statsLineCounts(statsOut)
	for code, n := range doc.ByCode {
		if textCounts[code] != n {
			t.Errorf("code %s: json=%d text=%d\ntext:\n%s", code, n, textCounts[code], statsOut)
		}
	}
	sum := 0
	for _, n := range doc.ByCode {
		sum += n
	}
	if sum != doc.Messages || doc.Messages == 0 {
		t.Errorf("by_code sum %d vs messages %d", sum, doc.Messages)
	}

	// Trace: one valid JSONL event per function, fields populated.
	tb, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(tb)), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace events = %d, want 2:\n%s", len(lines), tb)
	}
	seen := map[string]bool{}
	for _, line := range lines {
		var ev struct {
			Func       string `json:"func"`
			File       string `json:"file"`
			Blocks     int    `json:"blocks"`
			Merges     int    `json:"merges"`
			DurationNS int64  `json:"duration_ns"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line not JSON: %v\n%s", err, line)
		}
		seen[ev.Func] = true
		if ev.File != "fixture.c" || ev.Blocks <= 0 || ev.DurationNS < 0 {
			t.Errorf("bad event: %+v", ev)
		}
	}
	if !seen["setName"] || !seen["leaky"] {
		t.Errorf("trace missing functions: %v", seen)
	}
}

// -stats-json must work standalone (no -stats) and on the modular path.
func TestStatsJSONModular(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "m.c")
	if err := os.WriteFile(src, []byte("int twice (int x) { return x * 2; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	libPath := filepath.Join(dir, "m.lib")
	if code := run([]string{"-dump-lib", libPath, src}); code != 0 {
		t.Fatalf("dump exit = %d", code)
	}
	use := filepath.Join(dir, "use.c")
	if err := os.WriteFile(use, []byte("extern int twice (int x);\nint use (void) { return twice (21); }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(dir, "stats.json")
	if code := run([]string{"-lib", libPath, "-stats-json", jsonPath, use}); code != 0 {
		t.Fatalf("modular exit = %d", code)
	}
	b, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Counters["library_entries_loaded"] <= 0 {
		t.Errorf("library_entries_loaded = %d, want > 0", doc.Counters["library_entries_loaded"])
	}
}

// The pprof flags must produce non-empty profile files.
func TestProfiles(t *testing.T) {
	src := writeFixture(t)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if code := run([]string{"-cpuprofile", cpu, "-memprofile", mem, src}); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// -jobs: the CLI output (diagnostic stream and exit code) is byte-identical
// at every worker count, and the stats JSON records the jobs and
// wall-vs-CPU split.
func TestJobsFlagDeterministicOutput(t *testing.T) {
	src := writeFixture(t)
	outs := map[int]string{}
	for _, jobs := range []int{1, 2, 8} {
		jobs := jobs
		outs[jobs] = capture(t, func() {
			if code := run([]string{"-jobs", strconv.Itoa(jobs), src}); code != 1 {
				t.Errorf("jobs=%d exit = %d, want 1", jobs, code)
			}
		})
	}
	if outs[1] == "" {
		t.Fatal("no diagnostics; test is vacuous")
	}
	if outs[2] != outs[1] || outs[8] != outs[1] {
		t.Fatalf("output differs across -jobs:\n--- 1 ---\n%s--- 2 ---\n%s--- 8 ---\n%s",
			outs[1], outs[2], outs[8])
	}
}

func TestStatsJSONJobsFields(t *testing.T) {
	src := writeFixture(t)
	jsonPath := filepath.Join(t.TempDir(), "stats.json")
	if code := run([]string{"-jobs", "2", "-stats-json", jsonPath, src}); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	b, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Jobs        int   `json:"jobs"`
		CheckWallNS int64 `json:"check_wall_ns"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Jobs != 2 {
		t.Errorf("jobs = %d, want 2", doc.Jobs)
	}
	if doc.CheckWallNS <= 0 {
		t.Errorf("check_wall_ns = %d, want > 0", doc.CheckWallNS)
	}
}
