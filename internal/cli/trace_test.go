package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var durationField = regexp.MustCompile(`"duration_ns":\d+`)

// corpusFiles is the golden corpus, checked as one module.
func corpusFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("../../testdata/corpus/*.c")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus not found: %v", err)
	}
	return files
}

// traceRun runs the CLI with -trace and -stats-json plus args, and returns
// the trace with durations masked and the stats document.
func traceRun(t *testing.T, args ...string) (string, runStats) {
	t.Helper()
	dir := t.TempDir()
	tracePath, statsPath := filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "stats.json")
	code, _, stderr := runCLI(t, append([]string{"-trace", tracePath, "-stats-json", statsPath}, args...)...)
	if code != 1 {
		t.Fatalf("%v: exit %d, stderr:\n%s", args, code, stderr)
	}
	tb, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var st runStats
	if err := json.Unmarshal(sb, &st); err != nil {
		t.Fatal(err)
	}
	return durationField.ReplaceAllString(string(tb), `"duration_ns":0`), st
}

// traceLines splits a trace into function and diag lines, failing if a
// function line follows a diag line or a line is not one JSON object.
func traceLines(t *testing.T, trace string) (funcs, diags []map[string]any) {
	t.Helper()
	for _, ln := range strings.Split(strings.TrimSuffix(trace, "\n"), "\n") {
		if ln == "" {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("torn trace line %q: %v", ln, err)
		}
		if ev["type"] == "diag" {
			diags = append(diags, ev)
			continue
		}
		if len(diags) > 0 {
			t.Fatalf("function line after diag lines: %s", ln)
		}
		funcs = append(funcs, ev)
	}
	return funcs, diags
}

// The -trace stream is the same at every worker count apart from
// durations, in every mode, since lines follow the serial function order.
func TestTraceStreamDeterministicAcrossJobs(t *testing.T) {
	files := corpusFiles(t)
	for _, mode := range [][]string{nil, {"-explain"}, {"-validate"}} {
		serial, _ := traceRun(t, append(append([]string{"-jobs", "1"}, mode...), files...)...)
		if serial == "" {
			t.Fatalf("%v: empty trace; test is vacuous", mode)
		}
		for _, jobs := range []int{4, 8} {
			got, _ := traceRun(t, append(append([]string{"-jobs", strconv.Itoa(jobs)}, mode...), files...)...)
			if got != serial {
				t.Errorf("%v jobs=%d trace differs:\n--- serial ---\n%s--- jobs=%d ---\n%s", mode, jobs, serial, jobs, got)
			}
		}
	}
}

// One function line per checked function, each whole under concurrent
// checking, with the line schema's fields in order.
func TestTraceFuncLines(t *testing.T) {
	trace, st := traceRun(t, append([]string{"-jobs", "8"}, corpusFiles(t)...)...)
	funcs, diags := traceLines(t, trace)
	if len(diags) != 0 {
		t.Errorf("plain run wrote %d diag lines", len(diags))
	}
	if n := st.Counters["functions_checked"]; n == 0 || int64(len(funcs)) != n {
		t.Fatalf("function lines = %d, functions_checked = %d", len(funcs), n)
	}
	seen := map[string]int{}
	for _, ev := range funcs {
		seen[ev["file"].(string)+":"+ev["func"].(string)]++
		if ev["blocks"].(float64) <= 0 || ev["edges"].(float64) <= 0 {
			t.Errorf("function line not populated: %v", ev)
		}
	}
	for fn, n := range seen {
		if n != 1 {
			t.Errorf("%s has %d lines, want 1", fn, n)
		}
	}
	first := strings.SplitN(trace, "\n", 2)[0]
	if !regexp.MustCompile(`^\{"func":"[^"]+","file":"[^"]+","line":\d+,"blocks":\d+,"edges":\d+,"merges":\d+,"duration_ns":0\}$`).MatchString(first) {
		t.Errorf("function line schema: %s", first)
	}
}

// Under -explain and -validate the stream ends with one diag line per
// diagnostic, witness and validation tag included. A cache hit checks no
// function, so it writes no function lines, but the same diag lines.
func TestTraceDiagEvents(t *testing.T) {
	files := corpusFiles(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	args := append([]string{"-validate", "-explain", "-jobs", "4", "-cache-dir", cacheDir}, files...)
	cold, st := traceRun(t, args...)
	funcs, diags := traceLines(t, cold)
	if len(funcs) == 0 {
		t.Error("no function lines")
	}
	if len(diags) == 0 || len(diags) != len(st.Diagnostics) {
		t.Fatalf("diag lines = %d, diagnostics = %d", len(diags), len(st.Diagnostics))
	}
	for i, ev := range diags {
		want := st.Diagnostics[i]
		if pos := ev["file"].(string) + ":" + strconv.Itoa(int(ev["line"].(float64))); ev["code"] != want.Code || ev["msg"] != want.Msg || want.Pos != pos {
			t.Errorf("diag line %d = %v, want %+v", i, ev, want)
		}
		if ev["validation"] != want.Validation || len(ev["witness"].([]any)) != len(want.Witness) {
			t.Errorf("diag line %d provenance = %v, want %+v", i, ev, want)
		}
	}
	warm, wst := traceRun(t, args...)
	wfuncs, wdiags := traceLines(t, warm)
	if wst.Counters["cache_hits"] != 1 || len(wfuncs) != 0 {
		t.Fatalf("warm run: cache_hits = %d, function lines = %d", wst.Counters["cache_hits"], len(wfuncs))
	}
	if _, coldDiags, _ := strings.Cut(cold, `{"type":"diag"`); !strings.HasSuffix(warm, coldDiags) || len(wdiags) != len(diags) {
		t.Errorf("warm diag lines differ:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
}

// A failing trace sink is reported once on stderr and does not change the
// run's outcome.
func TestTraceWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	src := writeFixture(t)
	code, out, stderr := runCLI(t, "-trace", "/dev/full", src)
	_, plain, _ := runCLI(t, src)
	if code != 1 || out != plain {
		t.Errorf("exit %d, stdout %q; want 1 and %q", code, out, plain)
	}
	if strings.Count(stderr, "golclint: trace: ") != 1 {
		t.Errorf("stderr = %q, want one trace error", stderr)
	}
}
