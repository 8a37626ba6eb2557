package core

// Tests for the concurrent checking engine: deterministic merge semantics
// (suppression, message caps, cross-function deduplication behave exactly
// as a serial run) and race safety of the shared read-only environment.

import (
	"strings"
	"sync"
	"testing"

	"golclint/internal/diag"
	"golclint/internal/flags"
	"golclint/internal/obs"
)

// parallelSrc is a corpus with several anomalous functions so the merge
// path has real work: leaks, null derefs, undefined use, and an unknown
// identifier referenced from TWO functions (exercising the once-per-run
// deduplication across workers).
var parallelSrc = map[string]string{
	"a.c": `#include <stdlib.h>

int fa1 (int n)
{
	char *p;

	p = (char *) malloc (8);
	if (p == NULL)
	{
		exit (EXIT_FAILURE);
	}
	p[0] = (char) n;
	return n;
}

int fa2 (void)
{
	int v;

	return v + phantom ();
}
`,
	"b.c": `#include <stdlib.h>

int fb1 (int n)
{
	int *q;

	q = (int *) malloc (sizeof (int));
	*q = n;
	free (q);
	return n;
}

int fb2 (void)
{
	return phantom ();
}
`,
}

func messagesAt(t *testing.T, jobs int, opt Options) string {
	t.Helper()
	opt.Jobs = jobs
	res := CheckSources(parallelSrc, opt)
	if len(res.ParseErrors) > 0 {
		t.Fatalf("jobs=%d parse errors: %v", jobs, res.ParseErrors)
	}
	return res.Messages()
}

func TestParallelMatchesSerial(t *testing.T) {
	serial := messagesAt(t, 1, Options{})
	if serial == "" {
		t.Fatal("no messages; test is vacuous")
	}
	for _, jobs := range []int{0, 2, 4, 8} {
		if got := messagesAt(t, jobs, Options{}); got != serial {
			t.Errorf("jobs=%d differs:\n--- serial ---\n%s--- jobs=%d ---\n%s", jobs, serial, jobs, got)
		}
	}
}

// Unknown identifiers report once per run even when the two referencing
// functions are checked on different workers; the first function in serial
// order wins, so the report's position is stable.
func TestParallelUnknownIdentifierOncePerRun(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		msgs := messagesAt(t, jobs, Options{})
		if n := strings.Count(msgs, "Unrecognized identifier: phantom"); n != 1 {
			t.Errorf("jobs=%d: phantom reported %d times:\n%s", jobs, n, msgs)
		}
	}
	// The surviving report must come from a.c (first file in sorted order),
	// as it would serially.
	msgs := messagesAt(t, 8, Options{})
	for _, line := range strings.Split(msgs, "\n") {
		if strings.Contains(line, "Unrecognized identifier") && !strings.HasPrefix(line, "a.c:") {
			t.Errorf("phantom reported from %q, want a.c", line)
		}
	}
}

// The message cap truncates in serial order regardless of worker count:
// the retained prefix is identical.
func TestParallelMessageCapDeterministic(t *testing.T) {
	fl := flags.Default()
	fl.MaxMessages = 2
	serial := messagesAt(t, 1, Options{Flags: fl.Clone()})
	parallel := messagesAt(t, 8, Options{Flags: fl.Clone()})
	if serial != parallel {
		t.Errorf("capped output differs:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
	res := CheckSources(parallelSrc, Options{Flags: fl.Clone(), Jobs: 8})
	if len(res.Diags) != 2 {
		t.Errorf("retained %d messages, want 2", len(res.Diags))
	}
	if res.Suppressed == 0 {
		t.Error("cap suppressed nothing")
	}
}

// Stylized-comment suppression applies identically under concurrency (the
// reporter replays buffers in serial order, consuming /*@i@*/ markers and
// ignore regions exactly as a serial run would).
func TestParallelSuppressionDeterministic(t *testing.T) {
	src := map[string]string{
		"s.c": `#include <stdlib.h>

int g1 (int n)
{
	char *p;

	p = (char *) malloc (4);
	if (p == NULL)
	{
		exit (EXIT_FAILURE);
	}
	/*@i@*/ return n;
}

int g2 (int n)
{
	char *q;

	q = (char *) malloc (4);
	if (q == NULL)
	{
		exit (EXIT_FAILURE);
	}
	return n;
}
`,
	}
	run := func(jobs int) *Result {
		return CheckSources(src, Options{Jobs: jobs})
	}
	serial, parallel := run(1), run(8)
	if serial.Messages() != parallel.Messages() {
		t.Errorf("suppressed output differs:\n--- serial ---\n%s--- parallel ---\n%s",
			serial.Messages(), parallel.Messages())
	}
	if serial.Suppressed != parallel.Suppressed {
		t.Errorf("suppressed counts differ: %d vs %d", serial.Suppressed, parallel.Suppressed)
	}
	// g1's leak is suppressed by the marker; g2's survives.
	if serial.Suppressed != 1 || len(serial.Diags) != 1 {
		t.Errorf("suppression shape: %d diags, %d suppressed (want 1, 1):\n%s",
			len(serial.Diags), serial.Suppressed, serial.Messages())
	}
}

// Many concurrent CheckSources runs sharing one Metrics: stresses the
// atomic counters and the scheduler under the race detector.
func TestParallelSharedMetricsRace(t *testing.T) {
	m := obs.New()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			CheckSources(parallelSrc, Options{Metrics: m, Jobs: 4})
		}()
	}
	wg.Wait()
	// 6 runs x 4 functions each.
	if got := m.Get(obs.FunctionsChecked); got != 24 {
		t.Errorf("functions_checked = %d, want 24", got)
	}
}

// CheckProgram's exported serial entry point still works on the new
// engine (one worker, same merge path).
func TestCheckProgramSerialEntryPoint(t *testing.T) {
	res := CheckSources(parallelSrc, Options{})
	rep := diag.NewReporter(0)
	CheckProgram(res.Program, flags.Default(), rep)
	if rep.Len() == 0 {
		t.Fatal("CheckProgram reported nothing")
	}
	var reRendered strings.Builder
	for _, d := range rep.Diags() {
		reRendered.WriteString(d.String())
		reRendered.WriteByte('\n')
	}
	if got, want := reRendered.String(), res.Messages(); got != want {
		t.Errorf("CheckProgram output differs from CheckSources:\n--- CheckProgram ---\n%s--- CheckSources ---\n%s", got, want)
	}
}
