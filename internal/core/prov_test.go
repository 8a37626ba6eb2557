package core

// Tests for diagnostic provenance (-explain): every diagnostic carries a
// non-empty witness path when explain is on, default output and default
// diagnostics are untouched, and the explained rendering is byte-identical
// at any worker count.

import (
	"strings"
	"testing"

	"golclint/internal/cache"
	"golclint/internal/diag"
	"golclint/internal/obs"
	"golclint/internal/sema"
)

// provSrc mixes the anomaly families the witness synthesizer must cover:
// use-after-free, leak, null-deref, double-free, and leak-on-return.
var provSrc = map[string]string{
	"w.c": `#include <stdlib.h>

int useAfterFree (int n)
{
	char *p;

	p = (char *) malloc (8);
	if (p == NULL)
	{
		exit (EXIT_FAILURE);
	}
	free (p);
	p[0] = (char) n;
	return n;
}

int leak (int n)
{
	char *q;

	q = (char *) malloc (4);
	if (q == NULL)
	{
		exit (EXIT_FAILURE);
	}
	return n;
}

int nullDeref (void)
{
	int *r;

	r = (int *) malloc (sizeof (int));
	*r = 3;
	free (r);
	return 0;
}

int doubleFree (void)
{
	char *s;

	s = (char *) malloc (2);
	if (s == NULL)
	{
		exit (EXIT_FAILURE);
	}
	free (s);
	free (s);
	return 0;
}
`,
}

func TestExplainEveryDiagnosticHasWitness(t *testing.T) {
	res := CheckSources(provSrc, Options{Explain: true})
	if len(res.ParseErrors) > 0 {
		t.Fatalf("parse errors: %v", res.ParseErrors)
	}
	if len(res.Diags) == 0 {
		t.Fatal("no diagnostics; test is vacuous")
	}
	for _, d := range res.Diags {
		if d.Prov == nil || len(d.Prov.Steps) == 0 {
			t.Errorf("diagnostic without witness: %s", d.String())
			continue
		}
		if d.Prov.Steps[0].Kind != "entry" {
			t.Errorf("witness does not start at function entry: %s (first step %q)",
				d.String(), d.Prov.Steps[0].Kind)
		}
	}
}

func TestExplainWitnessShowsTransitionChain(t *testing.T) {
	res := CheckSources(provSrc, Options{Explain: true})
	out := res.ExplainedMessages()
	for _, want := range []string{
		"witness (p):",
		"[alloc]",
		"[release]",
		"in function useAfterFree",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explained output missing %q:\n%s", want, out)
		}
	}
}

func TestExplainOffRecordsNothing(t *testing.T) {
	res := CheckSources(provSrc, Options{})
	if len(res.Diags) == 0 {
		t.Fatal("no diagnostics; test is vacuous")
	}
	for _, d := range res.Diags {
		if d.Prov != nil {
			t.Errorf("provenance recorded with explain off: %s", d.String())
		}
	}
	// Without provenance the explain rendering degrades to the default.
	if res.ExplainedMessages() != res.Messages() {
		t.Error("ExplainedMessages differs from Messages with explain off")
	}
}

// Default (non-explained) output must be byte-identical with explain on or
// off: provenance may only add information, never perturb messages.
func TestExplainDefaultOutputUnchanged(t *testing.T) {
	off := CheckSources(provSrc, Options{})
	on := CheckSources(provSrc, Options{Explain: true})
	if off.Messages() != on.Messages() {
		t.Errorf("default output changed under explain:\n--- off ---\n%s--- on ---\n%s",
			off.Messages(), on.Messages())
	}
}

func TestExplainDeterministicAcrossJobs(t *testing.T) {
	render := func(jobs int) string {
		res := CheckSources(parallelSrc, Options{Explain: true, Jobs: jobs})
		return res.ExplainedMessages()
	}
	serial := render(1)
	if serial == "" {
		t.Fatal("no explained messages; test is vacuous")
	}
	for _, jobs := range []int{4, 8} {
		if got := render(jobs); got != serial {
			t.Errorf("jobs=%d explained output differs:\n--- serial ---\n%s--- jobs=%d ---\n%s",
				jobs, serial, jobs, got)
		}
	}
}

// What -trace renders comes from the check itself: under Explain at any
// worker count, one function span per checked function, filled for its
// function line, and a witness on every retained diagnostic for its diag
// line.
func TestTraceDiagEvents(t *testing.T) {
	m := obs.New()
	res := CheckSources(provSrc, Options{Explain: true, Jobs: 4, Metrics: m})
	var fns int64
	for _, sp := range m.Spans() {
		if sp.Kind != obs.SpanFunction {
			continue
		}
		fns++
		if sp.File == "" || sp.Line == 0 || sp.Blocks <= 0 || sp.Edges <= 0 {
			t.Errorf("function span not filled: %+v", sp)
		}
	}
	if fns == 0 || fns != m.Get(obs.FunctionsChecked) {
		t.Errorf("function spans = %d, functions checked = %d", fns, m.Get(obs.FunctionsChecked))
	}
	if len(res.Diags) == 0 {
		t.Fatal("no diagnostics; test is vacuous")
	}
	for _, d := range res.Diags {
		if d.Prov == nil || len(d.Prov.Steps) == 0 {
			t.Errorf("diagnostic without witness: %s", d)
		}
	}
}

// keyStore is an always-miss cache.Store that records every key written.
type keyStore struct{ keys []string }

func (s *keyStore) Get(string) (*cache.Entry, bool) { return nil, false }

func (s *keyStore) Put(key string, _ *cache.Entry) (int64, error) {
	s.keys = append(s.keys, key)
	return 0, nil
}

// A Validate hook implies provenance recording: without Explain it records
// the same witnesses, and writes the same module and function cache keys,
// as a run that sets both.
func TestValidateImpliesExplain(t *testing.T) {
	run := func(explain bool) (string, []string) {
		st := &keyStore{}
		res := CheckSources(provSrc, Options{
			Explain:  explain,
			Validate: func(*sema.Program, []*diag.Diagnostic) {},
			Cache:    st,
			EnvFingerprint: func(*sema.Program) func(string) string {
				return func(string) string { return "" }
			},
		})
		return res.ExplainedMessages(), st.keys
	}
	both, bothKeys := run(true)
	alone, aloneKeys := run(false)
	if !strings.Contains(both, "witness (") {
		t.Fatalf("no witnesses with Explain and Validate; test is vacuous:\n%s", both)
	}
	if alone != both {
		t.Errorf("witnesses differ without Explain:\n--- both ---\n%s--- validate only ---\n%s", both, alone)
	}
	if len(bothKeys) < 2 || strings.Join(aloneKeys, " ") != strings.Join(bothKeys, " ") {
		t.Errorf("cache keys differ without Explain:\n%v\nvs\n%v", bothKeys, aloneKeys)
	}
}
