package main

import (
	"encoding/json"
	"fmt"
	"runtime/debug"
	"testing"
)

// Each experiment driver must run to completion (output goes to stdout;
// correctness of the numbers is asserted by the package tests — this guards
// against the drivers bit-rotting).
func TestExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers are slow")
	}
	outDir = t.TempDir()
	defer func() { outDir = "." }()
	for _, e := range experiments {
		switch e.name {
		case "scaling", "modular", "economy", "parallel", "state", "frontend", "staticvsdynamic", "distributed":
			continue // minutes-scale corpora; exercised by benchmarks or the emission/smoke tests
		}
		t.Run(e.name, func(t *testing.T) {
			if _, err := runExperiment(e, false); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The static-vs-dynamic driver (E13) is interpreter-bound and minutes-scale
// at its full configuration on small machines, so TestExperimentsRun skips
// it; its quick corpus keeps E13 exercised by `go test`.
func TestStaticVsDynamicSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the concrete interpreter")
	}
	if _, err := runStaticVsDynamic(true); err != nil {
		t.Fatal(err)
	}
}

// testEmission runs the named BENCH-emitting experiments on their quick
// configurations, as `lclbench -quick` does, and checks each document: it
// decodes under its schema, carries the host stamp and a measured spread
// for every timed figure, and passes every gate row but the timing ones,
// whose wall-time ratios depend on the host. It returns the documents.
func testEmission(t *testing.T, names ...string) []map[string]any {
	if testing.Short() {
		t.Skip("runs the BENCH experiments")
	}
	outDir = t.TempDir()
	defer func() { outDir = "." }()
	var docs []map[string]any
	for _, name := range names {
		var e experiment
		for _, x := range experiments {
			if x.name == name {
				e = x
			}
		}
		doc, err := runExperiment(e, true)
		if err != nil || doc == nil {
			t.Fatalf("%s: document %v, err %v", name, doc, err)
		}
		b, _ := json.Marshal(doc)
		var meta benchMeta
		if err := json.Unmarshal(b, &meta); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if meta.Schema != "golclint-bench-"+name+"/v1" || meta.Experiment != e.id {
			t.Errorf("%s: meta = %q %q", name, meta.Schema, meta.Experiment)
		}
		if meta.ElapsedNS <= 0 || meta.AllocBytes == 0 || meta.PeakHeapBytes == 0 ||
			meta.NumCPU <= 0 || meta.GOMAXPROCS <= 0 || meta.GoVersion == "" {
			t.Errorf("%s: stamps missing: %+v", name, meta)
		}
		if len(meta.Spread) == 0 {
			t.Errorf("%s: no spread recorded", name)
		}
		for field, s := range meta.Spread {
			if s.Reps < 1 || s.MinNS <= 0 || s.MedianNS < s.MinNS || s.MADNS < 0 {
				t.Errorf("%s: spread of %s not measured: %+v", name, field, s)
			}
		}
		for _, err := range violations(doc, false) {
			t.Errorf("%s: %v", name, err)
		}
		docs = append(docs, doc)
	}
	return docs
}

func TestBenchJSONEmission(t *testing.T)            { testEmission(t, "scaling", "modular") }
func TestBenchStateJSONEmission(t *testing.T)       { testEmission(t, "state") }
func TestBenchFrontendJSONEmission(t *testing.T)    { testEmission(t, "frontend") }
func TestBenchProvenanceJSONEmission(t *testing.T)  { testEmission(t, "provenance") }
func TestBenchValidateJSONEmission(t *testing.T)    { testEmission(t, "validate") }
func TestBenchServeJSONEmission(t *testing.T)       { testEmission(t, "serve") }
func TestBenchDistributedJSONEmission(t *testing.T) { testEmission(t, "distributed") }
func TestBenchEditloopJSONEmission(t *testing.T)    { testEmission(t, "editloop") }

// E15's ladder doubles from one worker up to the -jobs ceiling.
func TestBenchParallelJSONEmission(t *testing.T) {
	maxJobs = 4
	defer func() { maxJobs = 0 }()
	for _, doc := range testEmission(t, "parallel") {
		var jobs []any
		for _, row := range doc["rows"].([]any) {
			jobs = append(jobs, row.(map[string]any)["jobs"])
		}
		if got := fmt.Sprint(jobs); got != "[1 2 4]" {
			t.Errorf("jobs ladder = %s, want [1 2 4]", got)
		}
	}
}

func TestRevisionOf(t *testing.T) {
	rev := debug.BuildSetting{Key: "vcs.revision", Value: "c34cd0f"}
	for _, c := range []struct {
		name     string
		settings []debug.BuildSetting
		want     string
	}{
		{"clean", []debug.BuildSetting{rev, {Key: "vcs.modified", Value: "false"}}, "c34cd0f"},
		{"dirty", []debug.BuildSetting{{Key: "vcs.modified", Value: "true"}, rev}, "c34cd0f+dirty"},
		{"no revision", []debug.BuildSetting{{Key: "vcs.modified", Value: "true"}}, ""},
	} {
		if got := revisionOf(c.settings); got != c.want {
			t.Errorf("%s: revisionOf = %q, want %q", c.name, got, c.want)
		}
	}
}
