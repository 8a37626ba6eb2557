package testgen

// Scheduling independence of the parallel checking engine over generated
// multi-module corpora: counters and frontend results are the same at
// every worker count. Byte-identical output at every worker count is
// checked by internal/paritytest.

import (
	"fmt"
	"testing"

	"golclint/internal/core"
	"golclint/internal/cpp"
	"golclint/internal/obs"
)

// Counters are scheduling-independent: the same work is counted whether it
// runs on one worker or eight. (Durations are volatile; counts are not.)
func TestParallelCountersMatchSerial(t *testing.T) {
	p := Generate(Config{Seed: 501, Modules: 6, FuncsPer: 5, Annotate: true,
		Bugs: map[BugKind]int{BugLeak: 2, BugNullDeref: 2}})
	snap := func(jobs int) obs.Snapshot {
		m := obs.New()
		core.CheckSources(p.Files, core.Options{
			Includes: cpp.MapIncluder(p.Headers), Metrics: m, Jobs: jobs,
		})
		return m.Snapshot()
	}
	s1, s8 := snap(1), snap(8)
	for name, v := range s1.Counters {
		if name == "merge_ns" {
			// merge_ns is a duration riding in the counter table; it varies
			// run to run like any timing.
			continue
		}
		if s8.Counters[name] != v {
			t.Errorf("counter %s: jobs=1 %d, jobs=8 %d", name, v, s8.Counters[name])
		}
	}
	// The copy-on-write counters are counts, not timings: clones and COW
	// faults are per-function deterministic, so they must also be
	// scheduling-independent (and nonzero on this corpus).
	if s1.Counters["store_clones"] == 0 || s1.Counters["refstates_copied"] == 0 {
		t.Errorf("COW counters empty: clones=%d copied=%d",
			s1.Counters["store_clones"], s1.Counters["refstates_copied"])
	}
	if s1.Jobs != 1 || s8.Jobs != 8 {
		t.Errorf("jobs recorded as %d and %d, want 1 and 8", s1.Jobs, s8.Jobs)
	}
	if s8.CheckWallNS <= 0 {
		t.Errorf("check_wall_ns = %d, want > 0", s8.CheckWallNS)
	}
}

// Frontend in isolation (core.Frontend) is equally scheduling-independent:
// the same units (by file), the same parse-error stream, and the same
// frontend counters at every worker count.
func TestFrontendResultSchedulingIndependent(t *testing.T) {
	p := Generate(Config{Seed: 504, Modules: 6, FuncsPer: 5, Annotate: true,
		Bugs: map[BugKind]int{BugLeak: 2}})
	front := func(jobs int) (*core.FrontendResult, obs.Snapshot) {
		m := obs.New()
		fr := core.Frontend(p.Files, core.Options{
			Includes: cpp.MapIncluder(p.Headers), Jobs: jobs, Metrics: m,
		})
		return fr, m.Snapshot()
	}
	fr1, s1 := front(1)
	if len(fr1.Units) == 0 {
		t.Fatal("frontend produced no units")
	}
	for _, jobs := range []int{4, 8} {
		fr, s := front(jobs)
		if len(fr.Units) != len(fr1.Units) {
			t.Fatalf("jobs=%d units = %d, jobs=1 %d", jobs, len(fr.Units), len(fr1.Units))
		}
		for i := range fr.Units {
			if fr.Units[i].File != fr1.Units[i].File {
				t.Errorf("jobs=%d unit %d file = %q, jobs=1 %q", jobs, i, fr.Units[i].File, fr1.Units[i].File)
			}
		}
		if fmt.Sprint(fr.ParseErrors) != fmt.Sprint(fr1.ParseErrors) {
			t.Errorf("jobs=%d parse errors differ: %v vs %v", jobs, fr.ParseErrors, fr1.ParseErrors)
		}
		for _, name := range []string{"tokens_lexed", "ast_nodes", "annotations_consumed"} {
			if s.Counters[name] != s1.Counters[name] {
				t.Errorf("counter %s: jobs=%d %d, jobs=1 %d", name, jobs, s.Counters[name], s1.Counters[name])
			}
		}
		if s.PreprocessWallNS <= 0 || s.ParseWallNS <= 0 {
			t.Errorf("jobs=%d phase wall missing: preprocess=%d parse=%d",
				jobs, s.PreprocessWallNS, s.ParseWallNS)
		}
	}
	if s1.Counters["tokens_lexed"] == 0 || s1.Counters["ast_nodes"] == 0 {
		t.Error("frontend counters empty at jobs=1; test is vacuous")
	}
}

func BenchmarkCheckParallel(b *testing.B) {
	p := Generate(Config{Seed: 502, Modules: 32, FuncsPer: 10, Annotate: true})
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.CheckSources(p.Files, core.Options{
					Includes: cpp.MapIncluder(p.Headers), Jobs: jobs,
				})
			}
		})
	}
}
