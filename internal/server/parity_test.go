package server_test

import (
	"fmt"
	"testing"

	pt "golclint/internal/paritytest"
)

// The server's rows: every golden-corpus file is posted to an in-process
// server, and each response must equal an uncached -jobs 1 CLI run and the
// committed transcript. The first request for a file in a mode must miss
// the resident cache and a repeat must hit it. internal/paritytest runs
// them, one parallel subtest per file; the files share one server per
// -jobs value.

// resident posts each file in each listed mode it has a transcript for,
// at each listed -jobs value.
func resident(jobs []int, modes ...pt.Mode) func(*pt.Input) []pt.Config {
	return func(in *pt.Input) []pt.Config {
		var cs []pt.Config
		for _, mode := range modes {
			if in.Golden[mode] == "" {
				continue
			}
			for _, j := range jobs {
				cs = append(cs, pt.Config{Cache: pt.Resident, Jobs: j, Mode: mode})
			}
		}
		return cs
	}
}

// TestServerCLIParity drives every corpus file through the server at jobs
// 1, 4, and 8, one server per worker count.
func TestServerCLIParity(t *testing.T) {
	for _, jobs := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			pt.Corpus(t, pt.GoldenInputs(t), resident([]int{jobs}, pt.Plain))
		})
	}
}

// TestServerCLIParityExplain: -explain transcripts, witnesses included, at
// every worker count; every structured diagnostic carries its witness.
func TestServerCLIParityExplain(t *testing.T) {
	pt.Corpus(t, pt.GoldenInputs(t), resident([]int{0, 1, 4, 8}, pt.Explain))
}

// TestServerCLIParityValidate: -validate transcripts at jobs 1, 4, and 8;
// every structured diagnostic carries its validation tag.
func TestServerCLIParityValidate(t *testing.T) {
	for _, jobs := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			pt.Corpus(t, pt.GoldenInputs(t), resident([]int{jobs}, pt.Validate))
		})
	}
}

// Distinct modes address distinct resident entries: one server takes
// plain, then -explain, then -validate requests for a file, and each
// mode's first request must miss. The plain request posted after them
// must still hit its entry.
func TestServerModeIsolation(t *testing.T) {
	pt.Corpus(t, pt.GoldenInputs(t), resident([]int{0}, pt.Plain, pt.Explain, pt.Validate, pt.Plain))
}
