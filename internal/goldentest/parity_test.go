package goldentest

import (
	"fmt"
	"strings"
	"testing"

	pt "golclint/internal/paritytest"
)

// The rows below hold cached and edited runs of the corpus to an uncached
// -jobs 1 run and to the same transcripts TestGoldenCorpus and its
// -explain and -validate forms pin; internal/paritytest runs them. Each
// corpus file is a parallel subtest, and the files of one row share its
// cache directory.

// rows checks cells over every corpus file with a transcript in mode, or
// over its one-function edit when edit is set.
func rows(t *testing.T, mode pt.Mode, edit bool, cells ...pt.Config) {
	var ins []*pt.Input
	for _, in := range pt.GoldenInputs(t) {
		if in.Golden[mode] == "" {
			continue
		}
		if edit {
			in = goldenEdit(in)
		}
		ins = append(ins, in)
	}
	pt.Corpus(t, ins, func(*pt.Input) []pt.Config { return cells })
}

// coldWarm runs a cold -cache-dir row then a warm replay in mode at each
// -jobs value, in a subtest per value.
func coldWarm(t *testing.T, mode pt.Mode, jobs ...int) {
	for _, j := range jobs {
		t.Run(fmt.Sprintf("jobs=%d", j), func(t *testing.T) {
			rows(t, mode, false, pt.Config{Cache: pt.DiskCold, Jobs: j, Mode: mode}, pt.Config{Cache: pt.DiskWarm, Jobs: j, Mode: mode})
		})
	}
}

// Warm cache replays must match the goldens byte for byte at every worker
// count — the central correctness claim of the persistent cache.
func TestGoldenCorpusWarmCache(t *testing.T) {
	if *update {
		t.Skip("golden update run")
	}
	coldWarm(t, pt.Plain, 1, 4, 8)
}

// Explained output must be byte-identical when replayed from a warm cache:
// provenance round-trips through cache entries. A plain run stores into
// the directory first, so the cold explained run also shows that the two
// modes' entries are apart.
func TestGoldenCorpusExplainWarmCache(t *testing.T) {
	if *update {
		t.Skip("golden update run")
	}
	rows(t, pt.Explain, false, pt.Config{Cache: pt.DiskCold},
		pt.Config{Cache: pt.DiskCold, Mode: pt.Explain}, pt.Config{Cache: pt.DiskWarm, Mode: pt.Explain})
}

// Validated output must replay byte-identically from a warm cache at every
// worker count: validation tags round-trip through cache entries and the
// validation search itself is deterministic.
func TestGoldenCorpusValidateWarmCache(t *testing.T) {
	if *update {
		t.Skip("golden update run")
	}
	coldWarm(t, pt.Validate, 0, 1, 4, 8)
}

// After a one-function edit, a run against the cache warmed on the
// original must re-check exactly that function and print what an uncached
// run prints, at every worker count.
func TestGoldenCorpusEditParity(t *testing.T) {
	for _, jobs := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			rows(t, pt.Plain, true, pt.Config{Cache: pt.DiskEdit, Jobs: jobs})
		})
	}
}

// The same edit under -explain and -validate: witnesses and validation
// tags of replayed functions must survive the edit of another.
func TestGoldenCorpusEditParityExplainValidate(t *testing.T) {
	for _, mode := range []pt.Mode{pt.Explain, pt.Validate} {
		for _, jobs := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/jobs=%d", mode, jobs), func(t *testing.T) {
				rows(t, mode, true, pt.Config{Cache: pt.DiskEdit, Jobs: jobs, Mode: mode})
			})
		}
	}
}

// goldenEdit returns the edit script of a golden input: the file, then the
// file with a new last function, so every other function keeps its lines
// and exactly one is dirty. Files that include stdlib.h get a leaky
// function, so the edit also changes the output.
func goldenEdit(g *pt.Input) *pt.Input {
	name := g.Name + ".c"
	src := g.Steps[0].Files[name]
	body := "\treturn n + 1;\n"
	if strings.Contains(src, "<stdlib.h>") {
		body = "\tchar *p;\n\n\tp = (char *) malloc (16);\n\tif (p == NULL)\n\t{\n\t\texit (EXIT_FAILURE);\n\t}\n\treturn n + (int) p[0];\n"
	}
	edited := src + "\nint golden_edit_probe (int n)\n{\n" + body + "}\n"
	return &pt.Input{Name: g.Name, Flags: g.Flags, Steps: []pt.Source{g.Steps[0], {Files: map[string]string{name: edited}}},
		Dirty: map[int]int64{1: 1}}
}
