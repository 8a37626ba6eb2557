package server_test

import (
	"fmt"
	"testing"

	pt "golclint/internal/paritytest"
	"golclint/internal/testgen"
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

// The batch rows: one Modules request per input, one module per file,
// checked against the library built from the request's headers. Each
// response must equal the CLI's per-module run against the same library:
// -dump-lib over the headers, then -shard 0/1 -lib over the files. In the
// hand-written inputs, a.c calls mk without declaring it, so only the
// library tells the checker mk may return null. In "chained", mk's
// declaration needs a type from another header that mk.h includes.
func TestServerBatchParity(t *testing.T) {
	use := "void use (void)\n{\n\tchar *p = mk ();\n\t*p = 0;\n}\n"
	ins := []*pt.Input{{Name: "libonly", Steps: []pt.Source{{
		Files: map[string]string{
			"a.c": use,
			"b.c": "#include \"mk.h\"\n\nvoid keep (void)\n{\n\tchar *q = dup (\"b\");\n}\n",
		},
		Headers: map[string]string{"mk.h": "extern /*@null@*/ char *mk (void);\nextern /*@only@*/ char *dup (char *s);\n"},
	}}}, {Name: "chained", Steps: []pt.Source{{
		Files: map[string]string{"a.c": use},
		Headers: map[string]string{
			"t.h":  "typedef char *str;\n",
			"mk.h": "#include \"t.h\"\nextern /*@null@*/ str mk (void);\n",
		},
	}}}}
	p := testgen.Generate(testgen.Config{Seed: 11, Modules: 4, FuncsPer: 3, Annotate: true, Bugs: pt.AllBugs(2)})
	ins = append(ins, &pt.Input{Name: "seed11", Steps: []pt.Source{pt.Generated(p)}})
	pt.Corpus(t, ins, func(*pt.Input) []pt.Config {
		var cs []pt.Config
		for _, mode := range []pt.Mode{pt.Plain, pt.Explain, pt.Validate} {
			for _, jobs := range []int{1, 4} {
				cs = append(cs, pt.Config{Cache: pt.Resident, Lib: true, Jobs: jobs, Mode: mode})
			}
		}
		return cs
	})
}
