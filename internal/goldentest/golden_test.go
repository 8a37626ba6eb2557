// Package goldentest pins the checker's end-to-end CLI output over a
// corpus of C programs. Each testdata/corpus/*.c file has a matching
// .golden file holding the exact stdout+stderr+exit transcript of a
// golclint run; a file with a .explain.golden or .validate.golden
// transcript is pinned under -explain or -validate too. Any drift in
// message text, ordering, positions, or exit codes fails the test.
// Regenerate with:
//
//	go test ./internal/goldentest -run TestGoldenCorpus -update
//
// To pin a file in another mode, create its transcript empty and run the
// same command.
//
// These are the cold, serial pins. parity_test.go holds cached, parallel
// and edited runs to the same transcripts through internal/paritytest, as
// do the resident-server rows in internal/server.
package goldentest

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"golclint/internal/cli"
	pt "golclint/internal/paritytest"
)

var update = flag.Bool("update", false, "rewrite the .golden files")

// pin runs every corpus file that has a transcript in mode, uncached and
// serial, and holds the output to the transcript, or with -update rewrites
// it. check makes the mode's own demands on the output.
func pin(t *testing.T, mode pt.Mode, check func(t *testing.T, name, got string)) {
	for _, in := range pt.GoldenInputs(t) {
		golden := in.Golden[mode]
		if golden == "" {
			continue
		}
		t.Run(in.Name, func(t *testing.T) {
			args := []string{filepath.Join(pt.CorpusDir, in.Name+".c")}
			if mode != pt.Plain {
				args = append([]string{"-" + mode.String()}, args...)
			}
			if in.Flags != "" {
				args = append([]string{"-flags", in.Flags}, args...)
			}
			var stdout, stderr bytes.Buffer
			code := cli.Run(args, &stdout, &stderr)
			got := fmt.Sprintf("exit %d\n-- stdout --\n%s-- stderr --\n%s", code, &stdout, &stderr)
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output drifted from %s:\n--- got ---\n%s--- want ---\n%s", mode, golden, got, want)
			}
			check(t, in.Name, got)
		})
	}
}

// tagged fails unless got has warnings and as many lines starting with
// tag: warnings start at column 0, the lines under them are indented.
func tagged(t *testing.T, name, got, tag string) {
	var warnings, tags int
	for _, ln := range strings.Split(got, "\n") {
		if strings.HasPrefix(ln, name+".c:") {
			warnings++
		}
		if strings.HasPrefix(strings.TrimSpace(ln), tag) {
			tags++
		}
	}
	if warnings == 0 || tags != warnings {
		t.Errorf("%d warnings but %d %q lines:\n%s", warnings, tags, tag, got)
	}
}

func TestGoldenCorpus(t *testing.T) {
	sawMessages := false
	pin(t, pt.Plain, func(t *testing.T, _, got string) {
		sawMessages = sawMessages || strings.Contains(got, ".c:")
	})
	if !*update && !sawMessages {
		t.Error("no corpus file produced a diagnostic; the corpus is vacuous")
	}
}

// TestGoldenCorpusExplain pins the -explain transcripts: the default
// warning lines plus the indented witness path under each. The pinned
// files hold at least one witness each for use-after-free, leak,
// null-deref, double-free, leak-on-return, null-pass, undefined-use, and
// confluence-merge anomalies.
func TestGoldenCorpusExplain(t *testing.T) {
	pin(t, pt.Explain, func(t *testing.T, name, got string) {
		tagged(t, name, got, "witness")
		if !strings.Contains(got, "[entry]") {
			t.Errorf("witness lacks the entry step:\n%s", got)
		}
	})
}

// TestGoldenCorpusValidate pins the -validate transcripts: each warning
// followed by its validation tag (confirmed / unreproduced /
// path-infeasible) and the reproducing input or search outcome. The pinned
// files cover confirmed faults of every runtime kind plus the honest
// failure modes (static-only anomalies, programs the interpreter cannot
// execute).
func TestGoldenCorpusValidate(t *testing.T) {
	sawConfirmed := false
	pin(t, pt.Validate, func(t *testing.T, name, got string) {
		tagged(t, name, got, "validation:")
		sawConfirmed = sawConfirmed || strings.Contains(got, "validation: confirmed")
	})
	if !*update && !sawConfirmed {
		t.Error("no corpus entry produced a confirmed validation; the suite is vacuous")
	}
}

// The suppression corpus entry must demonstrate both suppression forms:
// messages silenced inside it, the trailing leak still reported.
func TestSuppressionEntryNonVacuous(t *testing.T) {
	if *update {
		t.Skip("golden update run")
	}
	b, err := os.ReadFile(filepath.Join(pt.CorpusDir, "suppression.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out := string(b)
	// quiet() and the ignore/end region span lines 7-17; noisy()'s leak is
	// reported at lines 23-24.
	for line := 1; line <= 17; line++ {
		if strings.Contains(out, fmt.Sprintf("suppression.c:%d:", line)) {
			t.Errorf("message from suppressed region (line %d) leaked:\n%s", line, out)
		}
	}
	if !strings.Contains(out, "suppression.c:23:") {
		t.Errorf("unsuppressed leak in noisy() missing:\n%s", out)
	}
}
