package testgen

// Seeded-bug regression suite: a recall/precision harness over the
// generator's ground truth. Every labelled bug must be reported with the
// expected diagnostic code at the expected line (recall = 1), and no
// diagnostic may appear that is not attributable to a seeded bug
// (precision = 1). A regression in either direction — a missed bug or a
// new false positive — fails the suite.

import (
	"fmt"
	"testing"

	"golclint/internal/core"
	"golclint/internal/cpp"
	"golclint/internal/diag"
	"golclint/internal/validate"
)

// expectedCodes maps each bug kind to the diagnostic codes acceptable for
// its primary report. Most kinds map to exactly one code; double-free may
// legitimately surface as either use-after-release (the second free reads
// the dead pointer) or an explicit double-release.
func expectedCodes(k BugKind) []diag.Code {
	switch k {
	case BugLeak, BugCondLeak:
		return []diag.Code{diag.Leak, diag.LeakReturn}
	case BugUseAfterFree:
		return []diag.Code{diag.UseDead}
	case BugDoubleFree:
		return []diag.Code{diag.UseDead, diag.DoubleRelease}
	case BugNullDeref:
		return []diag.Code{diag.NullDeref}
	case BugUninit:
		return []diag.Code{diag.UseUndef}
	}
	return nil
}

// runRecall checks p and cross-references every diagnostic against the
// seeded ground truth, reporting failures through t.
func runRecall(t *testing.T, p *Program) {
	t.Helper()
	res := core.CheckSources(p.Files, core.Options{Includes: cpp.MapIncluder(p.Headers)})
	if len(res.ParseErrors) > 0 || len(res.SemaErrors) > 0 {
		t.Fatalf("frontend errors: %v %v", res.ParseErrors, res.SemaErrors)
	}

	matched := make([]bool, len(p.Bugs))
	matches := func(b SeededBug, d *diag.Diagnostic) bool {
		if d.Pos.File.String() != b.File || int(d.Pos.Line) != b.Line {
			return false
		}
		for _, c := range expectedCodes(b.Kind) {
			if d.Code == c {
				return true
			}
		}
		return false
	}

	// Precision: every diagnostic must be attributable to a seeded bug.
	for _, d := range res.Diags {
		claimed := false
		for i, b := range p.Bugs {
			if matches(b, d) {
				matched[i] = true
				claimed = true
			}
		}
		if !claimed {
			t.Errorf("false positive (no seeded bug at this site): %s [%s]", d, d.Code)
		}
	}
	// Recall: every seeded bug must have produced its expected report.
	for i, b := range p.Bugs {
		if !matched[i] {
			t.Errorf("missed bug: %v in %s/%s expected %v at %s:%d\nmessages:\n%s",
				b.Kind, b.File, b.Func, expectedCodes(b.Kind), b.File, b.Line, res.Messages())
		}
	}
}

// The full kind mix, several instances of each, across several seeds: the
// checker reports each seeded bug at its recorded line with a matching
// code, and nothing else.
func TestSeededBugRecallPrecision(t *testing.T) {
	for seed := int64(300); seed < 304; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			p := Generate(Config{
				Seed: seed, Modules: 4, FuncsPer: 3, Annotate: true,
				Bugs: map[BugKind]int{
					BugLeak: 2, BugCondLeak: 2, BugUseAfterFree: 2,
					BugDoubleFree: 2, BugNullDeref: 2, BugUninit: 2,
				},
			})
			if len(p.Bugs) != 12 {
				t.Fatalf("seeded %d bugs, want 12", len(p.Bugs))
			}
			runRecall(t, p)
		})
	}
}

// Each kind alone: isolates a regression to the kind that caused it.
func TestSeededBugRecallPerKind(t *testing.T) {
	for _, k := range AllBugKinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			p := Generate(Config{
				Seed: 310, Modules: 2, FuncsPer: 2, Annotate: true,
				Bugs: map[BugKind]int{k: 3},
			})
			runRecall(t, p)
		})
	}
}

// Confirmed precision: counterexample validation over the seeded corpus.
// Every diagnostic the checker reports at a seeded bug's site must validate
// `confirmed` — the interpreter reproduces the fault from a generated input.
// A `path-infeasible` tag on a seeded line is a validation-search regression
// (the seeded bugs are all reachable by construction), and an unconfirmed
// seeded report means the static claim could not be demonstrated.
func TestSeededBugConfirmedPrecision(t *testing.T) {
	for seed := int64(330); seed < 333; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			p := Generate(Config{
				Seed: seed, Modules: 4, FuncsPer: 3, Annotate: true,
				Bugs: map[BugKind]int{
					BugLeak: 2, BugCondLeak: 2, BugUseAfterFree: 2,
					BugDoubleFree: 2, BugNullDeref: 2, BugUninit: 2,
				},
			})
			res := core.CheckSources(p.Files, core.Options{
				Includes: cpp.MapIncluder(p.Headers), Explain: true,
			})
			if len(res.ParseErrors) > 0 || len(res.SemaErrors) > 0 {
				t.Fatalf("frontend errors: %v %v", res.ParseErrors, res.SemaErrors)
			}
			sum := validate.Apply(res.Program, res.Diags, validate.Options{})
			if sum.Examined != len(res.Diags) {
				t.Errorf("validated %d of %d diagnostics", sum.Examined, len(res.Diags))
			}
			seededSite := func(d *diag.Diagnostic) bool {
				for _, b := range p.Bugs {
					if d.Pos.File.String() == b.File && int(d.Pos.Line) == b.Line {
						return true
					}
				}
				return false
			}
			for _, d := range res.Diags {
				if !seededSite(d) {
					continue
				}
				if d.Validation == nil {
					t.Errorf("seeded-site diagnostic left untagged: %s", d)
					continue
				}
				if d.Validation.Tag == diag.PathInfeasible {
					t.Errorf("seeded-site diagnostic tagged path-infeasible (seeded bugs are reachable by construction): %s — %s",
						d, d.Validation.Detail)
				}
				if d.Validation.Tag != diag.Confirmed {
					t.Errorf("seeded-site diagnostic not confirmed (%s): %s — %s",
						d.Validation.Tag, d, d.Validation.Detail)
				}
			}
		})
	}
}

// The ground-truth lines land on the bug function's anomaly statement,
// not on a brace or comment (guards the anomalyLineOffset table against
// template drift).
func TestSeededBugLinesPointAtCode(t *testing.T) {
	p := Generate(Config{
		Seed: 320, Modules: 3, FuncsPer: 2, Annotate: true,
		Bugs: map[BugKind]int{
			BugLeak: 1, BugCondLeak: 1, BugUseAfterFree: 1,
			BugDoubleFree: 1, BugNullDeref: 1, BugUninit: 1,
		},
	})
	for _, b := range p.Bugs {
		lines := splitLines(p.Files[b.File])
		if b.Line < 1 || b.Line > len(lines) {
			t.Fatalf("%v: line %d out of range for %s", b.Kind, b.Line, b.File)
		}
		text := lines[b.Line-1]
		switch text {
		case "", "{", "}":
			t.Errorf("%v: line %d of %s is %q, not a statement", b.Kind, b.Line, b.File, text)
		}
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, trimIndent(s[start:i]))
			start = i + 1
		}
	}
	return append(out, trimIndent(s[start:]))
}

func trimIndent(s string) string {
	for len(s) > 0 && (s[0] == '\t' || s[0] == ' ') {
		s = s[1:]
	}
	return s
}
