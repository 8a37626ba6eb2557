package library

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"golclint/internal/core"
	"golclint/internal/cpp"
	"golclint/internal/sema"
	"golclint/internal/testgen"
)

// TestSymbolFingerprintsPinned pins the per-symbol fingerprints of a fixed
// generated program. Declared positions are rendered into them, and they
// are recorded as function-cache dependencies, so however positions are
// represented in memory, these strings may not move. One module checked
// against the others' installed library must see the same fingerprints:
// library records carry every declared position through. The library's
// own Fingerprints map, which the module cache records as dependencies, is
// pinned too.
func TestSymbolFingerprintsPinned(t *testing.T) {
	p := testgen.Generate(testgen.Config{Seed: 21, Modules: 3, FuncsPer: 2, Annotate: true,
		Bugs: map[testgen.BugKind]int{testgen.BugLeak: 1, testgen.BugNullDeref: 1}})
	whole := analyzeAll(t, p.Files, p.Headers)
	const want = "cd816815df95e477f2b454d105f806525a36f178f0fcc9a408054b00723e4b85"
	if got := symbolDigest(whole.Program); got != want {
		t.Errorf("whole program: sha256 of SymbolFingerprints = %s, want %s", got, want)
	}
	const wantLib = "3c87140d611b17a479a35e4fa7d46b0c025266addddd5d82e233e05929bbce46"
	if got := fingerprintDigest(Build(whole.Program).Fingerprints()); got != wantLib {
		t.Errorf("whole program: sha256 of Library.Fingerprints = %s, want %s", got, wantLib)
	}
	mod := core.CheckSources(map[string]string{"mod0.c": p.Files["mod0.c"]}, core.Options{
		Includes: cpp.MapIncluder(p.Headers),
		PreCheck: Build(whole.Program).Install,
	})
	if got := symbolDigest(mod.Program); got != want {
		t.Errorf("mod0.c with the library installed: sha256 of SymbolFingerprints = %s, want %s", got, want)
	}
}

// fingerprintDigest hashes a fingerprint map in name order.
func fingerprintDigest(fp map[string]string) string {
	names := make([]string, 0, len(fp))
	for n := range fp {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s=%s\n", n, fp[n])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// symbolDigest hashes the fingerprint of every function and global of
// prog, in name order.
func symbolDigest(prog *sema.Program) string {
	fp := SymbolFingerprints(prog)
	all := map[string]string{}
	for n := range prog.Funcs {
		all[n] = fp(n)
	}
	for n := range prog.Globals {
		all[n] = fp(n)
	}
	return fingerprintDigest(all)
}
