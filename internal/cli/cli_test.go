package cli

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

const fixtureSrc = `extern /*@only@*/ void *malloc(unsigned long);

int leaky (int n)
{
	char *p;
	p = (char *) malloc (10);
	if (n > 0) { p = (char *) 0; }
	return n;
}
`

func writeFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fixture.c")
	if err := os.WriteFile(path, []byte(fixtureSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCLI invokes Run with buffered writers.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := Run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestCacheDirWithoutFlagUnchanged(t *testing.T) {
	src := writeFixture(t)
	_, plain, _ := runCLI(t, src)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	_, cached, _ := runCLI(t, "-cache-dir", cacheDir, src)
	if plain == "" || plain != cached {
		t.Fatalf("cached output differs from plain run:\n%q\nvs\n%q", plain, cached)
	}
}

// -dump-lib needs the analyzed program, so it runs uncached: under
// -cache-dir it writes the same library every time, the same one an
// uncached run writes, and stores nothing. The bytes are pinned, enum
// constants and all: a change to the library's gob types or to the order
// they are written in fails here, not in a .lib that no longer loads.
func TestDumpLibBypassesCache(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "m.c")
	const enums = "enum hue { RED, ORANGE, YELLOW = 5, GREEN, BLUE, INDIGO, VIOLET, GREY };\n"
	if err := os.WriteFile(src, []byte(enums+"int calls;\nint twice (int x) { return x * 2 + GREEN; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")
	var libs [][]byte
	for i, cached := range []bool{false, true, true} {
		path := filepath.Join(dir, fmt.Sprintf("%d.lib", i))
		args := []string{"-dump-lib", path, src}
		if cached {
			args = append([]string{"-cache-dir", cacheDir}, args...)
		}
		if code, _, errOut := runCLI(t, args...); code != 0 {
			t.Fatalf("run %d exit = %d: %s", i, code, errOut)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		libs = append(libs, b)
	}
	if len(libs[0]) == 0 || !bytes.Equal(libs[0], libs[1]) || !bytes.Equal(libs[0], libs[2]) {
		t.Fatalf("library bytes differ: %d uncached, %d and %d under -cache-dir", len(libs[0]), len(libs[1]), len(libs[2]))
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256(libs[0])), "d529b64ee99acb5624a994b8528157f22da6911fe01ffb28236eb6ec84eced09"; got != want {
		t.Errorf("sha256 of the -dump-lib bytes = %s, want %s", got, want)
	}
	if entries, err := os.ReadDir(cacheDir); len(entries) > 0 || (err != nil && !os.IsNotExist(err)) {
		t.Errorf("-dump-lib runs left %d cache entries (%v)", len(entries), err)
	}

	// The dumped library serves modular checking.
	use := filepath.Join(dir, "use.c")
	if err := os.WriteFile(use, []byte("extern int twice (int x);\nint use (void) { return twice (21); }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errOut := runCLI(t, "-lib", filepath.Join(dir, "2.lib"), use); code != 0 {
		t.Fatalf("modular exit = %d: %s", code, errOut)
	}
}

// -cfg disables the cache (a hit has no parsed units to dump), so the CFG
// dump is present and identical on every run.
func TestCFGWithCacheDir(t *testing.T) {
	src := writeFixture(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	_, first, _ := runCLI(t, "-cache-dir", cacheDir, "-cfg", "leaky", src)
	_, second, _ := runCLI(t, "-cache-dir", cacheDir, "-cfg", "leaky", src)
	if first == "" || first != second {
		t.Fatalf("-cfg output unstable under -cache-dir:\n%q\nvs\n%q", first, second)
	}
}
