package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDiagJSONLPinned pins the -diag-jsonl bytes of a two-module shard run
// in every output mode: the field order and tags, the per-module seq reset
// and the text field rendered in the run's own mode. The shard parity rows
// compare streams the same writer produced on both sides, so only literal
// lines can see a format change. The files are named out of module order.
func TestDiagJSONLPinned(t *testing.T) {
	for _, tc := range []struct {
		mode  []string
		lines []string
	}{
		{nil, []string{
			`{"module":"null_deref.c","seq":"00000000","pos":"null_deref.c:5","code":"nullderef","msg":"Dereference of possibly null pointer s: *s","text":"null_deref.c:5: Dereference of possibly null pointer s: *s\n"}`,
			`{"module":"only_leak.c","seq":"00000000","pos":"only_leak.c:9","code":"mustfree","msg":"Only storage p not released before assignment: p = (char *) 0","text":"only_leak.c:9: Only storage p not released before assignment: p = (char *) 0\n   only_leak.c:8: Storage p becomes only\n"}`,
			`{"module":"only_leak.c","seq":"00000001","pos":"only_leak.c:10","code":"mustfree","msg":"Only storage p not released before return","text":"only_leak.c:10: Only storage p not released before return\n   only_leak.c:8: Storage p becomes only\n"}`,
		}},
		{[]string{"-explain"}, []string{
			`{"module":"null_deref.c","seq":"00000000","pos":"null_deref.c:5","code":"nullderef","msg":"Dereference of possibly null pointer s: *s","ref":"s","witness":["null_deref.c:3: [entry] in function first","null_deref.c:5: [path] reached via execution points 1 -\u003e 3","null_deref.c:3: [decl] s declared"],"text":"null_deref.c:5: Dereference of possibly null pointer s: *s\n   witness (s):\n      null_deref.c:3: [entry] in function first\n      null_deref.c:5: [path] reached via execution points 1 -\u003e 3\n      null_deref.c:3: [decl] s declared\n"}`,
			`{"module":"only_leak.c","seq":"00000000","pos":"only_leak.c:9","code":"mustfree","msg":"Only storage p not released before assignment: p = (char *) 0","ref":"p","witness":["only_leak.c:5: [entry] in function leaky","only_leak.c:9: [path] reached via execution points 1 -\u003e 3 -\u003e 4 -\u003e 5","only_leak.c:9: [branch] condition n \u003e 0 assumed true","only_leak.c:7: [decl] p declared","only_leak.c:8: [alloc] fresh storage allocated (only)","only_leak.c:8: [null] p may become null"],"text":"only_leak.c:9: Only storage p not released before assignment: p = (char *) 0\n   only_leak.c:8: Storage p becomes only\n   witness (p):\n      only_leak.c:5: [entry] in function leaky\n      only_leak.c:9: [path] reached via execution points 1 -\u003e 3 -\u003e 4 -\u003e 5\n      only_leak.c:9: [branch] condition n \u003e 0 assumed true\n      only_leak.c:7: [decl] p declared\n      only_leak.c:8: [alloc] fresh storage allocated (only)\n      only_leak.c:8: [null] p may become null\n"}`,
			`{"module":"only_leak.c","seq":"00000001","pos":"only_leak.c:10","code":"mustfree","msg":"Only storage p not released before return","ref":"p","witness":["only_leak.c:5: [entry] in function leaky","only_leak.c:7: [decl] p declared","only_leak.c:8: [alloc] fresh storage allocated (only)","only_leak.c:9: [null] p may become null"],"text":"only_leak.c:10: Only storage p not released before return\n   only_leak.c:8: Storage p becomes only\n   witness (p):\n      only_leak.c:5: [entry] in function leaky\n      only_leak.c:7: [decl] p declared\n      only_leak.c:8: [alloc] fresh storage allocated (only)\n      only_leak.c:9: [null] p may become null\n"}`,
		}},
		{[]string{"-validate"}, []string{
			`{"module":"null_deref.c","seq":"00000000","pos":"null_deref.c:5","code":"nullderef","msg":"Dereference of possibly null pointer s: *s","ref":"s","witness":["null_deref.c:3: [entry] in function first","null_deref.c:5: [path] reached via execution points 1 -\u003e 3","null_deref.c:3: [decl] s declared"],"validation":"confirmed","validation_detail":"reproduced by first(NULL)","text":"null_deref.c:5: Dereference of possibly null pointer s: *s\n   validation: confirmed — reproduced by first(NULL)\n"}`,
			`{"module":"only_leak.c","seq":"00000000","pos":"only_leak.c:9","code":"mustfree","msg":"Only storage p not released before assignment: p = (char *) 0","ref":"p","witness":["only_leak.c:5: [entry] in function leaky","only_leak.c:9: [path] reached via execution points 1 -\u003e 3 -\u003e 4 -\u003e 5","only_leak.c:9: [branch] condition n \u003e 0 assumed true","only_leak.c:7: [decl] p declared","only_leak.c:8: [alloc] fresh storage allocated (only)","only_leak.c:8: [null] p may become null"],"validation":"confirmed","validation_detail":"reproduced by leaky(-1)","text":"only_leak.c:9: Only storage p not released before assignment: p = (char *) 0\n   only_leak.c:8: Storage p becomes only\n   validation: confirmed — reproduced by leaky(-1)\n"}`,
			`{"module":"only_leak.c","seq":"00000001","pos":"only_leak.c:10","code":"mustfree","msg":"Only storage p not released before return","ref":"p","witness":["only_leak.c:5: [entry] in function leaky","only_leak.c:7: [decl] p declared","only_leak.c:8: [alloc] fresh storage allocated (only)","only_leak.c:9: [null] p may become null"],"validation":"confirmed","validation_detail":"reproduced by leaky(-1)","text":"only_leak.c:10: Only storage p not released before return\n   only_leak.c:8: Storage p becomes only\n   validation: confirmed — reproduced by leaky(-1)\n"}`,
		}},
	} {
		path := filepath.Join(t.TempDir(), "d.jsonl")
		args := append([]string{"-shard", "0/1", "-diag-jsonl", path}, tc.mode...)
		code, _, stderr := runCLI(t, append(args, "../../testdata/corpus/only_leak.c", "../../testdata/corpus/null_deref.c")...)
		if code != 1 {
			t.Fatalf("%v: exit %d, stderr %q", tc.mode, code, stderr)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := string(b), strings.Join(tc.lines, "\n")+"\n"; got != want {
			t.Errorf("%v: -diag-jsonl\n%s\nwant\n%s", tc.mode, got, want)
		}
	}
}
