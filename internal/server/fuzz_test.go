package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// fuzzServer is shared across fuzz executions (and so across the whole
// corpus): any request that poisons resident state breaks the known-good
// probe in a later execution, which is exactly what we want to detect.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func fuzzHandler(t testing.TB) http.Handler {
	fuzzOnce.Do(func() {
		var err error
		fuzzSrv, err = New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		// A small body cap keeps oversized-input executions cheap; the cap
		// path itself (413) is part of the surface under test.
		fuzzSrv.maxBody = 1 << 20
	})
	return fuzzSrv.Handler()
}

// probe posts the known-good request and fails if the server no longer
// answers it correctly — the resident-state poisoning check.
func probe(t testing.TB, h http.Handler) {
	body, _ := json.Marshal(&CheckRequest{Files: map[string]string{"probe.c": "int ok(int x) { return x; }\n"}})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/check", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("known-good probe = %d after fuzzed request: %s", rec.Code, rec.Body)
	}
	var cr CheckResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
		t.Fatalf("probe response undecodable: %v", err)
	}
	if cr.Exit != 0 || cr.Stdout != "" || cr.Stderr != "" {
		t.Fatalf("probe drifted: %+v", cr)
	}
}

// FuzzServeRequest throws arbitrary bytes at the /check decoder and the
// flag-fingerprint path behind it. Contract: the server never panics
// (a panic fails the fuzz run via the HTTP handler's unwinding), never
// answers 5xx, rejects garbage with 4xx, and — the resident-state half —
// still answers a known-good request correctly afterwards.
func FuzzServeRequest(f *testing.F) {
	// Real requests, valid and invalid, seed the corpus.
	seed := func(req *CheckRequest) {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(&CheckRequest{Files: map[string]string{"m.c": "#include \"stdlib.h\"\nint f(void) { char *p = (char *) malloc(1); return 0; }\n"}})
	seed(&CheckRequest{Files: map[string]string{"m.c": "int x;\n"}, Flags: "+null -def", Jobs: 2, Explain: true})
	seed(&CheckRequest{Modules: map[string]map[string]string{"a": {"a.c": "int f(void);\n"}}, Headers: map[string]string{"h.h": "int g(void);\n"}})
	seed(&CheckRequest{Files: map[string]string{"m.c": "int x;\n"}, Validate: true})
	seed(&CheckRequest{Files: map[string]string{"m.c": "int x;\n"}, Jobs: 1 << 30})          // absurd jobs
	seed(&CheckRequest{Files: map[string]string{"m.c": "int x;\n"}, Flags: "+nosuchflag"})   // unknown toggle
	seed(&CheckRequest{Files: map[string]string{"-flags": "int x;\n"}})                      // flag-injection name
	seed(&CheckRequest{Files: map[string]string{"m.c": strings.Repeat("x", 4096)}, Max: -3}) // negative max
	seed(&CheckRequest{Headers: map[string]string{"h.h": "int g(void);\n"}})                 // neither files nor modules
	f.Add([]byte(`{"files":`))                                                               // truncated JSON
	f.Add([]byte(`[]`))                                                                      // wrong type
	f.Add([]byte(`{"files":{"a.c":"int x;"},"extra":true}`))                                 // unknown field
	f.Add([]byte(`{"files":{"a.c":"int x;"}}{"q":1}`))                                       // trailing data
	f.Add([]byte(strings.Repeat("{", 10000)))                                                // deep nesting
	f.Add(bytes.Repeat([]byte("A"), 4096))                                                   // non-JSON bulk

	f.Fuzz(func(t *testing.T, body []byte) {
		h := fuzzHandler(t)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/check", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("5xx on fuzzed request: %d %s", rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			// Rejections must be well-formed JSON errors, not raw panics or
			// half-written bodies.
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("malformed %d error body: %s", rec.Code, rec.Body)
			}
		}
		probe(t, h)
	})
}
