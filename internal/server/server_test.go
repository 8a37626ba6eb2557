package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// leakSource is a minimal program with one leak warning, used all over the
// endpoint tests.
const leakSource = "#include \"stdlib.h\"\n" +
	"int f(void) {\n" +
	"  char *p = (char *) malloc(1);\n" +
	"  return 0;\n" +
	"}\n"

// cleanSource checks without diagnostics.
const cleanSource = "int g(int x) { return x + 1; }\n"

func startTestServer(t *testing.T, o Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postJSON posts raw bytes to /check and returns status plus body.
func postJSON(t *testing.T, base string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// check posts a CheckRequest and decodes the CheckResponse, failing the
// test on a non-200 answer.
func check(t *testing.T, base string, req *CheckRequest) *CheckResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	status, b := postJSON(t, base, body)
	if status != http.StatusOK {
		t.Fatalf("POST /check = %d: %s", status, b)
	}
	var cr CheckResponse
	if err := json.Unmarshal(b, &cr); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, b)
	}
	return &cr
}

func TestCheckBasic(t *testing.T) {
	_, ts := startTestServer(t, Options{})
	cr := check(t, ts.URL, &CheckRequest{Files: map[string]string{"leak.c": leakSource}})
	if cr.Exit != 1 || cr.CacheHit {
		t.Errorf("cold: exit=%d cacheHit=%v", cr.Exit, cr.CacheHit)
	}
	if !strings.Contains(cr.Stdout, "leak.c:") || cr.Stderr != "" {
		t.Errorf("stdout=%q stderr=%q", cr.Stdout, cr.Stderr)
	}
	if len(cr.Diagnostics) != 1 || cr.Diagnostics[0].Code == "" {
		t.Errorf("diagnostics = %+v", cr.Diagnostics)
	}
	if cr.Counters["cache_misses"] != 1 {
		t.Errorf("counters = %v", cr.Counters)
	}

	// Second identical request replays from the resident store.
	warm := check(t, ts.URL, &CheckRequest{Files: map[string]string{"leak.c": leakSource}})
	if !warm.CacheHit || warm.Counters["cache_hits"] != 1 {
		t.Errorf("warm: cacheHit=%v counters=%v", warm.CacheHit, warm.Counters)
	}
	if warm.Exit != cr.Exit || warm.Stdout != cr.Stdout || warm.Stderr != cr.Stderr {
		t.Errorf("warm response drifted: %+v vs %+v", warm, cr)
	}

	// A clean file exits 0 and reports Diagnostics as [], not null.
	clean := check(t, ts.URL, &CheckRequest{Files: map[string]string{"ok.c": cleanSource}})
	if clean.Exit != 0 || clean.Stdout != "" || clean.Diagnostics == nil || len(clean.Diagnostics) != 0 {
		t.Errorf("clean: %+v", clean)
	}
}

func TestCheckModulesDirtyHeader(t *testing.T) {
	srv, ts := startTestServer(t, Options{})
	// take() consumes its only argument, so module a is clean under this
	// interface.
	headers := map[string]string{"api.h": "/*@only@*/ char *mk(void);\nvoid take(/*@only@*/ char *p);\n"}
	mods := map[string]map[string]string{
		"a": {"a.c": "#include \"api.h\"\nint use(void) { char *p = mk(); take(p); return 0; }\n"},
		"b": {"b.c": cleanSource},
	}
	cold := check(t, ts.URL, &CheckRequest{Modules: mods, Headers: headers})
	if cold.CacheHit {
		t.Error("cold run reported cache hit")
	}
	if cold.Exit != 0 || cold.Stdout != "" || cold.Stderr != "" {
		t.Errorf("cold: exit=%d stdout=%q stderr=%q", cold.Exit, cold.Stdout, cold.Stderr)
	}
	warm := check(t, ts.URL, &CheckRequest{Modules: mods, Headers: headers})
	if !warm.CacheHit || warm.Counters["cache_hits"] != 2 {
		t.Errorf("warm: cacheHit=%v counters=%v", warm.CacheHit, warm.Counters)
	}
	if warm.Stdout != cold.Stdout || warm.Stderr != cold.Stderr || warm.Exit != cold.Exit {
		t.Errorf("warm drifted from cold")
	}
	if srv.sess.ResidentLibraries() != 1 {
		t.Errorf("resident libraries = %d", srv.sess.ResidentLibraries())
	}

	// Edit one module: only that module re-checks.
	mods2 := map[string]map[string]string{
		"a": mods["a"],
		"b": {"b.c": "int g(int x) { return x + 2; }\n"},
	}
	dirty := check(t, ts.URL, &CheckRequest{Modules: mods2, Headers: headers})
	if dirty.CacheHit {
		t.Error("dirty run reported full cache hit")
	}
	if dirty.Counters["cache_hits"] != 1 || dirty.Counters["cache_misses"] != 1 {
		t.Errorf("dirty counters = %v (want 1 hit, 1 miss)", dirty.Counters)
	}

	// Change take's interface so it no longer consumes its argument: the
	// dependent module (a) re-checks — invalidation rides the per-symbol
	// fingerprints recorded in its cache entry — and now reports the leak
	// the old interface absorbed. A stale replay would show a clean module.
	headers2 := map[string]string{"api.h": "/*@only@*/ char *mk(void);\nvoid take(char *p);\n"}
	hdirty := check(t, ts.URL, &CheckRequest{Modules: mods2, Headers: headers2})
	if hdirty.Counters["cache_misses"] == 0 {
		t.Errorf("header edit did not invalidate dependents: %v", hdirty.Counters)
	}
	if hdirty.Exit != 1 || !strings.Contains(hdirty.Stdout, "a.c:2: Only storage p not released") {
		t.Errorf("post-edit diagnostics missing (stale replay?): exit=%d stdout=%q", hdirty.Exit, hdirty.Stdout)
	}
	if srv.sess.ResidentLibraries() != 2 {
		t.Errorf("resident libraries = %d", srv.sess.ResidentLibraries())
	}
}

func TestCheckRejections(t *testing.T) {
	srv, ts := startTestServer(t, Options{MaxBodyBytes: 32 << 10})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{"files":`, http.StatusBadRequest},
		{"wrong type", `[1,2,3]`, http.StatusBadRequest},
		{"unknown field", `{"files":{"a.c":"int x;"},"bogus":1}`, http.StatusBadRequest},
		{"trailing data", `{"files":{"a.c":"int x;"}} {"again":1}`, http.StatusBadRequest},
		{"neither files nor modules", `{"flags":"+null"}`, http.StatusBadRequest},
		{"both files and modules", `{"files":{"a.c":"x"},"modules":{"m":{"b.c":"y"}}}`, http.StatusBadRequest},
		{"negative jobs", `{"files":{"a.c":"int x;"},"jobs":-1}`, http.StatusBadRequest},
		{"absurd jobs", `{"files":{"a.c":"int x;"},"jobs":100000}`, http.StatusBadRequest},
		{"empty file name", `{"files":{"":"int x;"}}`, http.StatusBadRequest},
		{"flag-like file name", `{"files":{"-jobs":"int x;"}}`, http.StatusBadRequest},
		{"empty module", `{"modules":{"m":{}}}`, http.StatusBadRequest},
		{"unknown toggle", `{"files":{"a.c":"int x;"},"flags":"+nosuchflag"}`, http.StatusBadRequest},
		{"oversized body", `{"files":{"a.c":"` + strings.Repeat("x", 64<<10) + `"}}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, b := postJSON(t, ts.URL, []byte(tc.body))
			if status != tc.want {
				t.Errorf("status = %d, want %d (%s)", status, tc.want, b)
			}
			var er errorResponse
			if err := json.Unmarshal(b, &er); err != nil || er.Error == "" {
				t.Errorf("error body = %s", b)
			}
		})
	}
	if got := srv.StatsSnapshot().Errors; got != int64(len(cases)) {
		t.Errorf("errors counter = %d, want %d", got, len(cases))
	}
	// Rejections must not have touched resident state.
	if s := srv.StatsSnapshot(); s.CacheStores["mem"].Entries != 0 || s.Requests != 0 {
		t.Errorf("rejected requests touched resident state: %+v", s)
	}
}

func TestMethodsAndHealth(t *testing.T) {
	srv, ts := startTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/check")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /check = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(b) != "ok\n" {
		t.Errorf("GET /healthz = %d %q", resp.StatusCode, b)
	}

	check(t, ts.URL, &CheckRequest{Files: map[string]string{"leak.c": leakSource}})
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var st Stats
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("decoding /stats: %v\n%s", err, b)
	}
	// One checked module yields a module-level cache entry plus one
	// function-granular sub-entry (leak.c has a single function).
	if st.Schema != "golclint-serve-stats/v1" || st.Requests != 1 || st.CacheStores["mem"].Entries != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.Counters["cache_misses"] != 1 {
		t.Errorf("aggregated counters = %v", st.Counters)
	}
	_ = srv
}

// Per-client limiting: a client at its in-flight bound is answered 429;
// other clients are unaffected.
func TestPerClientLimit(t *testing.T) {
	srv, ts := startTestServer(t, Options{PerClient: 1})
	// Hold one slot for client "ci-1" white-box, then issue a request under
	// the same identity: deterministically over the limit.
	if !srv.admit("ci-1") {
		t.Fatal("first admit refused")
	}
	body, _ := json.Marshal(&CheckRequest{Files: map[string]string{"ok.c": cleanSource}})
	req, _ := http.NewRequest("POST", ts.URL+"/check", bytes.NewReader(body))
	req.Header.Set("X-Golclint-Client", "ci-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-limit request = %d, want 429", resp.StatusCode)
	}
	// A different client proceeds.
	req2, _ := http.NewRequest("POST", ts.URL+"/check", bytes.NewReader(body))
	req2.Header.Set("X-Golclint-Client", "ci-2")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("other client = %d, want 200", resp2.StatusCode)
	}
	srv.release("ci-1")
	// The freed slot admits again.
	req3, _ := http.NewRequest("POST", ts.URL+"/check", bytes.NewReader(body))
	req3.Header.Set("X-Golclint-Client", "ci-1")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("after release = %d, want 200", resp3.StatusCode)
	}
	if srv.StatsSnapshot().Rejected != 1 {
		t.Errorf("rejected counter = %d", srv.StatsSnapshot().Rejected)
	}
}

// Coalescing, tested deterministically by driving each role directly
// (tests live in the package, so no scheduling races decide who leads).
func TestCoalesceSharesOneComputation(t *testing.T) {
	srv, _ := startTestServer(t, Options{})

	// Leader path, uncontended: compute runs, the result comes back
	// unmarked, and the flight is retired afterwards.
	computes := 0
	b, coal := srv.coalesce("k1", func() []byte { computes++; return []byte("payload") })
	if coal || string(b) != "payload" || computes != 1 {
		t.Errorf("leader: %q coal=%v computes=%d", b, coal, computes)
	}
	srv.mu.Lock()
	if len(srv.inflight) != 0 {
		t.Errorf("flight not retired: %d in flight", len(srv.inflight))
	}
	srv.mu.Unlock()

	// Follower path: with a flight already in the table, a caller for the
	// same key never computes — it blocks on the flight and then shares the
	// leader's bytes verbatim. The flight is planted by hand so follower-
	// hood is certain, not a race outcome.
	f := &flight{done: make(chan struct{})}
	srv.mu.Lock()
	srv.inflight["k2"] = f
	srv.mu.Unlock()
	const followers = 4
	results := make(chan string, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, coal := srv.coalesce("k2", func() []byte {
				t.Error("follower computed")
				return nil
			})
			if !coal {
				t.Error("follower not marked coalesced")
			}
			results <- string(b)
		}()
	}
	// Distinct keys are not coalesced even while k2 is in flight.
	if b, coal := srv.coalesce("k3", func() []byte { return []byte("other") }); coal || string(b) != "other" {
		t.Errorf("distinct key coalesced: %q %v", b, coal)
	}
	// Complete the flight the way a leader does — publish bytes, wake
	// followers — but retire it only after every follower has returned, so
	// a follower scheduled late still finds the flight (whether a given
	// follower blocks on done or arrives to it already closed, the shared
	// bytes are the same; both interleavings are valid and covered).
	f.body = []byte("shared")
	close(f.done)
	wg.Wait()
	srv.mu.Lock()
	delete(srv.inflight, "k2")
	srv.mu.Unlock()
	for i := 0; i < followers; i++ {
		if got := <-results; got != "shared" {
			t.Errorf("follower got %q", got)
		}
	}
	// With the flight retired, the next caller for k2 leads afresh.
	if b, coal := srv.coalesce("k2", func() []byte { return []byte("fresh") }); coal || string(b) != "fresh" {
		t.Errorf("retired key: %q coal=%v", b, coal)
	}
}

// requestKey must be insensitive to map construction order and sensitive to
// content.
func TestRequestKeyCanonical(t *testing.T) {
	a := &CheckRequest{Files: map[string]string{}}
	b := &CheckRequest{Files: map[string]string{}}
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("f%02d.c", i)
		a.Files[name] = "int x;"
	}
	for i := 49; i >= 0; i-- {
		name := fmt.Sprintf("f%02d.c", i)
		b.Files[name] = "int x;"
	}
	if requestKey(a) != requestKey(b) {
		t.Error("insertion order changed the request key")
	}
	b.Files["f00.c"] = "int y;"
	if requestKey(a) == requestKey(b) {
		t.Error("content change did not change the request key")
	}
	if requestKey(a) == requestKey(&CheckRequest{Files: a.Files, Explain: true}) {
		t.Error("explain flag did not change the request key")
	}
}

// Every field of a request reaches its key: changing any one of them, a
// file name, or a single source byte gives another key, and moving an
// entry from one map to another does too. Map construction order does not.
func TestRequestKeyDiscrimination(t *testing.T) {
	base := func() *CheckRequest {
		return &CheckRequest{
			Files:   map[string]string{"a.c": "int x;", "b.c": "int y;"},
			Modules: map[string]map[string]string{"m": {"m.c": "int z;"}, "n": {"n.c": "int w;"}},
			Headers: map[string]string{"h.h": "extern int x;"},
			Flags:   "+null", Jobs: 2, Explain: true, Validate: true, Max: 5,
		}
	}
	want := requestKey(base())
	variants := map[string]func(r *CheckRequest){
		"file-byte":      func(r *CheckRequest) { r.Files["a.c"] = "int X;" },
		"file-name":      func(r *CheckRequest) { r.Files["c.c"] = r.Files["a.c"]; delete(r.Files, "a.c") },
		"file-dropped":   func(r *CheckRequest) { delete(r.Files, "b.c") },
		"module-byte":    func(r *CheckRequest) { r.Modules["m"]["m.c"] = "int Z;" },
		"module-name":    func(r *CheckRequest) { r.Modules["o"] = r.Modules["m"]; delete(r.Modules, "m") },
		"module-file":    func(r *CheckRequest) { r.Modules["m"]["o.c"] = r.Modules["m"]["m.c"]; delete(r.Modules["m"], "m.c") },
		"header-byte":    func(r *CheckRequest) { r.Headers["h.h"] = "extern int X;" },
		"file-to-header": func(r *CheckRequest) { r.Headers["a.c"] = r.Files["a.c"]; delete(r.Files, "a.c") },
		"module-split": func(r *CheckRequest) {
			r.Modules["m"]["n.c"] = r.Modules["n"]["n.c"]
			delete(r.Modules, "n")
		},
		"flags":    func(r *CheckRequest) { r.Flags = "-null" },
		"jobs":     func(r *CheckRequest) { r.Jobs = 3 },
		"explain":  func(r *CheckRequest) { r.Explain = false },
		"validate": func(r *CheckRequest) { r.Validate = false },
		"max":      func(r *CheckRequest) { r.Max = 6 },
	}
	seen := map[string]string{want: "base"}
	for name, mutate := range variants {
		r := base()
		mutate(r)
		k := requestKey(r)
		if other, dup := seen[k]; dup {
			t.Errorf("%s: key equals %s's", name, other)
		}
		seen[k] = name
	}
	// Same content built in the opposite order.
	r := &CheckRequest{
		Files:   map[string]string{},
		Modules: map[string]map[string]string{},
		Headers: map[string]string{"h.h": "extern int x;"},
		Flags:   "+null", Jobs: 2, Explain: true, Validate: true, Max: 5,
	}
	r.Modules["n"] = map[string]string{"n.c": "int w;"}
	r.Modules["m"] = map[string]string{"m.c": "int z;"}
	r.Files["b.c"] = "int y;"
	r.Files["a.c"] = "int x;"
	if requestKey(r) != want {
		t.Error("construction order changed the key")
	}
}

// A dirty single-function edit against the resident cache: only the edited
// function re-checks, the rest replay, and the response matches a cold
// server's answer on the same edited source byte for byte. Concurrent
// edited requests exercise the function-granular layer against the shared
// resident store (the CI race job runs this under -race).
func TestDirtyEditFunctionGranular(t *testing.T) {
	base := "#include \"stdlib.h\"\n" +
		"int keep(int n) {\n" +
		"  char *p = (char *) malloc(1);\n" +
		"  return n;\n" +
		"}\n" +
		"int touched(int n) {\n" +
		"  return n + 1;\n" +
		"}\n"
	edited := strings.Replace(base, "return n + 1;", "return n + 2;", 1)

	_, warmTS := startTestServer(t, Options{})
	cold := check(t, warmTS.URL, &CheckRequest{Files: map[string]string{"ed.c": base}})
	if cold.Counters["func_cache_misses"] != 2 {
		t.Fatalf("cold counters = %v", cold.Counters)
	}
	dirty := check(t, warmTS.URL, &CheckRequest{Files: map[string]string{"ed.c": edited}})
	if dirty.Counters["func_cache_hits"] != 1 || dirty.Counters["func_cache_misses"] != 1 {
		t.Errorf("dirty-edit counters = %v, want 1 hit / 1 miss", dirty.Counters)
	}

	_, coldTS := startTestServer(t, Options{})
	ref := check(t, coldTS.URL, &CheckRequest{Files: map[string]string{"ed.c": edited}})
	if dirty.Exit != ref.Exit || dirty.Stdout != ref.Stdout || dirty.Stderr != ref.Stderr {
		t.Errorf("dirty edit diverged from cold reference:\n--- warm ---\n%s--- cold ---\n%s",
			dirty.Stdout, ref.Stdout)
	}

	// Concurrent distinct edits against the same resident store.
	variants := []string{
		strings.Replace(base, "return n + 1;", "return n + 3;", 1),
		strings.Replace(base, "return n;", "return n - 1;", 1),
	}
	var wg sync.WaitGroup
	outs := make([]string, 4)
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cr := check(t, warmTS.URL, &CheckRequest{Files: map[string]string{"ed.c": variants[i%2]}})
			outs[i] = cr.Stdout
		}()
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		want := check(t, coldTS.URL, &CheckRequest{Files: map[string]string{"ed.c": variants[i%2]}})
		if outs[i] != want.Stdout {
			t.Errorf("concurrent edited request %d diverged:\n--- warm ---\n%s--- cold ---\n%s",
				i, outs[i], want.Stdout)
		}
	}
}
