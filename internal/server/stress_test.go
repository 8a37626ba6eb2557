// Concurrency stress: N goroutine clients issue overlapping check and
// dirty-edit request mixes against one server. Every response's
// deterministic subset (exit, stdout, stderr, diagnostics) must equal the
// reference computed on an idle server, regardless of interleaving, cache
// warmth, or which request computed first; afterwards the resident cache must hold every
// distinct outcome (no lost updates). Run under -race in CI.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
)

// stressPool builds the request mix: distinct modules, dirty-edit variants
// of the same file names, a modules batch, and explain/validate flavors.
func stressPool() []*CheckRequest {
	leakV1 := "#include \"stdlib.h\"\nint f(void) {\n  char *p = (char *) malloc(1);\n  return 0;\n}\n"
	leakV2 := "#include \"stdlib.h\"\nint f(void) {\n  char *p = (char *) malloc(2);\n  free(p);\n  return 0;\n}\n"
	headers := map[string]string{"api.h": "/*@only@*/ char *mk(void);\nvoid take(/*@only@*/ char *p);\n"}
	modA := map[string]string{"a.c": "#include \"api.h\"\nint use(void) { char *p = mk(); take(p); return 0; }\n"}
	modAEdit := map[string]string{"a.c": "#include \"api.h\"\nint use(void) { char *p = mk(); return 0; }\n"}
	return []*CheckRequest{
		{Files: map[string]string{"m.c": leakV1}},
		{Files: map[string]string{"m.c": leakV2}}, // dirty edit of the same name
		{Files: map[string]string{"m.c": leakV1}, Explain: true},
		{Files: map[string]string{"m.c": leakV1}, Validate: true},
		{Files: map[string]string{"m.c": leakV1}, Jobs: 4},
		{Files: map[string]string{"clean.c": "int g(int x) { return x; }\n"}},
		{Modules: map[string]map[string]string{"a": modA, "b": {"b.c": "int h(void) { return 1; }\n"}}, Headers: headers},
		{Modules: map[string]map[string]string{"a": modAEdit}, Headers: headers},
		{Files: map[string]string{"flag.c": "int z;\n"}, Flags: "-null"},
	}
}

// subset is the deterministic part of a response.
type subset struct {
	Exit        int
	Stdout      string
	Stderr      string
	Diagnostics []StatsDiagKey
}

// StatsDiagKey flattens one structured diagnostic for comparison.
type StatsDiagKey struct {
	Pos, Code, Msg, Validation string
	Witness                    int
}

func toSubset(cr *CheckResponse) subset {
	s := subset{Exit: cr.Exit, Stdout: cr.Stdout, Stderr: cr.Stderr}
	for _, d := range cr.Diagnostics {
		s.Diagnostics = append(s.Diagnostics, StatsDiagKey{d.Pos, d.Code, d.Msg, d.Validation, len(d.Witness)})
	}
	return s
}

func TestStressConcurrentClients(t *testing.T) {
	pool := stressPool()

	// References from an idle server, one cold request each.
	_, refTS := startTestServer(t)
	refs := make([]subset, len(pool))
	for i, req := range pool {
		refs[i] = toSubset(check(t, refTS.URL, req))
	}

	srv, ts := startTestServer(t)
	const (
		workers = 8
		iters   = 12
	)
	var wg sync.WaitGroup
	errs := make(chan string, workers*iters)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < iters; i++ {
				idx := (w*7 + i*3) % len(pool)
				req := pool[idx]
				body, _ := json.Marshal(req)
				hr, err := http.NewRequest("POST", ts.URL+"/check", bytes.NewReader(body))
				if err != nil {
					errs <- err.Error()
					return
				}
				hr.Header.Set("X-Golclint-Client", fmt.Sprintf("worker-%d", w))
				resp, err := client.Do(hr)
				if err != nil {
					errs <- err.Error()
					return
				}
				var cr CheckResponse
				derr := json.NewDecoder(resp.Body).Decode(&cr)
				resp.Body.Close()
				if derr != nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("worker %d req %d: status %d decode %v", w, idx, resp.StatusCode, derr)
					continue
				}
				if got := toSubset(&cr); !reflect.DeepEqual(got, refs[idx]) {
					errs <- fmt.Sprintf("worker %d req %d: nondeterministic response:\n got %+v\nwant %+v", w, idx, got, refs[idx])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// No lost updates: after the storm, every distinct request is resident —
	// re-posting each must be a full cache hit with the reference subset.
	for i, req := range pool {
		cr := check(t, ts.URL, req)
		if !cr.CacheHit {
			t.Errorf("req %d not resident after stress (lost update)", i)
		}
		if got := toSubset(cr); !reflect.DeepEqual(got, refs[i]) {
			t.Errorf("req %d drifted after stress:\n got %+v\nwant %+v", i, got, refs[i])
		}
	}
	st := srv.StatsSnapshot()
	if st.Requests != workers*iters+int64(len(pool)) {
		t.Errorf("requests counter = %d, want %d", st.Requests, workers*iters+len(pool))
	}
	if st.Errors != 0 || st.Rejected != 0 {
		t.Errorf("stress produced errors/rejections: %+v", st)
	}
}

// Concurrent identical requests — fresh key, so the first wave cannot be
// served from the cache — must all return the same deterministic subset,
// whether a given caller computed cold, computed against the entry another
// caller stored, or replayed the memo. The callers share one client key
// (the loopback host), and there are no more of them than its limit.
func TestStressIdenticalBurst(t *testing.T) {
	srv, ts := startTestServer(t)
	req := &CheckRequest{Files: map[string]string{"burst.c": "#include \"stdlib.h\"\nint b(void) {\n  char *p = (char *) malloc(8);\n  return 0;\n}\n"}}
	const callers = perClient
	subs := make([]subset, callers)
	hits := make([]bool, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cr := check(t, ts.URL, req)
			subs[i] = toSubset(cr)
			hits[i] = cr.CacheHit
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(subs[i], subs[0]) {
			t.Errorf("caller %d diverged:\n got %+v\nwant %+v", i, subs[i], subs[0])
		}
	}
	if subs[0].Exit != 1 {
		t.Errorf("burst exit = %d, want 1", subs[0].Exit)
	}
	// Someone computed cold.
	st := srv.StatsSnapshot()
	if st.Counters["cache_misses"] == 0 {
		t.Errorf("no cache miss over %d identical callers of a fresh request", callers)
	}
	// After the burst the request is resident: a repeat is a full cache
	// hit that leaves its response in the memo (if a burst caller had not
	// already), and the next repeat replays the memo.
	if cr := check(t, ts.URL, req); !cr.CacheHit || !reflect.DeepEqual(toSubset(cr), subs[0]) {
		t.Errorf("repeat after the burst: cacheHit=%v, subset %+v", cr.CacheHit, toSubset(cr))
	}
	before := srv.StatsSnapshot().MemoHits
	if cr := check(t, ts.URL, req); !reflect.DeepEqual(toSubset(cr), subs[0]) {
		t.Errorf("memo replay diverged: %+v", toSubset(cr))
	}
	if got := srv.StatsSnapshot().MemoHits; got != before+1 {
		t.Errorf("memo hits = %d after a resident repeat, want %d", got, before+1)
	}
	if st := srv.StatsSnapshot(); st.Coalesced != 0 {
		t.Errorf("coalesced = %d, want 0", st.Coalesced)
	}
}
