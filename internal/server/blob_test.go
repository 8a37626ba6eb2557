package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"golclint/internal/cache"
	"golclint/internal/ctoken"
	"golclint/internal/diag"
)

func newBlobTest(t *testing.T) (*BlobServer, *httptest.Server) {
	t.Helper()
	bs, err := NewBlob(BlobOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(bs.Handler())
	t.Cleanup(srv.Close)
	return bs, srv
}

func blobEntry() *cache.Entry {
	return &cache.Entry{
		Diags: []*diag.Diagnostic{
			{Code: diag.Leak, Pos: ctoken.Pos{File: ctoken.FileOf("m.c"), Line: 9}, Msg: "Only storage p not released"},
		},
		Suppressed: 1,
		Deps:       []cache.Dep{{Name: "helper", FP: "fp1"}},
	}
}

// The full client/server path: a RemoteStore Put lands an entry another
// RemoteStore (another worker) can Get, byte-faithful through frame,
// wire, and store.
func TestBlobServerEndToEnd(t *testing.T) {
	bs, srv := newBlobTest(t)

	w1 := cache.NewRemoteStore(srv.URL)
	w2 := cache.NewRemoteStore(srv.URL)
	key := cache.Key("v1", "", map[string]string{"m.c": "int x;"})
	want := blobEntry()
	if _, err := w1.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := w2.Get(key)
	if !ok {
		t.Fatal("worker 2 missed worker 1's entry")
	}
	if !diag.EqualAll(want.Diags, got.Diags) || got.Suppressed != want.Suppressed {
		t.Errorf("entry changed through blob server: %+v", got)
	}

	s := bs.StatsSnapshot()
	if s.Schema != "golclint-blob-stats/v1" {
		t.Errorf("schema = %q", s.Schema)
	}
	if s.Gets != 1 || s.Puts != 1 {
		t.Errorf("gets/puts = %d/%d", s.Gets, s.Puts)
	}
	if s.Store.Entries != 1 || s.Store.CompressedBytes <= 0 {
		t.Errorf("store stats = %+v", s.Store)
	}
}

func TestBlobServerRejectsGarbage(t *testing.T) {
	_, srv := newBlobTest(t)
	client := srv.Client()
	key := strings.Repeat("ab", 32)

	put := func(path string, body []byte) int {
		req, err := http.NewRequest(http.MethodPut, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Unframed bytes are refused: the server must never store what it
	// could not serve.
	if code := put("/blob/"+key, []byte("not a frame")); code != http.StatusBadRequest {
		t.Errorf("garbage PUT = %d, want 400", code)
	}
	// Hostile keys are refused before touching the filesystem.
	for _, bad := range []string{"..%2f..%2fetc%2fpasswd", "ABCDEF", "a", strings.Repeat("ab", 65)} {
		if code := put("/blob/"+bad, nil); code != http.StatusBadRequest {
			t.Errorf("PUT with key %q = %d, want 400", bad, code)
		}
	}
	// Missing entries are 404.
	resp, err := client.Get(srv.URL + "/blob/" + strings.Repeat("cd", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing GET = %d, want 404", resp.StatusCode)
	}
	// Unsupported methods are 405.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/blob/"+key, nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE = %d, want 405", resp.StatusCode)
	}
}

func TestBlobServerHealthAndStats(t *testing.T) {
	_, srv := newBlobTest(t)
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}

	sresp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var doc BlobStats
	if err := json.NewDecoder(sresp.Body).Decode(&doc); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if doc.Schema != "golclint-blob-stats/v1" {
		t.Errorf("schema = %q", doc.Schema)
	}
}

// A byte-bounded blob server evicts old entries instead of growing without
// bound under a fleet's writes.
func TestBlobServerBounded(t *testing.T) {
	dir := t.TempDir()
	// Measure one entry's framed size via an unbounded probe server.
	probe, err := NewBlob(BlobOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	psrv := httptest.NewServer(probe.Handler())
	w := cache.NewRemoteStore(psrv.URL)
	n, err := w.Put(cache.Key("v1", "", map[string]string{"m.c": "probe"}), blobEntry())
	psrv.Close()
	if err != nil || n <= 0 {
		t.Fatalf("probe put = %d, %v", n, err)
	}

	bs, err := NewBlob(BlobOptions{Dir: dir, MaxBytes: 3 * n})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(bs.Handler())
	defer srv.Close()
	w = cache.NewRemoteStore(srv.URL)
	for i := 0; i < 10; i++ {
		key := cache.Key("v1", "", map[string]string{"m.c": strings.Repeat("x", i+1)})
		if _, err := w.Put(key, blobEntry()); err != nil {
			t.Fatal(err)
		}
	}
	s := bs.StatsSnapshot().Store
	if s.Bytes > 3*n {
		t.Errorf("store bytes %d over bound %d", s.Bytes, 3*n)
	}
	if s.Evictions == 0 {
		t.Error("no evictions under byte bound")
	}
}
