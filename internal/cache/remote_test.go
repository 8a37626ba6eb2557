package cache

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// blobHandler is a minimal in-test blob server: a locked map of framed
// bytes, no validation (tests inject arbitrary responses elsewhere).
type blobHandler struct {
	mu    sync.Mutex
	blobs map[string][]byte
}

func (h *blobHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/blob/")
	h.mu.Lock()
	defer h.mu.Unlock()
	switch r.Method {
	case http.MethodGet:
		b, ok := h.blobs[key]
		if !ok {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		w.Write(b)
	case http.MethodPut:
		b, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		h.blobs[key] = b
		w.WriteHeader(http.StatusNoContent)
	}
}

func TestValidBlobKey(t *testing.T) {
	valid := []string{"ab", strings.Repeat("0123456789abcdef", 4), strings.Repeat("ff", 64)}
	for _, k := range valid {
		if !ValidBlobKey(k) {
			t.Errorf("ValidBlobKey(%q) = false", k)
		}
	}
	invalid := []string{
		"", "a", strings.Repeat("ab", 65),
		"../../../../etc/passwd", "abcg", "ABCD", "ab cd", "ab\ncd",
		"-flag", "ab/cd", "ab?x=1", "ab#f",
	}
	for _, k := range invalid {
		if ValidBlobKey(k) {
			t.Errorf("ValidBlobKey(%q) = true", k)
		}
	}
}

func TestRemoteStoreRoundTrip(t *testing.T) {
	h := &blobHandler{blobs: map[string][]byte{}}
	srv := httptest.NewServer(h)
	defer srv.Close()

	r := NewRemoteStore(srv.URL)
	key := Key("v1", "", map[string]string{"a.c": "int x;"})
	want := testEntry()
	n, err := r.Put(key, want)
	if err != nil || n <= 0 {
		t.Fatalf("Put = %d, %v", n, err)
	}
	got, ok := r.Get(key)
	if !ok {
		t.Fatal("entry missing after Put")
	}
	if got.Suppressed != want.Suppressed || len(got.Diags) != len(want.Diags) {
		t.Errorf("entry changed through remote round trip: %+v", got)
	}
	if _, ok := r.Get(strings.Repeat("00", 32)); ok {
		t.Error("hit on absent key")
	}
	s := r.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("hits/misses = %d/%d", s.Hits, s.Misses)
	}
	if s.CompressedBytes <= 0 || s.RawBytes <= s.CompressedBytes {
		t.Errorf("raw/compressed = %d/%d", s.RawBytes, s.CompressedBytes)
	}
}

// A dead server makes every Get a miss and every Put a swallowed no-op —
// never an error, never a hang (the client has a timeout).
func TestRemoteStoreServerDown(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // now nothing listens there

	r := NewRemoteStore(url)
	key := Key("v1", "", map[string]string{"a.c": "int x;"})
	if _, ok := r.Get(key); ok {
		t.Error("hit against a dead server")
	}
	if _, err := r.Put(key, testEntry()); err != nil {
		t.Errorf("Put against a dead server errored: %v", err)
	}
	if r.Errors() == 0 {
		t.Error("transport failures not counted")
	}
}

// Invalid keys never reach the wire: the client rejects them before
// issuing a request (the server would too, but the client must not depend
// on that).
func TestRemoteStoreRejectsInvalidKeys(t *testing.T) {
	requests := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests++
	}))
	defer srv.Close()

	r := NewRemoteStore(srv.URL)
	for _, key := range []string{"", "../../x", "ABC", "ab cd", "-flag"} {
		if _, ok := r.Get(key); ok {
			t.Errorf("Get(%q) hit", key)
		}
		if _, err := r.Put(key, testEntry()); err == nil {
			t.Errorf("Put(%q) accepted", key)
		}
	}
	if requests != 0 {
		t.Errorf("%d requests reached the server for invalid keys", requests)
	}
}

// A nil RemoteStore is an always-miss, discard-writes store, like the
// other backends.
func TestRemoteStoreNilSafe(t *testing.T) {
	var r *RemoteStore
	if _, ok := r.Get("abcd"); ok {
		t.Error("nil store hit")
	}
	if n, err := r.Put("abcd", testEntry()); err != nil || n != 0 {
		t.Errorf("nil store Put = %d, %v", n, err)
	}
	if r.Stats() != (StoreStats{}) {
		t.Error("nil store stats non-zero")
	}
}

// FuzzRemoteStore throws arbitrary server response bodies at the client:
// whatever the server answers — truncated frames, corrupted checksums,
// oversized declarations, non-gzip payloads, valid frames holding foreign
// entries — the client must either miss cleanly or return a correctly
// decoded entry for the requested key. It must never panic.
func FuzzRemoteStore(f *testing.F) {
	key := Key("v1", "", map[string]string{"a.c": "int x;"})
	goodRaw, err := encodeEntry(key, testEntry())
	if err != nil {
		f.Fatal(err)
	}
	good := frameBlob(goodRaw)

	f.Add([]byte{})
	f.Add([]byte("plain text"))
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(append([]byte(nil), good[:frameHeader]...))
	f.Add(frameBlob([]byte("{}")))
	f.Add(frameBlob(nil))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, body []byte) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(body)
		}))
		defer srv.Close()
		r := NewRemoteStore(srv.URL)
		e, ok := r.Get(key)
		if ok {
			// The only acceptable hit is a correct decode of the entry the
			// body actually frames, addressed to this key.
			raw, fok := deframeBlob(body)
			if !fok {
				t.Fatal("hit from an unframeable body")
			}
			want, dok := decodeEntry(key, raw)
			if !dok {
				t.Fatal("hit from an undecodable body")
			}
			if e.Suppressed != want.Suppressed || len(e.Diags) != len(want.Diags) {
				t.Fatal("hit decoded different entry than body frames")
			}
		}
	})
}

// blobStores returns a remote store and a disk cache holding the same framed
// blobs, plus a function that (re)stores a blob in both.
func blobStores(t *testing.T) (stores map[string]Store, set func(key string, b []byte)) {
	t.Helper()
	h := &blobHandler{blobs: map[string][]byte{}}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	disk, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	set = func(key string, b []byte) {
		h.mu.Lock()
		h.blobs[key] = b
		h.mu.Unlock()
		// Written directly, not through PutBytes, so corrupt frames land
		// on disk too.
		path := disk.path(key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]Store{"remote": NewRemoteStore(srv.URL), "disk": disk}, set
}

// On one store, a Get whose frame fails inside the (pooled) inflater must
// not spoil the next Get: the good entry read after each failing frame
// decodes exactly as it did before any failure.
func TestStoreGetAfterFailedInflate(t *testing.T) {
	stores, set := blobStores(t)
	goodKey := Key("v1", "", map[string]string{"a.c": "int x;"})
	badKey := Key("v1", "", map[string]string{"b.c": "int y;"})
	raw, err := encodeEntry(goodKey, testEntry())
	if err != nil {
		t.Fatal(err)
	}
	good, cases := corruptFrames(raw)
	set(goodKey, good)
	for sname, st := range stores {
		want, ok := st.Get(goodKey)
		if !ok {
			t.Fatalf("%s: good entry missed", sname)
		}
		for _, name := range failingFrames {
			set(badKey, cases[name])
			if _, ok := st.Get(badKey); ok {
				t.Errorf("%s/%s: corrupt frame hit", sname, name)
			}
			if got, ok := st.Get(goodKey); !ok || !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: good entry after it = %+v, %v", sname, name, got, ok)
			}
		}
	}
}

// Concurrent Gets on one store share the inflater pool; under -race every
// goroutine must read back exactly the entries a serial Get returns, with
// failing frames interleaved.
func TestStoreConcurrentGets(t *testing.T) {
	stores, set := blobStores(t)
	var keys []string
	for i := 0; i < 6; i++ {
		key := Key("v1", "", map[string]string{"m.c": fmt.Sprintf("int x%d;", i)})
		e := testEntry()
		e.Suppressed = i
		e.Deps = []Dep{{fmt.Sprintf("f%d", i), "fp"}}
		raw, err := encodeEntry(key, e)
		if err != nil {
			t.Fatal(err)
		}
		good, cases := corruptFrames(raw)
		if i%2 == 1 {
			good = cases[failingFrames[i/2]]
		}
		set(key, good)
		keys = append(keys, key)
	}
	for sname, st := range stores {
		want := make([]*Entry, len(keys))
		for i, k := range keys {
			want[i], _ = st.Get(k)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < 10; r++ {
					i := (g + r) % len(keys)
					got, _ := st.Get(keys[i])
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("%s: goroutine %d key %d = %+v, want %+v", sname, g, i, got, want[i])
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
