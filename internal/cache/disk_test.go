package cache

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Every stored entry is framed, so a bare record under a key (the form the
// memory store keeps, as a bare-JSON entry was before framing) is not an
// entry: it reads as a miss.
func TestBareJSONEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("v1", "", map[string]string{"a.c": "int x;"})
	raw, err := encodeEntry(key, testEntry())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(key); ok {
		t.Fatalf("bare record hit: %+v", got)
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Errorf("hits/misses = %d/%d, want 0/1", s.Hits, s.Misses)
	}
}

func TestDiskCacheStats(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("v1", "", map[string]string{"a.c": "int x;"})
	if _, err := c.Put(key, testEntry()); err != nil {
		t.Fatal(err)
	}
	c.Get(key)
	c.Get("00" + strings.Repeat("ab", 31)) // miss
	s := c.Stats()
	if s.Entries != 1 || s.Bytes <= 0 {
		t.Errorf("entries/bytes = %d/%d", s.Entries, s.Bytes)
	}
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("hits/misses = %d/%d", s.Hits, s.Misses)
	}
	if s.RawBytes <= 0 || s.CompressedBytes <= 0 {
		t.Errorf("raw/compressed = %d/%d", s.RawBytes, s.CompressedBytes)
	}
	if s.CompressedBytes >= s.RawBytes {
		t.Errorf("compression did not shrink entry: raw %d, compressed %d", s.RawBytes, s.CompressedBytes)
	}
	// A nil cache reports zeroes.
	var nilc *Cache
	if got := nilc.Stats(); got != (StoreStats{}) {
		t.Errorf("nil cache stats = %+v", got)
	}
}

// A bounded disk store must evict oldest-written entries to stay under the
// byte budget, both on SetMaxBytes shrink and on subsequent Puts.
func TestDiskCacheBounded(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	var size int64
	for i := 0; i < 8; i++ {
		key := Key("v1", "", map[string]string{"a.c": fmt.Sprintf("int x%d;", i)})
		keys = append(keys, key)
		n, err := c.Put(key, testEntry())
		if err != nil {
			t.Fatal(err)
		}
		size = n
		// Distinct mtimes so eviction order (oldest first) is deterministic
		// even on filesystems with coarse timestamps.
		old := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, key[:2], key+".json"), old, old); err != nil {
			t.Fatal(err)
		}
	}

	// Shrinking evicts immediately, oldest first.
	c.SetMaxBytes(4 * size)
	s := c.Stats()
	if s.Bytes > 4*size {
		t.Errorf("bytes %d over budget %d after SetMaxBytes", s.Bytes, 4*size)
	}
	if s.Evictions == 0 {
		t.Error("no evictions recorded after shrink")
	}
	if _, ok := c.Get(keys[0]); ok {
		t.Error("oldest entry survived shrink")
	}
	if _, ok := c.Get(keys[len(keys)-1]); !ok {
		t.Error("newest entry evicted by shrink")
	}

	// Puts keep the store under budget.
	for i := 8; i < 16; i++ {
		key := Key("v1", "", map[string]string{"a.c": fmt.Sprintf("int x%d;", i)})
		if _, err := c.Put(key, testEntry()); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Bytes > 4*size {
		t.Errorf("bytes %d over budget %d after Puts", s.Bytes, 4*size)
	}

	// Unbounding stops eviction.
	c.SetMaxBytes(0)
	for i := 16; i < 20; i++ {
		key := Key("v1", "", map[string]string{"a.c": fmt.Sprintf("int x%d;", i)})
		if _, err := c.Put(key, testEntry()); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Entries < 8 {
		t.Errorf("unbounded store evicted: %+v", s)
	}
}

// A second process opening the same directory sees entries written by the
// first (the index is rebuilt by scanning, not trusted from memory).
func TestDiskCacheScanPicksUpForeignWrites(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("v1", "", map[string]string{"a.c": "int x;"})
	if _, err := c1.Put(key, testEntry()); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s := c2.Stats(); s.Entries != 1 {
		t.Errorf("fresh open sees %d entries, want 1", s.Entries)
	}
	if _, ok := c2.Get(key); !ok {
		t.Error("fresh open missed foreign entry")
	}
}

func TestGetBytesPutBytes(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	framed := frameBlob([]byte(`{"schema":"test"}`))
	if err := c.PutBytes(key, framed); err != nil {
		t.Fatal(err)
	}
	got, ok := c.GetBytes(key)
	if !ok || string(got) != string(framed) {
		t.Fatalf("GetBytes round trip failed (ok=%v, %d bytes)", ok, len(got))
	}
	// Malformed frames are rejected at Put so the store never holds bytes
	// it could not serve.
	if err := c.PutBytes(key, []byte("not a frame")); err == nil {
		t.Error("PutBytes accepted unframed bytes")
	}
	if _, ok := c.GetBytes("00" + strings.Repeat("cd", 31)); ok {
		t.Error("GetBytes hit on absent key")
	}
}

// parentFrame is testEntry's record, without its library, as the previous
// format (record schema golclint-cache/v2, frame magic glcb2) framed it
// under parentFrameKey.
const (
	parentFrameKey = "07c68972acd9e11e2b9f6cad527622a6339c9a6bbb2e372516f12c349fbc7d0c"
	parentFrame    = "676c6362320a1701000000000000cd000000000000006a356824fea6c303e303a2dc77b36f33ed9928b3b40c0bbe9ebf2db8b2e41bd77c963d4ec4301484edfcb18ba896662524e413acf0336be388928bd8cfcf1091b5232714b9154744a18006d14ef38d345f317f3c2c83fac91a70182c4949e06dd4e8c2198c06705a298bd669ef3d903270963a4a40f568a347131e905db3fb172a14a9504212398a29cff3e0c755a48f7114d3dd3f26defebaf7bd825b28d47192f5e58487cb097be8c5bc14b78a25bf533a6e91ea45a1407148c332e4b411e38f21fb8d19b63ed5ae3d349fbce2edeee6b966fbf6c81867ace31dbfaa9ad79c88756f344e541af6150000ffff"
)

// A frame in the previous format is not an entry: every framed store reads
// it as a miss, and PutBytes refuses to store it.
func TestParentFrameIsMiss(t *testing.T) {
	b, err := hex.DecodeString(parentFrame)
	if err != nil {
		t.Fatal(err)
	}
	if parentFrameKey != Key("v1", "", map[string]string{"a.c": "int x;"}) {
		t.Fatal("parentFrameKey is not testEntry's key")
	}
	stores, set := blobStores(t)
	set(parentFrameKey, b)
	for name, st := range stores {
		if e, ok := st.Get(parentFrameKey); ok {
			t.Errorf("%s: previous-format frame hit: %+v", name, e)
		}
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutBytes(parentFrameKey, b); err == nil {
		t.Error("PutBytes accepted a previous-format frame")
	}
}
