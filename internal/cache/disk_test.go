package cache

import (
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
