// Package cache implements the persistent, content-addressed analysis
// cache behind incremental re-checking. One entry stores the complete
// observable outcome of checking one module (its retained diagnostics,
// suppression count, parse/sema errors, and interface dependencies) as
// one binary record (record.go), keyed by a hash of the module's sources
// and their #include closure plus the checker version and flag fingerprint
// (core computes it before preprocessing). A module
// whose key is present and whose recorded interface dependencies still
// match the current interface library replays the stored outcome without
// lexing, parsing, or checking — the production form of the paper's §7 argument that modular,
// annotation-driven analysis makes re-checks cost only what changed.
//
// Robustness contract: the cache can only ever make a run faster, never
// wrong. Any missing, truncated, corrupted, or version-mismatched entry
// reads as a miss and the caller falls back to a cold check; entry writes
// are atomic (write-to-temp then rename), so concurrent module workers
// sharing one cache directory cannot observe torn entries.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"golclint/internal/atomicio"
	"golclint/internal/ctoken"
	"golclint/internal/diag"
)

// Store is the entry-store abstraction the checker caches through: Get
// answers whether a key's outcome is known, Put records one. Implementations
// share the robustness contract of the disk cache — a Get hit must hand the
// caller an Entry it can own outright (mutating a returned entry must never
// poison later Gets), and any internal corruption reads as a miss. The
// package provides three: *Cache (persistent, on disk), *MemStore (resident
// in memory, for the analysis server), and *Layered (memory over disk).
type Store interface {
	Get(key string) (*Entry, bool)
	Put(key string, e *Entry) (int64, error)
}

// Cache is a handle on one cache directory. The zero value is not usable;
// call Open. A nil *Cache is valid and behaves as an always-miss,
// discard-writes cache, so callers can thread it unconditionally.
//
// Entries are stored framed (compressed and checksummed, see frame.go); a
// file that is not a valid frame reads as a miss. When a byte
// bound is set (SetMaxBytes / -cache-max-bytes), Put evicts
// least-recently-written entries until the directory fits — entries are
// content-addressed and reproducible, so eviction affects warmth only.
// The size index is per-process and best-effort: concurrent processes
// sharing one directory may briefly overshoot the bound, never corrupt it.
type Cache struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	scanned bool
	usage   int64
	index   map[string]blobInfo

	hits, misses, evictions   atomic.Int64
	rawBytes, compressedBytes atomic.Int64
}

// blobInfo is one on-disk entry in the eviction index.
type blobInfo struct {
	size  int64
	mtime time.Time
}

// Open prepares a cache rooted at dir, creating it if needed.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("opening analysis cache: %w", err)
	}
	return &Cache{dir: dir, index: map[string]blobInfo{}}, nil
}

// Dir returns the cache's root directory ("" on a nil cache).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// SetMaxBytes bounds the directory's total entry bytes (0 or negative =
// unbounded, the default). Shrinking below current usage evicts
// immediately, oldest entries first.
func (c *Cache) SetMaxBytes(n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxBytes = n
	if n > 0 {
		c.scanLocked()
		c.evictLocked("")
	}
}

// scanLocked builds the size index from the directory on first use. Errors
// are ignored: an unreadable directory just means an empty index, and the
// cache degrades to unbounded (its pre-existing behavior).
func (c *Cache) scanLocked() {
	if c.scanned {
		return
	}
	c.scanned = true
	shards, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(c.dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			key := strings.TrimSuffix(f.Name(), ".json")
			if key == f.Name() {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			c.index[key] = blobInfo{size: info.Size(), mtime: info.ModTime()}
			c.usage += info.Size()
		}
	}
}

// recordLocked notes one written entry and evicts if the bound is
// exceeded.
func (c *Cache) recordLocked(key string, size int64) {
	c.scanLocked()
	if old, ok := c.index[key]; ok {
		c.usage -= old.size
	}
	c.index[key] = blobInfo{size: size, mtime: time.Now()}
	c.usage += size
	if c.maxBytes > 0 {
		c.evictLocked(key)
	}
}

// evictLocked removes oldest entries until usage fits maxBytes, sparing
// keep (the entry just written).
func (c *Cache) evictLocked(keep string) {
	for c.usage > c.maxBytes {
		victim := ""
		var oldest time.Time
		for k, info := range c.index {
			if k == keep {
				continue
			}
			if victim == "" || info.mtime.Before(oldest) {
				victim, oldest = k, info.mtime
			}
		}
		if victim == "" {
			return
		}
		c.usage -= c.index[victim].size
		delete(c.index, victim)
		os.Remove(c.path(victim))
		c.evictions.Add(1)
	}
}

// Stats snapshots the disk store's counters (zero values on a nil cache).
// Entries and Bytes reflect the per-process view of the directory (scanned
// on first use, tracked incrementally after); RawBytes and CompressedBytes
// accumulate over this process's writes, so their ratio is the compression
// factor achieved.
func (c *Cache) Stats() StoreStats {
	if c == nil {
		return StoreStats{}
	}
	c.mu.Lock()
	c.scanLocked()
	s := StoreStats{Entries: len(c.index), Bytes: c.usage}
	c.mu.Unlock()
	s.Hits = c.hits.Load()
	s.Misses = c.misses.Load()
	s.Evictions = c.evictions.Load()
	s.RawBytes = c.rawBytes.Load()
	s.CompressedBytes = c.compressedBytes.Load()
	return s
}

// Entry is one module's cached analysis outcome.
type Entry struct {
	// Diags are the retained diagnostics exactly as a cold run reported
	// them (post-suppression, source order).
	Diags []*diag.Diagnostic
	// Suppressed is the cold run's suppressed-message count.
	Suppressed int
	// ParseErrors and SemaErrors are the cold run's rendered errors, in
	// emission order.
	ParseErrors []string
	SemaErrors  []string
	// Deps records, for every identifier the module mentions, the
	// interface fingerprint that symbol had in the library the module was
	// checked against ("" when the symbol was absent). A hit is valid only
	// while every recorded fingerprint still matches (DepsMatch), which is
	// what invalidates dependents transitively when a module's interface
	// changes. Sorted by name, each name once.
	Deps []Dep
	// Size is the entry's on-disk size in bytes, set by Get and Put (not
	// stored).
	Size int64
	// Fn carries the per-function analysis counters of a function-granular
	// sub-entry (see internal/core's function cache layer), so a replayed
	// function restores the same obs counters the cold check recorded. Nil
	// on module-level entries.
	Fn *FnStats
}

// FnStats are the per-function analysis counters stored with a function
// sub-entry and replayed into the run's metrics on a hit.
type FnStats struct {
	Blocks, Edges, Merges int64
}

// Key computes the content-addressed entry key: a hash over the checker
// version, the flag fingerprint, and each (name, text) pair in sorted name
// order. Every component is length-prefixed so distinct inputs cannot
// collide by concatenation. Anything that can change the keyed outcome
// must flow into one of the three inputs — version for the checker
// itself, flagsFP for configuration, files for the texts. Worker counts are
// deliberately excluded: output is byte-identical at every -jobs value, so
// runs at different parallelism share entries.
func Key(version, flagsFP string, files map[string]string) string {
	h := NewKeyHasher(version, flagsFP)
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h.Component(n)
		h.Component(files[n])
	}
	return h.Sum()
}

// KeyHasher streams cache-key components straight into the hash, so
// callers holding per-file pieces (source text here, error strings there)
// need not concatenate them into throwaway key strings first. Every
// component is length-prefixed exactly as Key does, and callers must feed
// files in sorted name order to get order-independent keys.
type KeyHasher struct {
	h   hash.Hash
	len [8]byte
}

// NewKeyHasher starts a key over the checker version and flag fingerprint.
func NewKeyHasher(version, flagsFP string) *KeyHasher {
	k := &KeyHasher{h: sha256.New()}
	k.Component(version)
	k.Component(flagsFP)
	return k
}

// Component feeds one length-prefixed string into the key. The string's
// bytes go to the hash in place: a hash's Write neither keeps nor modifies
// its argument, and copying a whole file just to hash it was a measurable
// share of a warm module check's allocation.
func (k *KeyHasher) Component(s string) {
	binary.LittleEndian.PutUint64(k.len[:], uint64(len(s)))
	k.h.Write(k.len[:])
	k.h.Write(unsafe.Slice(unsafe.StringData(s), len(s)))
}

// File feeds one named text and the errors that came with it (count-
// prefixed so zero errors and empty-string errors stay distinct): a module
// file's bytes, or a header with the includer's error.
func (k *KeyHasher) File(name, text string, errs []string) {
	k.Component(name)
	k.Component(text)
	binary.LittleEndian.PutUint64(k.len[:], uint64(len(errs)))
	k.h.Write(k.len[:])
	for _, e := range errs {
		k.Component(e)
	}
}

// Sum finalizes and returns the hex key.
func (k *KeyHasher) Sum() string {
	return hex.EncodeToString(k.h.Sum(nil))
}

// path shards entries by the key's first byte to keep directories small.
// The ".json" suffix predates the binary record and is kept on purpose: a
// directory an earlier build wrote then has its stale entries (misses
// under the current frame magic) overwritten in place and counted against
// the byte bound, not orphaned under another name.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Get loads the entry for key. The second result is false on a miss — which
// includes absent, unreadable, truncated, corrupted, schema-mismatched, and
// wrong-key entries: a bad cache file is indistinguishable from no cache
// file, by design.
func (c *Cache) Get(key string) (*Entry, bool) {
	if c == nil || len(key) < 2 {
		return nil, false
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	stored := int64(len(b))
	raw, ok := deframeBlob(b)
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	e, ok := decodeEntry(key, raw)
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	// Size reports the on-disk footprint (the framed bytes), matching what
	// Put charged, so cache_bytes counters agree across hits and misses.
	e.Size = stored
	c.hits.Add(1)
	return e, true
}

// GetBytes returns the raw framed wire bytes stored under key, without
// decoding them. The blob server serves entries this way: it never needs
// entry semantics, and a corrupt frame is the client's to detect.
func (c *Cache) GetBytes(key string) ([]byte, bool) {
	if c == nil || len(key) < 2 {
		return nil, false
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return b, true
}

// PutBytes stores pre-framed wire bytes under key, atomically, enforcing
// the byte bound. The frame is verified first (magic, lengths, checksum):
// the blob server uses this to refuse storing garbage a broken client
// sent, without ever decoding entry contents.
func (c *Cache) PutBytes(key string, b []byte) error {
	if c == nil {
		return nil
	}
	if len(key) < 2 {
		return fmt.Errorf("cache put: malformed key %q", key)
	}
	raw, ok := deframeBlob(b)
	if !ok {
		return fmt.Errorf("cache put: malformed frame for key %q", key)
	}
	if err := c.writeBytes(key, b); err != nil {
		return err
	}
	c.rawBytes.Add(int64(len(raw)))
	c.compressedBytes.Add(int64(len(b)))
	return nil
}

// writeBytes is the shared atomic write + usage accounting path.
func (c *Cache) writeBytes(key string, b []byte) error {
	dst := c.path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("cache put: %w", err)
	}
	if err := atomicio.WriteFile(dst, b, 0o644); err != nil {
		return fmt.Errorf("cache put: %w", err)
	}
	c.mu.Lock()
	c.recordLocked(key, int64(len(b)))
	c.mu.Unlock()
	return nil
}

// Put stores e under key, atomically, framed (compressed + checksummed).
// It returns the bytes written (also recorded in e.Size). A nil cache
// discards the write.
func (c *Cache) Put(key string, e *Entry) (int64, error) {
	if c == nil {
		return 0, nil
	}
	if len(key) < 2 {
		return 0, fmt.Errorf("cache put: malformed key %q", key)
	}
	raw, err := encodeEntry(key, e)
	if err != nil {
		return 0, fmt.Errorf("cache put: %w", err)
	}
	b := frameBlob(raw)
	if err := c.writeBytes(key, b); err != nil {
		return 0, err
	}
	c.rawBytes.Add(int64(len(raw)))
	c.compressedBytes.Add(int64(len(b)))
	e.Size = int64(len(b))
	return e.Size, nil
}

// DepsMatch reports whether every dependency fingerprint recorded in an
// entry still holds against the current interface fingerprints. Symbols
// absent from current read as "", so a symbol appearing in — or vanishing
// from — the library invalidates exactly the entries that mention it.
func DepsMatch(recorded []Dep, current map[string]string) bool {
	for _, d := range recorded {
		if current[d.Name] != d.FP {
			return false
		}
	}
	return true
}

// Identifiers extracts the deduplicated, sorted identifier set of a
// preprocessed source text. The set over-approximates the module's
// interface references (it includes locals and the module's own names,
// whose fingerprints are stable whenever the source hash is), which keeps
// dependency recording sound without an AST walk.
func Identifiers(src string) []string {
	lx := ctoken.NewLexer("", src)
	seen := map[string]bool{}
	for {
		t := lx.Next()
		if t.Kind == ctoken.EOF {
			break
		}
		if t.Kind == ctoken.Ident {
			seen[t.Text] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
