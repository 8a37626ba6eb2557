package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultMemLimit bounds a MemStore's resident bytes unless SetLimit says
// otherwise. Entries average a few KB, so this holds on the order of 10^5
// warm modules — plenty for one daemon, small enough to never matter.
const DefaultMemLimit = 256 << 20

// MemStore is the resident in-memory Store behind the analysis server's
// warm path. Entries are held as unframed records (record.go) and decoded
// afresh on every Get, which buys two properties at once: a hit hands each
// caller its own Entry (concurrent requests can never alias or mutate one
// another's diagnostics), and a caller that does mutate its copy cannot
// poison the store. The byte images are immutable after Put, so Gets run
// under a read lock only.
//
// A nil *MemStore is valid and behaves as an always-miss, discard-writes
// store, mirroring the nil *Cache contract.
type MemStore struct {
	mu      sync.RWMutex
	entries map[string][]byte // records by key
	bytes   int64
	limit   int64

	hits, misses, evictions atomic.Int64
}

// NewMemStore returns an empty store bounded at DefaultMemLimit.
func NewMemStore() *MemStore {
	return &MemStore{entries: map[string][]byte{}, limit: DefaultMemLimit}
}

// removeLocked drops key's entry.
func (m *MemStore) removeLocked(key string) {
	if rec, ok := m.entries[key]; ok {
		delete(m.entries, key)
		m.bytes -= int64(len(rec))
	}
}

// evictLocked removes arbitrary entries other than keep until the store
// fits its limit (cache entries are content-addressed and reproducible,
// so eviction order affects only warmth, never correctness).
func (m *MemStore) evictLocked(keep string) {
	if m.limit <= 0 {
		return
	}
	for k := range m.entries {
		if m.bytes <= m.limit {
			return
		}
		if k != keep {
			m.removeLocked(k)
			m.evictions.Add(1)
		}
	}
}

// SetLimit rebounds the store's resident bytes (0 or negative = unlimited).
// Shrinking below current usage evicts immediately (arbitrary entries
// first, like Put), so the store never holds more than the new bound.
func (m *MemStore) SetLimit(bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.limit = bytes
	m.evictLocked("")
}

// Get implements Store. The returned Entry is freshly decoded and owned by
// the caller.
func (m *MemStore) Get(key string) (*Entry, bool) {
	if m == nil {
		return nil, false
	}
	m.mu.RLock()
	rec, ok := m.entries[key]
	m.mu.RUnlock()
	if !ok {
		m.misses.Add(1)
		return nil, false
	}
	e, ok := decodeEntry(key, rec)
	if !ok {
		// Unreachable for bytes produced by Put, but keep the disk cache's
		// contract: corruption is a miss, never an error.
		m.misses.Add(1)
		return nil, false
	}
	m.hits.Add(1)
	return e, true
}

// Put implements Store. When inserting would exceed the byte limit,
// arbitrary other entries are evicted; an entry larger than the whole
// limit is discarded.
func (m *MemStore) Put(key string, e *Entry) (int64, error) {
	if m == nil {
		return 0, nil
	}
	if key == "" {
		return 0, fmt.Errorf("mem store put: empty key")
	}
	rec, err := encodeEntry(key, e)
	if err != nil {
		return 0, fmt.Errorf("mem store put: %w", err)
	}
	e.Size = int64(len(rec))
	m.mu.Lock()
	defer m.mu.Unlock()
	m.removeLocked(key)
	if m.limit > 0 && e.Size > m.limit {
		return 0, nil
	}
	m.entries[key] = rec
	m.bytes += e.Size
	m.evictLocked(key)
	return e.Size, nil
}

// StoreStats is a point-in-time snapshot of one store layer's counters —
// every backend (memory, disk, remote) reports the same shape, surfaced by
// -stats-json and the server /stats endpoints. RawBytes and
// CompressedBytes are zero on layers that store entries uncompressed (the
// memory store, whose Gets must stay cheap).
type StoreStats struct {
	Entries         int   `json:"entries"`
	Bytes           int64 `json:"bytes"`
	Hits            int64 `json:"hits"`
	Misses          int64 `json:"misses"`
	Evictions       int64 `json:"evictions"`
	RawBytes        int64 `json:"raw_bytes,omitempty"`
	CompressedBytes int64 `json:"compressed_bytes,omitempty"`
}

// Stats snapshots the store's counters (zero values on a nil store).
func (m *MemStore) Stats() StoreStats {
	if m == nil {
		return StoreStats{}
	}
	m.mu.RLock()
	s := StoreStats{Entries: len(m.entries), Bytes: m.bytes}
	m.mu.RUnlock()
	s.Hits = m.hits.Load()
	s.Misses = m.misses.Load()
	s.Evictions = m.evictions.Load()
	return s
}

// Len reports the number of resident entries.
func (m *MemStore) Len() int {
	if m == nil {
		return 0
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.entries)
}

// Layered composes two Stores into one: Get consults Fast first and, on a
// Slow hit, promotes the entry into Fast so the next Get stays resident;
// Put writes through to both. The analysis server runs a MemStore over the
// on-disk Cache this way — warm requests never touch disk, while every
// outcome still persists across daemon restarts. Either layer may be nil
// (or a typed nil), in which case it simply never hits and discards writes.
type Layered struct {
	Fast Store
	Slow Store
}

// Get implements Store.
func (l *Layered) Get(key string) (*Entry, bool) {
	if l.Fast != nil {
		if e, ok := l.Fast.Get(key); ok {
			return e, true
		}
	}
	if l.Slow == nil {
		return nil, false
	}
	e, ok := l.Slow.Get(key)
	if !ok {
		return nil, false
	}
	// Promotion is best-effort: a full fast layer just means the next Get
	// reads slow again.
	if l.Fast != nil {
		l.Fast.Put(key, e)
	}
	return e, true
}

// Put implements Store; the reported size is the larger of the two
// layers' stored lengths.
func (l *Layered) Put(key string, e *Entry) (int64, error) {
	var n int64
	var err error
	if l.Fast != nil {
		n, err = l.Fast.Put(key, e)
	}
	if l.Slow != nil {
		n2, err2 := l.Slow.Put(key, e)
		if err == nil {
			err = err2
		}
		if n2 > n {
			n = n2
		}
	}
	return n, err
}
