package cache

import (
	"fmt"
	"sync"
	"testing"

	"golclint/internal/diag"
)

// The three implementations must all satisfy Store.
var (
	_ Store = (*Cache)(nil)
	_ Store = (*MemStore)(nil)
	_ Store = (*Layered)(nil)
)

func TestMemStoreRoundTrip(t *testing.T) {
	m := NewMemStore()
	key := Key("v1", "+null", map[string]string{"m.c": "int x;"})
	want := testEntry()
	n, err := m.Put(key, want)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 || want.Size != n {
		t.Errorf("Put size = %d (entry %d)", n, want.Size)
	}
	got, ok := m.Get(key)
	if !ok {
		t.Fatal("entry missing after Put")
	}
	if !diag.EqualAll(want.Diags, got.Diags) {
		t.Errorf("diags changed: %+v vs %+v", want.Diags, got.Diags)
	}
	if got.Suppressed != want.Suppressed || got.Size != n {
		t.Errorf("suppressed/size = %d/%d, want %d/%d", got.Suppressed, got.Size, want.Suppressed, n)
	}
	if _, ok := m.Get("absent-key"); ok {
		t.Error("Get on absent key hit")
	}
	s := m.Stats()
	if s.Entries != 1 || s.Bytes != n || s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// A caller mutating the Entry a Get handed out must not poison what later
// Gets see — the resident store's isolation contract.
func TestMemStoreGetIsolation(t *testing.T) {
	m := NewMemStore()
	key := "deadbeef"
	if _, err := m.Put(key, testEntry()); err != nil {
		t.Fatal(err)
	}
	e1, _ := m.Get(key)
	e1.Diags[0].Msg = "CLOBBERED"
	e1.Deps[1].FP = "CLOBBERED"
	e1.Suppressed = -1
	e2, ok := m.Get(key)
	if !ok {
		t.Fatal("entry gone after mutation")
	}
	if e2.Diags[0].Msg != "Only storage p not released" || e2.Deps[1].FP != "fp1" || e2.Suppressed != 3 {
		t.Errorf("mutation leaked into store: %+v", e2)
	}
}

func TestMemStoreEviction(t *testing.T) {
	m := NewMemStore()
	probe := testEntry()
	if _, err := m.Put("probe", probe); err != nil {
		t.Fatal(err)
	}
	size := probe.Size
	m.SetLimit(3 * size)
	for i := 0; i < 10; i++ {
		if _, err := m.Put(fmt.Sprintf("key%02d", i), testEntry()); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Stats()
	if s.Bytes > 3*size {
		t.Errorf("bytes %d over limit %d", s.Bytes, 3*size)
	}
	if s.Entries == 0 || s.Evictions == 0 {
		t.Errorf("stats after eviction = %+v", s)
	}
	// An entry larger than the whole limit is discarded, not stored.
	m.SetLimit(1)
	if _, err := m.Put("huge", testEntry()); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get("huge"); ok {
		t.Error("over-limit entry was stored")
	}
}

func TestMemStoreNilSafe(t *testing.T) {
	var m *MemStore
	if _, ok := m.Get("k"); ok {
		t.Error("nil Get hit")
	}
	if n, err := m.Put("k", testEntry()); n != 0 || err != nil {
		t.Errorf("nil Put = %d, %v", n, err)
	}
	if s := m.Stats(); s != (StoreStats{}) {
		t.Errorf("nil Stats = %+v", s)
	}
	if m.Len() != 0 {
		t.Error("nil Len != 0")
	}
}

func TestMemStoreConcurrent(t *testing.T) {
	m := NewMemStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key%d", i%10)
				if w%2 == 0 {
					m.Put(key, testEntry())
				} else if e, ok := m.Get(key); ok {
					e.Diags[0].Msg = "local mutation only"
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 10; i++ {
		if e, ok := m.Get(fmt.Sprintf("key%d", i)); ok && e.Diags[0].Msg != "Only storage p not released" {
			t.Fatalf("store poisoned: %q", e.Diags[0].Msg)
		}
	}
}

// Layered: fast hit skips slow, slow hit promotes into fast, puts write
// through to both, and nil layers are inert.
func TestLayered(t *testing.T) {
	disk, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemStore()
	l := &Layered{Fast: mem, Slow: disk}

	// Write-through: both layers hold the entry.
	if _, err := l.Put("aa11", testEntry()); err != nil {
		t.Fatal(err)
	}
	if _, ok := mem.Get("aa11"); !ok {
		t.Error("put did not reach fast layer")
	}
	if _, ok := disk.Get("aa11"); !ok {
		t.Error("put did not reach slow layer")
	}

	// Slow-only entry (a prior daemon run's disk state) promotes on Get.
	if _, err := disk.Put("bb22", testEntry()); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Get("bb22"); !ok {
		t.Fatal("layered miss on slow-resident entry")
	}
	if _, ok := mem.Get("bb22"); !ok {
		t.Error("slow hit was not promoted into fast layer")
	}

	if _, ok := l.Get("cc33"); ok {
		t.Error("hit on absent key")
	}

	memOnly := &Layered{Fast: NewMemStore()}
	if _, err := memOnly.Put("dd44", testEntry()); err != nil {
		t.Fatal(err)
	}
	if _, ok := memOnly.Get("dd44"); !ok {
		t.Error("fast-only layered lost entry")
	}
	var empty Layered
	if _, ok := empty.Get("aa11"); ok {
		t.Error("zero Layered hit")
	}
	if _, err := empty.Put("aa11", testEntry()); err != nil {
		t.Error(err)
	}
}

// Shrinking the limit below current usage must evict immediately, not wait
// for the next Put.
func TestMemStoreSetLimitEvictsImmediately(t *testing.T) {
	m := NewMemStore()
	var size int64
	for i := 0; i < 10; i++ {
		n, err := m.Put(fmt.Sprintf("key%02d", i), testEntry())
		if err != nil {
			t.Fatal(err)
		}
		size = n
	}
	before := m.Stats()
	if before.Entries != 10 {
		t.Fatalf("setup: %d entries", before.Entries)
	}
	m.SetLimit(3 * size)
	s := m.Stats()
	if s.Bytes > 3*size {
		t.Errorf("bytes %d over limit %d immediately after SetLimit", s.Bytes, 3*size)
	}
	if s.Entries > 3 {
		t.Errorf("%d entries survive a 3-entry limit", s.Entries)
	}
	if s.Evictions == 0 {
		t.Error("no evictions recorded")
	}
	// Growing or unbounding never evicts.
	m.SetLimit(0)
	if got := m.Stats().Entries; got != s.Entries {
		t.Errorf("unbounding changed entry count %d -> %d", s.Entries, got)
	}
}
