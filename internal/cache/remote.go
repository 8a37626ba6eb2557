package cache

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// RemoteStore is a Store backed by a golclint blob server (`golclint
// -cache-serve addr`) over the minimal HTTP blob protocol:
//
//	GET /blob/{key}  → 200 + framed entry bytes, or 404
//	PUT /blob/{key}  → 204 (stored) after server-side frame verification
//
// Keys are content hashes, so the protocol needs no invalidation, versioning
// handshake, or coordination: any number of workers share one server and
// coordinate only through it. The store inherits the cache robustness
// contract on both directions — every network failure, non-200 status,
// over-long body, or corrupt frame reads as a miss, and Put is best-effort
// (a dead server makes runs colder, never wrong and never failed).
type RemoteStore struct {
	base   string
	client *http.Client

	hits, misses, errors      atomic.Int64
	rawBytes, compressedBytes atomic.Int64
}

// ValidBlobKey reports whether key is safe to embed in a blob URL path:
// lowercase hex only (the alphabet Key emits), bounded length. Both the
// client and the blob server enforce this, so a hostile peer can neither
// traverse paths nor smuggle header/flag syntax through a key.
func ValidBlobKey(key string) bool {
	if len(key) < 2 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// NewRemoteStore returns a store talking to the blob server at base (a host
// or URL, e.g. "127.0.0.1:7071" or "http://cache.internal:7071").
func NewRemoteStore(base string) *RemoteStore {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &RemoteStore{
		base:   strings.TrimRight(base, "/"),
		client: &http.Client{Timeout: 30 * time.Second},
	}
}

// Get implements Store. Every failure mode — invalid key, network error,
// non-200, oversized body, corrupt frame, undecodable entry — is a miss.
func (r *RemoteStore) Get(key string) (*Entry, bool) {
	if r == nil || !ValidBlobKey(key) {
		return nil, false
	}
	resp, err := r.client.Get(r.base + "/blob/" + key)
	if err != nil {
		r.errors.Add(1)
		r.misses.Add(1)
		return nil, false
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		r.misses.Add(1)
		return nil, false
	}
	// Read at most one byte past the largest legal frame: anything longer is
	// corrupt by definition and must not be buffered.
	limit := int64(frameHeader) + maxFrameBytes + 1
	b, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil || int64(len(b)) >= limit {
		r.errors.Add(1)
		r.misses.Add(1)
		return nil, false
	}
	raw, ok := deframeBlob(b)
	if !ok {
		r.misses.Add(1)
		return nil, false
	}
	e, ok := decodeEntry(key, raw)
	if !ok {
		r.misses.Add(1)
		return nil, false
	}
	e.Size = int64(len(b))
	r.hits.Add(1)
	return e, true
}

// Put implements Store. Writes are best-effort: a network or server failure
// is counted and swallowed, because a worker must finish its shard whether
// or not the shared cache accepted its entries.
func (r *RemoteStore) Put(key string, e *Entry) (int64, error) {
	if r == nil {
		return 0, nil
	}
	if !ValidBlobKey(key) {
		return 0, fmt.Errorf("remote store put: invalid key %q", key)
	}
	raw, err := encodeEntry(key, e)
	if err != nil {
		return 0, fmt.Errorf("remote store put: %w", err)
	}
	b := frameBlob(raw)
	e.Size = int64(len(b))
	req, err := http.NewRequest(http.MethodPut, r.base+"/blob/"+key, bytes.NewReader(b))
	if err != nil {
		r.errors.Add(1)
		return e.Size, nil
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := r.client.Do(req)
	if err != nil {
		r.errors.Add(1)
		return e.Size, nil
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		r.errors.Add(1)
		return e.Size, nil
	}
	r.rawBytes.Add(int64(len(raw)))
	r.compressedBytes.Add(int64(len(b)))
	return e.Size, nil
}

// Errors reports transport-level failures (connection refused, bad status,
// oversized body) — distinct from misses, which include ordinary not-found.
func (r *RemoteStore) Errors() int64 {
	if r == nil {
		return 0
	}
	return r.errors.Load()
}

// Stats snapshots the client-side counters. Entries/Bytes are zero: the
// client cannot see the server's directory (GET /stats on the server does).
func (r *RemoteStore) Stats() StoreStats {
	if r == nil {
		return StoreStats{}
	}
	return StoreStats{
		Hits:            r.hits.Load(),
		Misses:          r.misses.Load(),
		RawBytes:        r.rawBytes.Load(),
		CompressedBytes: r.compressedBytes.Load(),
	}
}
