package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"golclint/internal/cache"
)

// BlobServer is the shared remote cache behind distributed sharded checking
// (`golclint -cache-serve addr`): a content-addressed blob store over HTTP
// that any number of shard workers read and write through RemoteStore.
//
//	GET  /blob/{key} → 200 + framed entry bytes, 404 on miss
//	PUT  /blob/{key} → 204 after server-side frame verification, 400 on garbage
//	GET  /stats      → cumulative counters, JSON
//	GET  /healthz    → liveness probe
//
// The server is deliberately dumb: it never decodes entry contents, only
// verifies the frame (magic, lengths, checksum) so it cannot be made to
// store bytes it could not serve. Keys are validated against the blob-key
// alphabet before touching the filesystem. Storage is the same bounded
// on-disk cache the CLI uses, so `-cache-max-bytes` keeps a fleet-hammered
// server from growing without bound. It serves at most 64 requests at once
// (503 beyond) and caps PUT bodies at 64 MiB.
type BlobServer struct {
	store *cache.Cache
	opts  BlobOptions
	start time.Time

	sem     chan struct{} // request slots
	maxBody int64         // PUT body cap; tests lower it in-package

	gets, puts, errors, rejected atomic.Int64
}

// BlobOptions configures a BlobServer.
type BlobOptions struct {
	// Dir is the backing cache directory (required).
	Dir string
	// MaxBytes bounds the backing store with eviction; 0 means unbounded.
	MaxBytes int64
}

// NewBlob builds a blob server over its backing directory.
func NewBlob(o BlobOptions) (*BlobServer, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("blob server: cache directory required")
	}
	store, err := cache.Open(o.Dir)
	if err != nil {
		return nil, err
	}
	store.SetMaxBytes(o.MaxBytes)
	return &BlobServer{
		store:   store,
		opts:    o,
		start:   time.Now(),
		sem:     make(chan struct{}, blobSlots),
		maxBody: maxBody,
	}, nil
}

// Dir reports the directory backing the server's blob store.
func (s *BlobServer) Dir() string { return s.opts.Dir }

// Handler returns the server's HTTP mux.
func (s *BlobServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/blob/", s.handleBlob)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Serve accepts connections on ln until it fails.
func (s *BlobServer) Serve(ln net.Listener) error {
	return http.Serve(ln, s.Handler())
}

// handleBlob is GET/PUT /blob/{key}.
func (s *BlobServer) handleBlob(w http.ResponseWriter, r *http.Request) {
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.rejected.Add(1)
		http.Error(w, "server at capacity", http.StatusServiceUnavailable)
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/blob/")
	if !cache.ValidBlobKey(key) {
		s.errors.Add(1)
		http.Error(w, "invalid blob key", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.gets.Add(1)
		b, ok := s.store.GetBytes(key)
		if !ok {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(b)
	case http.MethodPut:
		s.puts.Add(1)
		b, status, err := readBody(w, r, s.maxBody)
		if err != nil {
			s.errors.Add(1)
			http.Error(w, "reading body: "+err.Error(), status)
			return
		}
		if err := s.store.PutBytes(key, b); err != nil {
			s.errors.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		s.errors.Add(1)
		http.Error(w, "use GET or PUT", http.StatusMethodNotAllowed)
	}
}

// BlobStats is the blob server's /stats document.
type BlobStats struct {
	Schema   string           `json:"schema"`
	UptimeNS int64            `json:"uptime_ns"`
	Gets     int64            `json:"gets"`
	Puts     int64            `json:"puts"`
	Errors   int64            `json:"errors"`
	Rejected int64            `json:"rejected"`
	Store    cache.StoreStats `json:"store"`
}

// StatsSnapshot returns the server's cumulative counters.
func (s *BlobServer) StatsSnapshot() BlobStats {
	return BlobStats{
		Schema:   "golclint-blob-stats/v1",
		UptimeNS: time.Since(s.start).Nanoseconds(),
		Gets:     s.gets.Load(),
		Puts:     s.puts.Load(),
		Errors:   s.errors.Load(),
		Rejected: s.rejected.Load(),
		Store:    s.store.Stats(),
	}
}

// handleStats is GET /stats.
func (s *BlobServer) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "use GET", http.StatusMethodNotAllowed)
		return
	}
	b, _ := json.MarshalIndent(s.StatsSnapshot(), "", "  ")
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}
