// Package server implements golclint's daemon mode: a long-running
// HTTP/JSON analysis service that keeps the interface library, intern
// tables, and the content-addressed analysis cache resident in memory
// between requests, so the edit → re-check loop pays none of the process
// startup, library rebuild, or cache deserialization cost of a one-shot
// CLI run. Endpoints:
//
//	POST /check   run one batched check request (CheckRequest → CheckResponse)
//	GET  /stats   cumulative server counters, JSON
//	GET  /healthz liveness probe
//
// A response replays the exact CLI surface — exit status, stdout, stderr
// byte-identical to a cold `golclint` run on the same inputs (the parity
// suite in this package enforces it) — plus the machine-readable
// diagnostics wire form of -stats-json. This falls out of construction
// rather than duplication: a request is converted to an argument vector,
// validated by the same cli.ParseConfig the command uses, and executed by
// the same cli.Session code path, against a resident cache.Store layered
// over the on-disk cache.
//
// Identical in-flight requests coalesce into one computation
// (singleflight), and global plus per-client concurrency limits keep one
// daemon safe under a CI fleet.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"golclint/internal/cache"
	"golclint/internal/cli"
	"golclint/internal/cpp"
	"golclint/internal/obs"
)

// Request-validation bounds. They exist to make the daemon safe against
// absurd inputs (fuzzed or hostile), not to constrain real use.
const (
	maxJobs     = 512
	maxFiles    = 4096
	maxNameLen  = 4096
	defaultBody = 64 << 20 // request body cap
	memoLimit   = 64 << 20 // encoded-response memo cap
)

// Options configures a Server.
type Options struct {
	// CacheDir, when non-empty, layers the resident memory store over a
	// persistent on-disk cache, so warm state survives daemon restarts and
	// prior CLI runs' entries are inherited.
	CacheDir string
	// MaxInFlight bounds concurrently executing check computations across
	// all clients (queued requests wait); 0 means 2×GOMAXPROCS.
	MaxInFlight int
	// PerClient bounds concurrently in-flight requests per client (the
	// X-Golclint-Client header, falling back to the remote host); a client
	// over its bound is answered 429. 0 means 8.
	PerClient int
	// MaxBodyBytes caps the request body; 0 means 64 MiB.
	MaxBodyBytes int64
}

// Server is one daemon instance. Create with New, mount Handler on an
// http.Server (or serve a listener with Serve).
type Server struct {
	opts  Options
	sess  *cli.Session
	start time.Time

	sem chan struct{} // global computation slots

	mu       sync.Mutex
	inflight map[string]*flight
	clients  map[string]int

	// memo caches encoded responses of fully-warm computations by request
	// key. A request is self-contained (sources, headers, and flags all
	// travel in the body) and the checker is deterministic, so the response
	// is a pure function of the key — the memo never needs invalidation,
	// only capacity eviction. Only responses whose computation was itself a
	// complete resident-cache hit are stored, so replayed counters describe
	// a warm run truthfully.
	memoMu    sync.Mutex
	memo      map[string][]byte
	memoBytes int64

	requests  atomic.Int64
	errors    atomic.Int64
	rejected  atomic.Int64
	coalesced atomic.Int64
	memoHits  atomic.Int64
	active    atomic.Int64

	aggMu sync.Mutex
	agg   map[string]int64
}

// New builds a server with a fresh warm session.
func New(o Options) (*Server, error) {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if o.PerClient <= 0 {
		o.PerClient = 8
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = defaultBody
	}
	sess, err := cli.NewSession(o.CacheDir)
	if err != nil {
		return nil, err
	}
	return &Server{
		opts:     o,
		sess:     sess,
		start:    time.Now(),
		sem:      make(chan struct{}, o.MaxInFlight),
		inflight: map[string]*flight{},
		memo:     map[string][]byte{},
		clients:  map[string]int{},
		agg:      map[string]int64{},
	}, nil
}

// Handler returns the server's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/check", s.handleCheck)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// Serve accepts connections on ln until it fails. It exists so callers
// (cmd/golclint, lclbench) need only a listener.
func (s *Server) Serve(ln net.Listener) error {
	return http.Serve(ln, s.Handler())
}

// CheckRequest is the /check request body. Exactly one of Files or Modules
// must be set:
//
//   - Files checks one module (one CLI invocation over that file set).
//   - Modules checks several modules against a shared interface library
//     built from Headers, in sorted module-name order — the batched form of
//     running the CLI once per module with -lib. A module whose inputs and
//     interface dependencies are unchanged replays from the resident cache;
//     a header edit invalidates exactly the dependent modules, via the
//     per-symbol fingerprints the cache entries record.
//
// Headers are additional include-resolvable files in either mode. Flags is
// the -flags toggle string; Jobs, Explain, Validate, and Max mirror the
// CLI flags of the same names.
type CheckRequest struct {
	Files   map[string]string            `json:"files,omitempty"`
	Modules map[string]map[string]string `json:"modules,omitempty"`
	Headers map[string]string            `json:"headers,omitempty"`

	Flags    string `json:"flags,omitempty"`
	Jobs     int    `json:"jobs,omitempty"`
	Explain  bool   `json:"explain,omitempty"`
	Validate bool   `json:"validate,omitempty"`
	Max      int    `json:"max,omitempty"`
}

// CheckResponse is the /check response body. Exit, Stdout, and Stderr are
// byte-identical to the cold CLI on the same inputs; Diagnostics is the
// -stats-json wire form (provenance and validation tags included).
// CacheHit reports that every module in the request replayed from the
// resident cache; Counters are this request's analysis counters
// (cache_hits / cache_misses expose which modules were dirty).
type CheckResponse struct {
	Exit        int              `json:"exit"`
	Stdout      string           `json:"stdout"`
	Stderr      string           `json:"stderr"`
	Diagnostics []cli.StatsDiag  `json:"diagnostics"`
	CacheHit    bool             `json:"cache_hit"`
	Counters    map[string]int64 `json:"counters,omitempty"`
}

// errorResponse is the 4xx body.
type errorResponse struct {
	Error string `json:"error"`
}

// validate bounds-checks a decoded request before any state is touched.
func (r *CheckRequest) validate() error {
	single := len(r.Files) > 0
	batch := len(r.Modules) > 0
	if single == batch {
		return errors.New("exactly one of files or modules must be non-empty")
	}
	if r.Jobs < 0 || r.Jobs > maxJobs {
		return fmt.Errorf("jobs %d out of range [0, %d]", r.Jobs, maxJobs)
	}
	if r.Max < 0 {
		return fmt.Errorf("max %d is negative", r.Max)
	}
	total := 0
	checkName := func(kind, name string) error {
		switch {
		case name == "":
			return fmt.Errorf("empty %s name", kind)
		case len(name) > maxNameLen:
			return fmt.Errorf("%s name longer than %d bytes", kind, maxNameLen)
		case strings.HasPrefix(name, "-"):
			return fmt.Errorf("%s name %q starts with '-'", kind, name)
		case strings.ContainsAny(name, "\x00\n"):
			return fmt.Errorf("%s name %q contains a control byte", kind, name)
		}
		return nil
	}
	for name := range r.Files {
		if err := checkName("file", name); err != nil {
			return err
		}
		total++
	}
	for mod, files := range r.Modules {
		if err := checkName("module", mod); err != nil {
			return err
		}
		if len(files) == 0 {
			return fmt.Errorf("module %q has no files", mod)
		}
		for name := range files {
			if err := checkName("file", name); err != nil {
				return err
			}
			total++
		}
	}
	for name := range r.Headers {
		if err := checkName("header", name); err != nil {
			return err
		}
		total++
	}
	if total > maxFiles {
		return fmt.Errorf("%d files exceeds the %d-file limit", total, maxFiles)
	}
	return nil
}

// argv converts the request's flag surface into the argument vector the
// equivalent CLI invocation would use, with the (sorted) file names as
// positionals. Routing requests through cli.ParseConfig on this vector —
// rather than building a Config by hand — is what guarantees a request is
// accepted, rejected, and defaulted exactly as the command line is.
func (r *CheckRequest) argv(names []string) []string {
	var args []string
	if r.Flags != "" {
		args = append(args, "-flags", r.Flags)
	}
	if r.Jobs > 0 {
		args = append(args, "-jobs", strconv.Itoa(r.Jobs))
	}
	if r.Max > 0 {
		args = append(args, "-max", strconv.Itoa(r.Max))
	}
	if r.Explain {
		args = append(args, "-explain")
	}
	if r.Validate {
		args = append(args, "-validate")
	}
	return append(args, names...)
}

// sortedNames returns m's keys in sorted order (the CLI's deterministic
// file order).
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// parseRequest validates r against the CLI's own flag parser and returns
// the per-request Config. The flag-error text the CLI would print comes
// back as errText.
func parseRequest(r *CheckRequest) (cfg *cli.Config, errText string, err error) {
	names := sortedNames(r.Files)
	if len(r.Modules) > 0 {
		names = nil
		for _, mod := range sortedNames(r.Modules) {
			names = append(names, sortedNames(r.Modules[mod])...)
		}
	}
	var eb bytes.Buffer
	cfg, err = cli.ParseConfig(r.argv(names), &eb)
	if err != nil {
		return nil, strings.TrimSpace(eb.String()), err
	}
	return cfg, "", nil
}

// includerFor resolves includes from the request itself: its headers plus
// the module's own sources (matching the CLI, where a module's directory is
// always on the include path).
func includerFor(headers, files map[string]string) cpp.Includer {
	m := make(map[string]string, len(headers)+len(files))
	for k, v := range headers {
		m[k] = v
	}
	for k, v := range files {
		m[k] = v
	}
	return cpp.MapIncluder(m)
}

// handleCheck is POST /check.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.clientError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	body, err := readBody(w, r, s.opts.MaxBodyBytes)
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.clientError(w, status, "reading request body: "+err.Error())
		return
	}
	var req CheckRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.clientError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	if dec.More() {
		s.clientError(w, http.StatusBadRequest, "trailing data after request object")
		return
	}
	if err := req.validate(); err != nil {
		s.clientError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Flag validation parity with the CLI, before any resident state is
	// touched: a request the command line would reject is rejected here,
	// with the same error text.
	cfg, errText, err := parseRequest(&req)
	if err != nil {
		s.clientError(w, http.StatusBadRequest, errText)
		return
	}

	client := clientKey(r)
	if !s.admit(client) {
		s.rejected.Add(1)
		s.clientError(w, http.StatusTooManyRequests,
			fmt.Sprintf("client %q has %d requests in flight (limit %d)", client, s.opts.PerClient, s.opts.PerClient))
		return
	}
	defer s.release(client)
	s.requests.Add(1)
	s.active.Add(1)
	defer s.active.Add(-1)

	key := requestKey(&req)
	if b := s.memoGet(key); b != nil {
		s.memoHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
		return
	}
	body, coalesced := s.coalesce(key, func() []byte {
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
		return s.run(&req, cfg, key)
	})
	if coalesced {
		s.coalesced.Add(1)
	}
	if body == nil {
		// Only reachable if a leader's computation panicked out from under
		// its followers; the checker itself must never do this (the fuzz
		// suite leans on that), so surface it loudly rather than mask it.
		http.Error(w, "internal error: coalesced computation did not complete", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// run executes one validated request, parsed into cfg, against the warm
// session and encodes the response. Every module of a batch runs under
// the one cfg. Determinism contract: everything in the response except
// Counters depends only on the request content, never on cache warmth or
// concurrency — warm replays are byte-identical because the cache stores
// the full observable outcome, and coalesced followers share the leader's
// encoded bytes outright.
func (s *Server) run(req *CheckRequest, cfg *cli.Config, key string) []byte {
	metrics := obs.New()
	var out, errb bytes.Buffer
	resp := &CheckResponse{CacheHit: true, Diagnostics: []cli.StatsDiag{}}
	cfg.Metrics = metrics
	if len(req.Modules) > 0 {
		cfg.Lib = s.sess.LibraryFor(req.Headers)
	}

	runOne := func(files map[string]string) {
		code, res := s.sess.Execute(cfg, files, includerFor(req.Headers, files), &out, &errb)
		if code > resp.Exit {
			resp.Exit = code
		}
		if res != nil {
			resp.Diagnostics = append(resp.Diagnostics, cli.StatsDiags(res.Diags)...)
			resp.CacheHit = resp.CacheHit && res.CacheHit
		} else {
			resp.CacheHit = false
		}
	}

	if len(req.Files) > 0 {
		runOne(req.Files)
	} else {
		// Modules run in sorted name order, sequentially: output ordering
		// matches the CLI loop `for m in modules: golclint -lib shared.lib
		// $m`, and intra-module parallelism (Jobs) is where the cores go.
		for _, mod := range sortedNames(req.Modules) {
			runOne(req.Modules[mod])
		}
	}

	resp.Stdout = out.String()
	resp.Stderr = errb.String()
	snap := metrics.Snapshot()
	resp.Counters = snap.Counters
	s.aggregate(snap.Counters)

	b, err := json.Marshal(resp)
	if err != nil { // a response we built ourselves always marshals
		b, _ = json.Marshal(errorResponse{Error: err.Error()})
		return append(b, '\n')
	}
	b = append(b, '\n')
	if resp.CacheHit {
		// A fully-resident computation: identical future requests can skip
		// the checker (and even the frontend) and replay these exact bytes.
		s.memoPut(key, b)
	}
	return b
}

// memoGet returns the memoized encoded response for key, if any. The bytes
// are shared, never mutated: handlers only write them to the wire.
func (s *Server) memoGet(key string) []byte {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	return s.memo[key]
}

// memoPut stores an encoded response, evicting arbitrary entries to stay
// under memoLimit (mirroring cache.MemStore: any resident subset is valid,
// evicted keys simply recompute warm).
func (s *Server) memoPut(key string, b []byte) {
	if int64(len(b)) > memoLimit {
		return
	}
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if old, ok := s.memo[key]; ok {
		s.memoBytes -= int64(len(old))
	}
	for k, v := range s.memo {
		if s.memoBytes+int64(len(b)) <= memoLimit {
			break
		}
		if k == key {
			continue
		}
		s.memoBytes -= int64(len(v))
		delete(s.memo, k)
	}
	s.memo[key] = b
	s.memoBytes += int64(len(b))
}

// clientError answers a request-side failure as JSON with the given status.
func (s *Server) clientError(w http.ResponseWriter, status int, msg string) {
	s.errors.Add(1)
	b, _ := json.Marshal(errorResponse{Error: msg})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// readBody reads the request body under the size cap.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	defer r.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// clientKey identifies the requesting client for per-client limits: an
// explicit X-Golclint-Client header when present (CI fleets set this per
// job), otherwise the remote host.
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-Golclint-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// admit reserves a per-client slot, refusing when the client is at its
// bound.
func (s *Server) admit(client string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.clients[client] >= s.opts.PerClient {
		return false
	}
	s.clients[client]++
	return true
}

// release frees a per-client slot.
func (s *Server) release(client string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.clients[client]--; s.clients[client] <= 0 {
		delete(s.clients, client)
	}
}

// aggregate folds one request's counters into the server totals.
func (s *Server) aggregate(counters map[string]int64) {
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	for k, v := range counters {
		s.agg[k] += v
	}
}

// Stats is the /stats document.
type Stats struct {
	Schema      string `json:"schema"`
	UptimeNS    int64  `json:"uptime_ns"`
	Requests    int64  `json:"requests"`
	Errors      int64  `json:"errors"`
	Rejected    int64  `json:"rejected"`
	Coalesced   int64  `json:"coalesced"`
	MemoHits    int64  `json:"memo_hits"`
	MemoEntries int    `json:"memo_entries"`
	MemoBytes   int64  `json:"memo_bytes"`
	InFlight    int64  `json:"in_flight"`
	// CacheStores breaks the session's store stack down per layer ("mem",
	// "disk", "remote") in the same shape -stats-json uses.
	CacheStores       map[string]cache.StoreStats `json:"cache_stores,omitempty"`
	ResidentLibraries int                         `json:"resident_libraries"`
	Counters          map[string]int64            `json:"counters"`
}

// StatsSnapshot returns the server's cumulative counters.
func (s *Server) StatsSnapshot() Stats {
	s.aggMu.Lock()
	counters := make(map[string]int64, len(s.agg))
	for k, v := range s.agg {
		counters[k] = v
	}
	s.aggMu.Unlock()
	s.memoMu.Lock()
	memoEntries, memoBytes := len(s.memo), s.memoBytes
	s.memoMu.Unlock()
	return Stats{
		Schema:            "golclint-serve-stats/v1",
		UptimeNS:          time.Since(s.start).Nanoseconds(),
		Requests:          s.requests.Load(),
		Errors:            s.errors.Load(),
		Rejected:          s.rejected.Load(),
		Coalesced:         s.coalesced.Load(),
		MemoHits:          s.memoHits.Load(),
		MemoEntries:       memoEntries,
		MemoBytes:         memoBytes,
		InFlight:          s.active.Load(),
		CacheStores:       s.sess.LayerStats(),
		ResidentLibraries: s.sess.ResidentLibraries(),
		Counters:          counters,
	}
}

// handleStats is GET /stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.clientError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	b, _ := json.MarshalIndent(s.StatsSnapshot(), "", "  ")
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}
