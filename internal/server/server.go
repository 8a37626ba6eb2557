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
// A request runs decode → validate → admit → memo → compute. Fixed limits
// keep one daemon safe under a CI fleet: a 64 MiB body cap, 8 requests in
// flight per client (429 beyond), and 2×GOMAXPROCS concurrent
// computations (later ones queue).
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

// Request-validation bounds and admission limits. They exist to keep the
// daemons safe against absurd inputs (fuzzed or hostile) and overload, not
// to constrain real use.
const (
	maxJobs    = 512
	maxFiles   = 4096
	maxNameLen = 4096
	maxBody    = 64 << 20 // request body cap, both servers
	memoLimit  = 64 << 20 // encoded-response memo cap
	perClient  = 8        // requests in flight per client before 429
	blobSlots  = 64       // concurrent blob requests before 503
)

// Options configures a Server.
type Options struct {
	// CacheDir, when non-empty, layers the resident memory store over a
	// persistent on-disk cache, so warm state survives daemon restarts and
	// prior CLI runs' entries are inherited.
	CacheDir string
}

// Server is one daemon instance. Create with New, mount Handler on an
// http.Server (or serve a listener with Serve).
type Server struct {
	sess  *cli.Session
	start time.Time

	sem     chan struct{} // global computation slots: 2×GOMAXPROCS
	maxBody int64         // request body cap; tests lower it in-package

	mu      sync.Mutex
	clients map[string]int

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

	requests atomic.Int64
	errors   atomic.Int64
	rejected atomic.Int64
	memoHits atomic.Int64
	active   atomic.Int64

	aggMu sync.Mutex
	agg   map[string]int64
}

// New builds a server with a fresh warm session.
func New(o Options) (*Server, error) {
	sess, err := cli.NewSession(o.CacheDir)
	if err != nil {
		return nil, err
	}
	return &Server{
		sess:    sess,
		start:   time.Now(),
		sem:     make(chan struct{}, 2*runtime.GOMAXPROCS(0)),
		maxBody: maxBody,
		memo:    map[string][]byte{},
		clients: map[string]int{},
		agg:     map[string]int64{},
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
	body, status, err := readBody(w, r, s.maxBody)
	if err != nil {
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
			fmt.Sprintf("client %q has %d requests in flight (limit %d)", client, perClient, perClient))
		return
	}
	defer s.release(client)
	s.requests.Add(1)
	s.active.Add(1)
	defer s.active.Add(-1)

	key := requestKey(&req)
	if body = s.memoGet(key); body != nil {
		s.memoHits.Add(1)
	} else {
		body = s.run(&req, cfg, key)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// run executes one validated request, parsed into cfg, against the warm
// session and encodes the response. The request's modules — one for a
// Files request, one per entry of a Modules request, checked against the
// library built from its headers — go through the same cli.Session.Check
// loop a CLI run does. Determinism contract: everything in the response
// except Counters depends only on the request content, never on cache
// warmth or concurrency — warm replays are byte-identical because the cache
// stores the full observable outcome, and concurrent identical requests
// each compute the same bytes. run holds one of the server's computation
// slots while it checks, so a request over the limit queues here, after the
// memo.
func (s *Server) run(req *CheckRequest, cfg *cli.Config, key string) []byte {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	metrics := obs.New()
	cfg.Metrics = metrics
	module := func(name string, files map[string]string) cli.Module {
		inc := includerFor(req.Headers, files)
		return cli.Module{Name: name, Load: func() (map[string]string, cpp.Includer, error) { return files, inc, nil }}
	}
	var mods []cli.Module
	if len(req.Files) > 0 {
		mods = append(mods, module("", req.Files))
	} else {
		cfg.Lib = s.sess.LibraryFor(req.Headers)
		for name, files := range req.Modules {
			mods = append(mods, module(name, files))
		}
	}
	var out, errb bytes.Buffer
	code, res := s.sess.Check(cfg, mods, &out, &errb)
	snap := metrics.Snapshot()
	resp := &CheckResponse{Exit: code, Stdout: out.String(), Stderr: errb.String(),
		Diagnostics: cli.StatsDiags(res.Diags), CacheHit: res.CacheHit, Counters: snap.Counters}
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

// requestKey is a request's memo key: every field streams into one
// SHA-256, maps in sorted key order with their sizes, and every component
// length-prefixed as cache.KeyHasher does, so two requests with the same
// content hash identically regardless of construction order. It hashes the
// request in place: serializing a whole request only to hash it had cost a
// copy of every source on every request, memo repeats included.
func requestKey(req *CheckRequest) string {
	h := cache.NewKeyHasher("check-request", "")
	files := func(m map[string]string) {
		h.Component(strconv.Itoa(len(m)))
		for _, n := range sortedNames(m) {
			h.Component(n)
			h.Component(m[n])
		}
	}
	files(req.Files)
	h.Component(strconv.Itoa(len(req.Modules)))
	for _, n := range sortedNames(req.Modules) {
		h.Component(n)
		files(req.Modules[n])
	}
	files(req.Headers)
	h.Component(req.Flags)
	h.Component(strconv.Itoa(req.Jobs))
	h.Component(strconv.FormatBool(req.Explain))
	h.Component(strconv.FormatBool(req.Validate))
	h.Component(strconv.Itoa(req.Max))
	return h.Sum()
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

// readBody reads a request body under the size cap for both servers. On
// failure it also returns the status to answer: 413 for a body over the
// cap, 400 for any other read error.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, int, error) {
	defer r.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge, err
		}
		return nil, http.StatusBadRequest, err
	}
	return buf.Bytes(), http.StatusOK, nil
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
	if s.clients[client] >= perClient {
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
	Schema   string `json:"schema"`
	UptimeNS int64  `json:"uptime_ns"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
	Rejected int64  `json:"rejected"`
	// Coalesced always reads 0: identical in-flight requests each
	// compute, none sharing another's result. It stays in the document
	// because the benchmark harness (perfbench) reads it.
	Coalesced   int64 `json:"coalesced"`
	MemoHits    int64 `json:"memo_hits"`
	MemoEntries int   `json:"memo_entries"`
	MemoBytes   int64 `json:"memo_bytes"`
	InFlight    int64 `json:"in_flight"`
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
