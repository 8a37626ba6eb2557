package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"golclint/internal/cpp"
	"golclint/internal/diag"
	"golclint/internal/flags"
	"golclint/internal/library"
	"golclint/internal/obs"
)

// dirIncluder resolves #include files against a list of directories.
type dirIncluder struct {
	dirs []string
}

// Include implements cpp.Includer. A file that exists but cannot be read
// (permissions, I/O) reports that error instead of pretending the file is
// absent — otherwise the builtin-header fallback could silently mask it.
func (d dirIncluder) Include(name string) (string, error) {
	var firstErr error
	for _, dir := range d.dirs {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err == nil {
			return string(b), nil
		}
		if !os.IsNotExist(err) && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return "", firstErr
	}
	return "", &cpp.NotFoundError{Name: name}
}

// multiFlag collects repeated -I options.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

// Config is one fully parsed golclint invocation. ParseConfig produces it
// from an argument vector; the analysis server also builds one per request
// (via ParseConfig, for exact flag-validation parity with the CLI) and then
// fills the programmatic-only fields below.
type Config struct {
	// Flags is the checker configuration with every -flags toggle and -max
	// applied; never nil after ParseConfig.
	Flags *flags.Flags
	// Paths are the positional source arguments. RunConfig reads them from
	// disk (diagnostics use the base name); the server uses them only as
	// names for supplied sources.
	Paths []string
	// IncDirs are the -I include directories.
	IncDirs []string

	DumpLib  string // -dump-lib
	LoadLib  string // -lib
	ShowCFG  string // -cfg
	CacheDir string // -cache-dir
	Stats    bool   // -stats
	Explain  bool   // -explain
	Validate bool   // -validate
	// FnCache is -fn-cache: the function-granular cache layer (per-function
	// sub-entries with early cutoff), on by default whenever a cache store
	// is configured. -fn-cache=false keeps caching module-granular, the
	// baseline the editloop benchmark compares against.
	FnCache bool

	// RemoteCache is the -remote-cache blob server address; when set, the
	// run's store gains a remote layer below the disk cache.
	RemoteCache string
	// CacheMaxBytes is -cache-max-bytes: a byte bound on the on-disk cache
	// directory, enforced by eviction (0 = unbounded).
	CacheMaxBytes int64
	// Shard is the -shard "i/n" spec. When set, the positional sources are
	// treated as one module each and this process checks only the modules a
	// stable hash assigns to shard i of n (see RunShard).
	Shard string
	// DiagJSONL is the -diag-jsonl path: every retained diagnostic is
	// streamed to it as one self-contained JSON record per line, in output
	// order, for cross-shard merging.
	DiagJSONL string

	StatsJSON  string // -stats-json
	TracePath  string // -trace
	TraceOut   string // -trace-out
	HotN       int    // -hot
	CPUProfile string // -cpuprofile
	MemProfile string // -memprofile

	MaxMsgs int // -max (already applied to Flags)
	Jobs    int // -jobs

	// Serve is the -serve listen address. When set, cmd/golclint starts the
	// analysis server instead of a one-shot run, and Paths may be empty.
	Serve string
	// ServeInFlight and ServePerClient bound the server's concurrent checks
	// globally and per client (0 = server defaults).
	ServeInFlight  int
	ServePerClient int
	// CacheServe is the -cache-serve listen address. When set, cmd/golclint
	// runs the shared blob-cache server (backed by -cache-dir, bounded by
	// -cache-max-bytes) instead of checking files, and Paths may be empty.
	CacheServe string

	// Lib, when non-nil, is a preloaded interface library to check against —
	// the programmatic form of -lib. Execute loads LoadLib from disk into
	// the same path; the server installs its resident libraries here.
	Lib *library.Library
	// Metrics, when non-nil, receives phase timings and counters even when
	// no stats flag asked for them. The server sets it to collect
	// per-request counters; when nil, Execute creates metrics only if an
	// output flag needs them.
	Metrics *obs.Metrics
	// DiagSink, when non-nil, receives each retained diagnostic in output
	// order — the programmatic form of -diag-jsonl. The shard runner shares
	// one JSONL writer across its per-module checks this way; when set, it
	// takes precedence over DiagJSONL.
	DiagSink func(*diag.Diagnostic)
}

// ParseConfig parses one golclint argument vector into a Config. It is
// pure: a fresh FlagSet per call, no globals touched, no filesystem access —
// so the analysis server can validate a request's flags without mutating
// any resident state, and concurrent parses cannot interfere. Usage and
// error text goes to errw exactly as the CLI prints it; the returned error
// is non-nil whenever the CLI would exit 2 before loading inputs.
func ParseConfig(args []string, errw io.Writer) (*Config, error) {
	fs := flag.NewFlagSet("golclint", flag.ContinueOnError)
	fs.SetOutput(errw)
	cfg := &Config{}
	var incDirs multiFlag
	flagToggles := fs.String("flags", "", "space-separated checker flag toggles (+name / -name)")
	fs.StringVar(&cfg.DumpLib, "dump-lib", "", "write an interface library to this file")
	fs.StringVar(&cfg.LoadLib, "lib", "", "load an interface library from this file")
	fs.StringVar(&cfg.ShowCFG, "cfg", "", "print the named function's control-flow graph")
	fs.StringVar(&cfg.CacheDir, "cache-dir", "", "persistent analysis cache directory (empty = caching off)")
	fs.BoolVar(&cfg.FnCache, "fn-cache", true, "function-granular cache sub-entries: a dirty module re-checks only its edited functions (false = module-granular caching)")
	fs.BoolVar(&cfg.Stats, "stats", false, "print summary statistics")
	fs.StringVar(&cfg.StatsJSON, "stats-json", "", "write run metrics and message counts as JSON to this file")
	fs.StringVar(&cfg.TracePath, "trace", "", "write per-function trace events (JSONL) to this file")
	fs.BoolVar(&cfg.Explain, "explain", false, "print the witness path (branch decisions and state transitions) under each warning")
	fs.BoolVar(&cfg.Validate, "validate", false, "replay each warning's witness path through the instrumented interpreter and tag it confirmed / unreproduced / path-infeasible")
	fs.StringVar(&cfg.TraceOut, "trace-out", "", "write hierarchical spans as Chrome trace_event JSON to this file (Perfetto-loadable)")
	fs.IntVar(&cfg.HotN, "hot", 0, "print the N slowest functions by check wall time")
	fs.StringVar(&cfg.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&cfg.MemProfile, "memprofile", "", "write a pprof heap profile to this file")
	fs.IntVar(&cfg.MaxMsgs, "max", 0, "maximum number of messages (0 = unlimited)")
	fs.IntVar(&cfg.Jobs, "jobs", 0, "concurrent checking workers (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&cfg.Serve, "serve", "", "run as an analysis server on this listen address (host:port) instead of checking files")
	fs.IntVar(&cfg.ServeInFlight, "serve-inflight", 0, "server mode: maximum concurrent check computations (0 = 2x GOMAXPROCS)")
	fs.IntVar(&cfg.ServePerClient, "serve-per-client", 0, "server mode: maximum concurrent requests per client before 429 (0 = default)")
	fs.StringVar(&cfg.CacheServe, "cache-serve", "", "run as a shared blob-cache server on this listen address (host:port); requires -cache-dir")
	fs.StringVar(&cfg.RemoteCache, "remote-cache", "", "shared blob-cache server address (host:port or URL) to layer below the disk cache")
	fs.Int64Var(&cfg.CacheMaxBytes, "cache-max-bytes", 0, "bound the on-disk cache directory to this many bytes, evicting oldest entries (0 = unbounded)")
	fs.StringVar(&cfg.Shard, "shard", "", "check only shard i of n ('i/n', 0 <= i < n): each source file is one module, assigned by a stable hash of its base name")
	fs.StringVar(&cfg.DiagJSONL, "diag-jsonl", "", "stream retained diagnostics as one JSON record per line to this file (mergeable across shards)")
	fs.Var(&incDirs, "I", "include directory (repeatable)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() == 0 && cfg.Serve == "" && cfg.CacheServe == "" {
		fmt.Fprintln(errw, "golclint: no input files")
		fs.Usage()
		return nil, errors.New("no input files")
	}
	if cfg.CacheServe != "" && cfg.CacheDir == "" {
		fmt.Fprintln(errw, "golclint: -cache-serve requires -cache-dir")
		return nil, errors.New("-cache-serve requires -cache-dir")
	}
	if cfg.Shard != "" {
		if _, _, err := ParseShard(cfg.Shard); err != nil {
			fmt.Fprintf(errw, "golclint: %v\n", err)
			return nil, err
		}
	}
	if msg := cfg.conflict(fs.NArg()); msg != "" {
		fmt.Fprintf(errw, "golclint: %s\n", msg)
		return nil, errors.New(msg)
	}

	fl := flags.Default()
	fl.MaxMessages = cfg.MaxMsgs
	for _, tog := range strings.Fields(*flagToggles) {
		if err := fl.Set(tog); err != nil {
			fmt.Fprintf(errw, "golclint: %v\n", err)
			return nil, err
		}
	}
	cfg.Flags = fl
	cfg.Paths = fs.Args()
	cfg.IncDirs = incDirs
	return cfg, nil
}

// conflict names the first flag combination the command would otherwise
// accept and then partly ignore, checking in a fixed order so the message
// never depends on anything but the arguments; "" when there is none.
// Shard workers reject every flag whose output is one whole-run artifact:
// per-module runs would overwrite it.
func (cfg *Config) conflict(nargs int) string {
	if cfg.Serve != "" {
		switch {
		case nargs > 0:
			return "-serve takes no input files"
		case cfg.CacheServe != "":
			return "-serve and -cache-serve are exclusive"
		case cfg.CacheMaxBytes != 0:
			return "-cache-max-bytes is not supported with -serve"
		}
	}
	if cfg.CacheMaxBytes != 0 && cfg.CacheDir == "" {
		return "-cache-max-bytes requires -cache-dir"
	}
	if cfg.Shard != "" {
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-cfg", cfg.ShowCFG != ""},
			{"-dump-lib", cfg.DumpLib != ""},
			{"-trace", cfg.TracePath != ""},
			{"-trace-out", cfg.TraceOut != ""},
			{"-hot", cfg.HotN > 0},
			{"-cpuprofile", cfg.CPUProfile != ""},
			{"-memprofile", cfg.MemProfile != ""},
		} {
			if f.set {
				return f.name + " is not supported with -shard"
			}
		}
	}
	return ""
}

// needsProgram reports whether the run must analyze its sources even when
// a cache entry could replay them: -cfg prints the parsed units and
// -dump-lib builds the library from the analyzed program, and a hit has
// neither. Such runs use no cache at all.
func (cfg *Config) needsProgram() bool {
	return cfg.ShowCFG != "" || cfg.DumpLib != ""
}

// LoadInputs reads cfg.Paths from disk — keyed by base name, which is how
// diagnostics report positions — and builds the include resolver over the
// sources' directories plus the -I dirs. It is the only part of a run that
// touches the filesystem for inputs; the analysis server supplies sources
// and an includer directly and never calls it.
func (cfg *Config) LoadInputs() (map[string]string, cpp.Includer, error) {
	files := map[string]string{}
	dirSet := map[string]bool{}
	for _, path := range cfg.Paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		files[filepath.Base(path)] = string(b)
		dirSet[filepath.Dir(path)] = true
	}
	for _, d := range cfg.IncDirs {
		dirSet[d] = true
	}
	var dirs []string
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	return files, dirIncluder{dirs: dirs}, nil
}
