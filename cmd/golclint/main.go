// Command golclint is the checking tool: it preprocesses, parses, and
// checks C sources with memory annotations, reporting anomalies in the
// paper's message format.
//
// Usage:
//
//	golclint [options] file.c...
//
//	-flags "+name -name ..."   checker flag toggles (see internal/flags)
//	-I dir                     add an include directory (repeatable)
//	-dump-lib file             write an interface library after checking
//	                           (the run bypasses -cache-dir)
//	-lib file                  load an interface library before checking
//	                           (modular re-checking of the given files)
//	-cfg function              print the function's control-flow graph
//	-cache-dir dir             persist analysis results under dir and
//	                           replay them for unchanged inputs
//	-jobs n                    number of concurrent checking workers
//	                           (0 = GOMAXPROCS, 1 = serial; output is
//	                           byte-identical at every worker count)
//	-stats                     print summary statistics
//	-stats-json file           write run metrics + message counts as JSON
//	-trace file                write JSONL after the run: one line per
//	                           function checked, then one per diagnostic
//	                           under -explain or -validate
//	-cpuprofile file           write a pprof CPU profile
//	-memprofile file           write a pprof heap profile
//	-max n                     cap the number of reported messages
//
// Server mode replaces the one-shot run with a resident daemon (see
// internal/server for the request/response schema):
//
//	-serve host:port           serve POST /check, GET /stats, GET /healthz
//	                           over HTTP, keeping the analysis cache and
//	                           interface libraries warm between requests;
//	                           combine with -cache-dir to persist warm
//	                           state across restarts
//	-serve-inflight n          max concurrent check computations
//	-serve-per-client n        max in-flight requests per client (429 over)
//
// Exit status is 1 when anomalies were reported, 2 on usage or I/O errors.
//
// The implementation lives in internal/cli and internal/server so tests
// (and the golden-corpus runner) can invoke the same code path in-process.
package main

import (
	"fmt"
	"net"
	"os"

	"golclint/internal/cli"
	"golclint/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run reads os.Stdout/os.Stderr at call time so tests that redirect them
// before calling still capture the output.
func run(args []string) int {
	cfg, err := cli.ParseConfig(args, os.Stderr)
	if err != nil {
		return 2
	}
	if cfg.Serve != "" {
		return serve(cfg)
	}
	if cfg.CacheServe != "" {
		return cacheServe(cfg)
	}
	return cli.RunConfig(cfg, os.Stdout, os.Stderr)
}

// cacheServe runs the shared blob-cache server behind distributed sharded
// checking: GET/PUT /blob/{key} over the -cache-dir directory, bounded by
// -cache-max-bytes.
func cacheServe(cfg *cli.Config) int {
	srv, err := server.NewBlob(server.BlobOptions{
		Dir:         cfg.CacheDir,
		MaxBytes:    cfg.CacheMaxBytes,
		MaxInFlight: cfg.ServeInFlight,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "golclint: %v\n", err)
		return 2
	}
	ln, err := net.Listen("tcp", cfg.CacheServe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "golclint: %v\n", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "golclint: blob cache serving on http://%s\n", ln.Addr())
	if err := srv.Serve(ln); err != nil {
		fmt.Fprintf(os.Stderr, "golclint: %v\n", err)
		return 2
	}
	return 0
}

// serve runs the analysis daemon until the listener fails (or the process
// is signalled).
func serve(cfg *cli.Config) int {
	srv, err := server.New(server.Options{
		CacheDir:    cfg.CacheDir,
		MaxInFlight: cfg.ServeInFlight,
		PerClient:   cfg.ServePerClient,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "golclint: %v\n", err)
		return 2
	}
	ln, err := net.Listen("tcp", cfg.Serve)
	if err != nil {
		fmt.Fprintf(os.Stderr, "golclint: %v\n", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "golclint: serving on http://%s\n", ln.Addr())
	if err := srv.Serve(ln); err != nil {
		fmt.Fprintf(os.Stderr, "golclint: %v\n", err)
		return 2
	}
	return 0
}
