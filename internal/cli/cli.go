// Package cli implements the golclint command: flag parsing, file loading,
// cache wiring, and report rendering. It lives in an internal package (with
// all output directed to caller-supplied writers) so that tests — notably
// the golden-corpus runner — can drive the exact production code path
// without spawning a subprocess.
//
// ParseConfig (config.go) is the pure argument parser and the one place
// flag conflicts are checked. Session.Check (session.go) is the one module
// loop every run goes through: set up what a run needs once, check each
// module in name order, then write what a run writes once. Execute is its
// one-module case, RunShard (shard.go) partitions the positional files
// into modules for it, and Run below composes parsing, loading and
// Execute for one-shot use. The analysis server (internal/server) parses
// each request with ParseConfig and checks its modules with Check on a
// long-lived Session, so a warm request runs the exact CLI code path.
package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"golclint/internal/atomicio"
	"golclint/internal/cache"
	"golclint/internal/core"
	"golclint/internal/diag"
	"golclint/internal/flags"
	"golclint/internal/library"
	"golclint/internal/obs"
)

// Run executes one golclint invocation, writing diagnostics to stdout and
// errors to stderr. Exit status is 1 when anomalies were reported, 2 on
// usage or I/O errors.
func Run(args []string, stdout, stderr io.Writer) int {
	cfg, err := ParseConfig(args, stderr)
	if err != nil {
		return 2
	}
	return RunConfig(cfg, stdout, stderr)
}

// RunConfig executes one parsed one-shot invocation: load inputs, open the
// on-disk cache if asked, check, render. Each call uses a transient Session
// holding no resident state, so one-shot behavior (and output) is identical
// to what the monolithic Run always produced. The server modes run only
// from cmd/golclint, which imports the servers; RunConfig refuses them with
// exit 2 rather than checking no files.
func RunConfig(cfg *Config, stdout, stderr io.Writer) int {
	if cfg.Serve != "" || cfg.CacheServe != "" {
		fmt.Fprintln(stderr, "golclint: -serve and -cache-serve run only from the golclint command")
		return 2
	}
	if cfg.Shard != "" {
		return RunShard(cfg, stdout, stderr)
	}
	files, inc, err := cfg.LoadInputs()
	if err != nil {
		fmt.Fprintf(stderr, "golclint: %v\n", err)
		return 2
	}
	sess, err := sessionFor(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "golclint: %v\n", err)
		return 2
	}
	code, _ := sess.Execute(cfg, files, inc, stdout, stderr)
	return code
}

// sessionFor builds the transient session for one invocation: a disk cache
// when -cache-dir asked (bounded by -cache-max-bytes), a remote layer when
// -remote-cache did. A run that needs the analyzed program (-cfg,
// -dump-lib) gets neither layer.
func sessionFor(cfg *Config) (*Session, error) {
	sess := &Session{}
	if cfg.needsProgram() {
		return sess, nil
	}
	if cfg.CacheDir != "" {
		c, err := cache.Open(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		c.SetMaxBytes(cfg.CacheMaxBytes)
		sess.disk = c
	}
	if cfg.RemoteCache != "" {
		sess.remote = cache.NewRemoteStore(cfg.RemoteCache)
	}
	return sess, nil
}

// writeLibrary emits the checked program's interface library. -dump-lib
// runs uncached (Config.needsProgram), so the Program is always there.
func writeLibrary(path string, res *core.Result, stats bool, stdout, stderr io.Writer) int {
	lib := library.Build(res.Program)
	var buf bytes.Buffer
	if err := lib.Encode(&buf); err != nil {
		fmt.Fprintf(stderr, "golclint: %v\n", err)
		return 2
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintf(stderr, "golclint: %v\n", err)
		return 2
	}
	if stats {
		fmt.Fprintf(stdout, "interface library: %s\n", lib.Stats())
	}
	return 0
}

// runStats is the -stats-json document. The schema field names the format
// so downstream tooling can detect incompatible changes.
type runStats struct {
	Schema  string          `json:"schema"`
	Files   []string        `json:"files"`
	Flags   map[string]bool `json:"flags"`
	TotalNS int64           `json:"total_ns"`
	// PhasesNS sum per-worker time (CPU-like totals under -jobs > 1); the
	// *WallNS fields are the wall-clock times of the per-file preprocess
	// and parse fan-outs and the cfg+check fan-out, and Jobs the worker
	// count, so wall-vs-CPU speedup per region is PhasesNS[region]/wall.
	PhasesNS         map[string]int64 `json:"phases_ns"`
	PreprocessWallNS int64            `json:"preprocess_wall_ns"`
	ParseWallNS      int64            `json:"parse_wall_ns"`
	CheckWallNS      int64            `json:"check_wall_ns"`
	Jobs             int              `json:"jobs"`
	Counters         map[string]int64 `json:"counters"`
	Messages         int              `json:"messages"`
	Suppressed       int              `json:"suppressed"`
	ByCode           map[string]int   `json:"messages_by_code"`
	ParseErrors      int              `json:"parse_errors"`
	SemaErrors       int              `json:"sema_errors"`
	// Diagnostics is populated only under -explain: each message with its
	// machine-readable witness path. Absent otherwise, so default stats
	// output is unchanged.
	Diagnostics []StatsDiag `json:"diagnostics,omitempty"`
	// CacheStores reports per-layer cache counters ("mem", "disk",
	// "remote") for each store layer the run was configured with; absent
	// when the run had no cache.
	CacheStores map[string]cache.StoreStats `json:"cache_stores,omitempty"`
}

// StatsDiag is one diagnostic in the machine-readable wire form shared by
// the -stats-json document and the analysis server's /check responses.
type StatsDiag struct {
	Pos     string   `json:"pos"`
	Code    string   `json:"code"`
	Msg     string   `json:"msg"`
	Ref     string   `json:"ref,omitempty"`
	Witness []string `json:"witness,omitempty"`
	// Validation fields are present only when -validate tagged the
	// diagnostic: the tag name and the human-readable search outcome.
	Validation       string `json:"validation,omitempty"`
	ValidationDetail string `json:"validation_detail,omitempty"`
}

// StatsDiags renders diagnostics into the shared wire form, provenance and
// validation tags included.
func StatsDiags(ds []*diag.Diagnostic) []StatsDiag {
	out := make([]StatsDiag, 0, len(ds))
	for _, d := range ds {
		sd := StatsDiag{Pos: d.Pos.String(), Code: d.Code.String(), Msg: d.Msg}
		if d.Prov != nil {
			sd.Ref = d.Prov.Ref
			for _, s := range d.Prov.Steps {
				sd.Witness = append(sd.Witness, s.StepString())
			}
		}
		if d.Validation != nil && d.Validation.Tag != diag.ValidationNone {
			sd.Validation = d.Validation.Tag.String()
			sd.ValidationDetail = d.Validation.Detail
		}
		out = append(out, sd)
	}
	return out
}

// writeStatsJSON renders the run's metrics and per-code message counts.
// Map keys serialize in sorted order, so the output is deterministic up to
// the (intentionally volatile) duration fields.
func writeStatsJSON(path string, files []string, fl *flags.Flags, m *obs.Metrics, res *core.Result, explain bool, stores map[string]cache.StoreStats) error {
	snap := m.Snapshot()
	byCode := map[string]int{}
	for c, n := range res.CountByCode() {
		byCode[c.String()] = n
	}
	sortedFiles := append([]string(nil), files...)
	sort.Strings(sortedFiles)
	doc := runStats{
		Schema:           "golclint-stats/v1",
		Files:            sortedFiles,
		Flags:            fl.Map(),
		TotalNS:          snap.TotalNS,
		PhasesNS:         snap.PhasesNS,
		PreprocessWallNS: snap.PreprocessWallNS,
		ParseWallNS:      snap.ParseWallNS,
		CheckWallNS:      snap.CheckWallNS,
		Jobs:             snap.Jobs,
		Counters:         snap.Counters,
		Messages:         len(res.Diags),
		Suppressed:       res.Suppressed,
		ByCode:           byCode,
		ParseErrors:      len(res.ParseErrors),
		SemaErrors:       len(res.SemaErrors),
	}
	if explain {
		doc.Diagnostics = StatsDiags(res.Diags)
	}
	if len(stores) > 0 {
		doc.CacheStores = stores
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, append(b, '\n'), 0o644)
}

// printStatsSummary renders the -stats block: message totals and per-code
// counts in sorted code order.
func printStatsSummary(stdout io.Writer, res *core.Result) {
	counts := res.CountByCode()
	keys := make([]diag.Code, 0, len(counts))
	for c := range counts {
		keys = append(keys, c)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	fmt.Fprintf(stdout, "%d message(s), %d suppressed\n", len(res.Diags), res.Suppressed)
	for _, c := range keys {
		fmt.Fprintf(stdout, "  %-16s %d\n", c, counts[c])
	}
}
