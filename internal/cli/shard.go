package cli

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"golclint/internal/core"
	"golclint/internal/library"
	"golclint/internal/obs"
)

// Sharded checking (`golclint -shard i/n file.c...`): the positional
// sources are treated as one module each, a stable hash over the module
// name assigns every module to exactly one of n shards, and this process
// checks only shard i's modules — in sorted name order, against the shared
// interface library (-lib) and the shared cache stack (-cache-dir,
// -remote-cache). Workers never talk to each other: the partition is a
// pure function of the name set, so n processes launched with the same
// argument vector and different i cover every module exactly once and
// coordinate only through the cache.
//
// Determinism contract: the concatenation of all shards' outputs, merged in
// module-name order (or the sorted merge of their -diag-jsonl streams), is
// byte-identical to `-shard 0/1` — the single-process run, which uses this
// same per-module loop. The hash never changes between versions; changing
// it would silently re-partition fleets mid-rollout.

// ParseShard parses a -shard "i/n" spec.
func ParseShard(s string) (index, count int, err error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return 0, 0, fmt.Errorf("shard spec %q: want i/n", s)
	}
	index, err = strconv.Atoi(s[:slash])
	if err != nil {
		return 0, 0, fmt.Errorf("shard spec %q: bad index", s)
	}
	count, err = strconv.Atoi(s[slash+1:])
	if err != nil {
		return 0, 0, fmt.Errorf("shard spec %q: bad count", s)
	}
	if count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("shard spec %q: want 0 <= i < n", s)
	}
	return index, count, nil
}

// ShardOf assigns a module name to a shard: FNV-1a over the name, mod n.
// FNV-1a is stable across platforms and Go versions, which is the property
// the partition needs (crypto strength is not: a skewed adversarial name
// set only unbalances load, never correctness).
func ShardOf(name string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	io.WriteString(h, name)
	return int(h.Sum32() % uint32(n))
}

// RunShard executes one shard worker. ParseConfig has already rejected the
// flags that assume a single whole-run artifact (-cfg, -dump-lib, -trace,
// -trace-out, -hot, -cpuprofile, -memprofile).
func RunShard(cfg *Config, stdout, stderr io.Writer) int {
	index, count, err := ParseShard(cfg.Shard)
	if err != nil {
		fmt.Fprintf(stderr, "golclint: %v\n", err)
		return 2
	}

	// Partition: one positional path = one module, named by base name.
	// Sorted module-name order fixes the emission order within the shard.
	type module struct{ name, path string }
	var mine []module
	seen := map[string]string{}
	for _, p := range cfg.Paths {
		name := filepath.Base(p)
		if prev, dup := seen[name]; dup {
			fmt.Fprintf(stderr, "golclint: duplicate module name %q (%s and %s)\n", name, prev, p)
			return 2
		}
		seen[name] = p
		if ShardOf(name, count) == index {
			mine = append(mine, module{name: name, path: p})
		}
	}
	sort.Slice(mine, func(i, j int) bool { return mine[i].name < mine[j].name })

	sess, err := sessionFor(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "golclint: %v\n", err)
		return 2
	}

	// The interface library loads once and is shared by every module check,
	// exactly as the batched server path does.
	var lib *library.Library
	if cfg.LoadLib != "" {
		f, err := os.Open(cfg.LoadLib)
		if err != nil {
			fmt.Fprintf(stderr, "golclint: %v\n", err)
			return 2
		}
		lib, err = library.Decode(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "golclint: %v\n", err)
			return 2
		}
	}

	var jsonlWriter *DiagJSONLWriter
	var jsonlBuf *bufio.Writer
	var jsonlFile *os.File
	if cfg.DiagJSONL != "" {
		f, err := os.Create(cfg.DiagJSONL)
		if err != nil {
			fmt.Fprintf(stderr, "golclint: %v\n", err)
			return 2
		}
		jsonlFile = f
		jsonlBuf = bufio.NewWriter(f)
		jsonlWriter = NewDiagJSONLWriter(jsonlBuf, "", diagRenderMode(cfg.Explain, cfg.Validate))
	}

	metrics := cfg.Metrics
	if metrics == nil && (cfg.Stats || cfg.StatsJSON != "") {
		metrics = obs.New()
	}

	// agg accumulates the whole shard's outcome for -stats/-stats-json.
	agg := &core.Result{}
	exit := 0
	for _, mod := range mine {
		mcfg := *cfg
		mcfg.Paths = []string{mod.path}
		mcfg.Shard, mcfg.DiagJSONL, mcfg.StatsJSON = "", "", ""
		mcfg.Stats = false
		mcfg.Lib = lib
		mcfg.Metrics = metrics
		if jsonlWriter != nil {
			jsonlWriter.SetModule(mod.name)
			mcfg.DiagSink = jsonlWriter.Sink
		}
		files, inc, err := mcfg.LoadInputs()
		if err != nil {
			fmt.Fprintf(stderr, "golclint: %v\n", err)
			return 2
		}
		code, res := sess.Execute(&mcfg, files, inc, stdout, stderr)
		if code > exit {
			exit = code
		}
		if res != nil {
			agg.Diags = append(agg.Diags, res.Diags...)
			agg.Suppressed += res.Suppressed
			agg.ParseErrors = append(agg.ParseErrors, res.ParseErrors...)
			agg.SemaErrors = append(agg.SemaErrors, res.SemaErrors...)
		}
	}

	if jsonlWriter != nil {
		err := jsonlBuf.Flush()
		if cerr := jsonlFile.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = jsonlWriter.Err()
		}
		if err != nil {
			fmt.Fprintf(stderr, "golclint: diag-jsonl: %v\n", err)
			return 2
		}
	}

	if cfg.Stats {
		printStatsSummary(stdout, agg)
	}
	if cfg.StatsJSON != "" {
		names := make([]string, 0, len(mine))
		for _, mod := range mine {
			names = append(names, mod.path)
		}
		if err := writeStatsJSON(cfg.StatsJSON, names, cfg.Flags, metrics, agg, cfg.Explain || cfg.Validate, sess.LayerStats()); err != nil {
			fmt.Fprintf(stderr, "golclint: %v\n", err)
			return 2
		}
	}
	return exit
}
