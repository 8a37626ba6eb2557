package cli_test

import (
	"testing"

	pt "golclint/internal/paritytest"
	"golclint/internal/testgen"
)

// The shard rows of internal/paritytest: a generated 12-module program is
// split over -shard i/n workers whose sorted -diag-jsonl streams merge into
// the single-process (-shard 0/1) report. Every worker's stdout must also
// equal its own records' texts in sorted order.

func shardInput() *pt.Input {
	p := testgen.Generate(testgen.Config{Seed: 7, Modules: 12, FuncsPer: 3, Annotate: true, Bugs: pt.AllBugs(6)})
	return &pt.Input{Name: "seed7", Steps: []pt.Source{pt.Generated(p)}}
}

// Merged shard output must be byte-identical to the single-process run at
// every shard count, cold and warm, including -explain and -validate
// payloads.
func TestShardParity(t *testing.T) {
	in := shardInput()
	for _, mode := range []pt.Mode{pt.Plain, pt.Explain, pt.Validate} {
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			var configs []pt.Config
			for _, n := range []int{1, 2, 4, 8} {
				configs = append(configs, pt.Config{Cache: pt.DiskCold, Shards: n, Mode: mode}, pt.Config{Cache: pt.DiskWarm, Shards: n, Mode: mode})
			}
			pt.Check(t, in, configs)
		})
	}
}

// The record Text fields, concatenated in sorted-line order, reproduce
// stdout byte for byte — the property the merge driver relies on to render
// a whole-corpus report from per-shard streams — whatever order the files
// are named in on the command line.
func TestShardJSONLTextReconstructsStdout(t *testing.T) {
	var configs []pt.Config
	for _, mode := range []pt.Mode{pt.Plain, pt.Explain, pt.Validate} {
		configs = append(configs, pt.Config{Shards: 1, Mode: mode, Reverse: true}, pt.Config{Shards: 4, Mode: mode, Reverse: true})
	}
	pt.Check(t, shardInput(), configs)
}
