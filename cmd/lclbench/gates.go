package main

import (
	"fmt"
	"strconv"
	"strings"
)

// gate is one pass/fail rule over a BENCH document: every value at field
// must stand in relation op to the threshold, which is limit or, when ref
// is set, scale × the value at ref.
//
// A field is a dotted path into the decoded document. A segment may index
// an array: [i] from the front, [-1] the last element, [*] every element;
// len(path) reads an array's length. op is one of "<=", ">=", ">", "=="
// or "true" (a boolean that must hold).
type gate struct {
	exp   string
	field string
	op    string
	limit float64
	scale float64
	ref   string
	// full rows assert only on full runs, where the document's quick is
	// false: they need the full-size corpus.
	full bool
	// timing rows read a ratio of wall times, which host noise can move;
	// the package tests skip them and lclbench alone enforces them.
	timing bool
}

var gates = []gate{
	// E9: the ladder grows and every row was checked and allocated.
	{exp: "E9", field: "rows[0].lines", op: ">"},
	{exp: "E9", field: "rows[-1].lines", op: ">", scale: 1, ref: "rows[0].lines"},
	{exp: "E9", field: "rows[*].counters.functions_checked", op: ">"},
	{exp: "E9", field: "rows[*].alloc_bytes", op: ">"},

	// E10: the module check loads the whole library; both checks allocate.
	{exp: "E10", field: "module_counters.library_entries_loaded", op: "==", scale: 1, ref: "library_entries"},
	{exp: "E10", field: "library_entries", op: ">"},
	{exp: "E10", field: "whole_alloc_bytes", op: ">"},
	{exp: "E10", field: "module_alloc_bytes", op: ">"},

	// E15: a jobs ladder from 1 up to max_jobs whose message counts agree
	// at every worker count (the determinism contract as data), each row
	// populated.
	{exp: "E15", field: "rows[0].jobs", op: "==", limit: 1},
	{exp: "E15", field: "rows[-1].jobs", op: "==", scale: 1, ref: "max_jobs"},
	{exp: "E15", field: "rows[*].messages", op: "==", scale: 1, ref: "rows[0].messages"},
	{exp: "E15", field: "rows[0].messages", op: ">"},
	{exp: "E15", field: "functions", op: ">"},
	{exp: "E15", field: "rows[*].check_wall_ms", op: ">"},
	{exp: "E15", field: "rows[*].check_cpu_ms", op: ">"},
	{exp: "E15", field: "rows[*].speedup", op: ">"},
	{exp: "E15", field: "rows[*].check_speedup", op: ">"},
	{exp: "E15", field: "rows[*].alloc_bytes", op: ">"},

	// E17: check-phase allocations within 20% of the committed budget and
	// at least 5x under the map-store baseline; the copy-on-write counters
	// move, and the committed constants are the ones stamped.
	{exp: "E17", field: "allocs_per_op", op: ">"},
	{exp: "E17", field: "allocs_per_op", op: "<=", scale: 1.2, ref: "budget_allocs_per_op"},
	{exp: "E17", field: "allocs_per_op", op: "<=", scale: 0.2, ref: "baseline_allocs_per_op"},
	{exp: "E17", field: "alloc_bytes_per_op", op: ">"},
	{exp: "E17", field: "store_clones", op: ">"},
	{exp: "E17", field: "refstates_copied", op: ">"},
	{exp: "E17", field: "budget_allocs_per_op", op: "==", limit: stateBudgetAllocsPerOp},
	{exp: "E17", field: "baseline_allocs_per_op", op: "==", limit: stateBaselineAllocsPerOp},

	// E18: frontend allocations, as E17, and both frontend phases timed.
	{exp: "E18", field: "allocs_per_op", op: ">"},
	{exp: "E18", field: "allocs_per_op", op: "<=", scale: 1.2, ref: "budget_allocs_per_op"},
	{exp: "E18", field: "allocs_per_op", op: "<=", scale: 0.2, ref: "baseline_allocs_per_op"},
	{exp: "E18", field: "alloc_bytes_per_op", op: ">"},
	{exp: "E18", field: "preprocess_wall_ns", op: ">"},
	{exp: "E18", field: "parse_wall_ns", op: ">"},
	{exp: "E18", field: "budget_allocs_per_op", op: "==", limit: frontendBudgetAllocsPerOp},
	{exp: "E18", field: "baseline_allocs_per_op", op: "==", limit: frontendBaselineAllocsPerOp},

	// E19: the provenance hooks are free when off: at most 2% wall over the
	// plain checker and at most 50 extra allocations a pass. The off path
	// holds the E17 budget, recording on does record, and every diagnostic
	// carries a witness.
	{exp: "E19", field: "overhead_off_pct", op: "<=", limit: 2, timing: true},
	{exp: "E19", field: "extra_allocs_off_per_op", op: "<=", limit: 50},
	{exp: "E19", field: "baseline_allocs_per_op", op: ">"},
	{exp: "E19", field: "off_allocs_per_op", op: ">"},
	{exp: "E19", field: "off_allocs_per_op", op: "<=", scale: 1.2, ref: "budget_allocs_per_op"},
	{exp: "E19", field: "on_allocs_per_op", op: ">", scale: 1, ref: "off_allocs_per_op"},
	{exp: "E19", field: "budget_allocs_per_op", op: "==", limit: stateBudgetAllocsPerOp},
	{exp: "E19", field: "diags", op: ">"},
	{exp: "E19", field: "witnessed", op: "==", scale: 1, ref: "diags"},

	// E20: every one of the 24 seeded bugs validates confirmed, the
	// confirmed rate holds at 0.8, and the fastest validation pass fits the
	// committed budget with an order of magnitude to spare.
	{exp: "E20", field: "seeded_total", op: "==", limit: 24},
	{exp: "E20", field: "seeded_confirmed", op: "==", scale: 1, ref: "seeded_total"},
	{exp: "E20", field: "diags", op: ">"},
	{exp: "E20", field: "confirmed_rate", op: ">=", limit: 0.8},
	{exp: "E20", field: "validate_ns_per_op", op: "<=", scale: 0.1, ref: "budget_ns_per_op"},
	{exp: "E20", field: "ns_per_diag", op: ">"},
	{exp: "E20", field: "budget_ns_per_op", op: "==", limit: validateBudgetNSPerOp},

	// E21: a warm request beats a cold CLI run 5x at p50; the warm set
	// replays the memo and the resident cache fills.
	{exp: "E21", field: "warm_p50_ns", op: ">"},
	{exp: "E21", field: "warm_p99_ns", op: ">=", scale: 1, ref: "warm_p50_ns"},
	{exp: "E21", field: "speedup_warm", op: ">"},
	{exp: "E21", field: "speedup_warm", op: ">=", limit: 5, timing: true},
	{exp: "E21", field: "memo_hits", op: ">"},
	{exp: "E21", field: "cache_entries", op: ">"},
	{exp: "E21", field: "cache_bytes", op: ">"},

	// E22: shard-merge parity in every mode, byte-identical warm replay
	// from framed entries that store at most compressionBytesPerKLOC, and
	// ms/KLOC within 2x across a
	// ladder whose every row reports diagnostics. The full run needs a
	// million-line, thousand-module corpus and a cold fleet over the warm
	// remote 5x faster than a cold single process.
	{exp: "E22", field: "parity_cold", op: "true"},
	{exp: "E22", field: "parity_warm", op: "true"},
	{exp: "E22", field: "parity_explain", op: "true"},
	{exp: "E22", field: "parity_validate", op: "true"},
	{exp: "E22", field: "warm_replay_identical", op: "true"},
	{exp: "E22", field: "compression_bytes_per_kloc", op: "<=", limit: compressionBytesPerKLOC},
	{exp: "E22", field: "len(rows)", op: ">=", limit: 2},
	{exp: "E22", field: "rows[-1].ms_per_kloc", op: "<=", scale: 2, ref: "rows[0].ms_per_kloc"},
	{exp: "E22", field: "rows[*].messages", op: ">"},
	{exp: "E22", field: "rows[-1].lines", op: ">=", limit: 1_000_000, full: true},
	{exp: "E22", field: "rows[-1].modules", op: ">=", limit: 1000, full: true},
	{exp: "E22", field: "fleet_speedup", op: ">=", limit: 5, full: true, timing: true},

	// E23: a one-function edit re-checks exactly that function and replays
	// the rest, an annotation edit re-checks the module, warm dirty
	// transcripts equal cold ones in every mode, and the full run beats
	// module-granular re-checking by the committed factor.
	{exp: "E23", field: "func_cache_misses", op: "==", limit: 1},
	{exp: "E23", field: "func_cache_hits", op: ">"},
	{exp: "E23", field: "annot_edit_func_misses", op: ">", limit: 1},
	{exp: "E23", field: "len(parity_jobs)", op: ">"},
	{exp: "E23", field: "parity_plain", op: "true"},
	{exp: "E23", field: "parity_explain", op: "true"},
	{exp: "E23", field: "parity_validate", op: "true"},
	{exp: "E23", field: "messages", op: ">"},
	{exp: "E23", field: "speedup_dirty", op: ">"},
	{exp: "E23", field: "speedup_gate", op: "==", limit: editloopSpeedupGate},
	{exp: "E23", field: "speedup_dirty", op: ">=", scale: 1, ref: "speedup_gate", full: true, timing: true},
}

// violations evaluates the gates of doc's experiment and returns one error
// per broken row; withTiming false skips the timing rows.
func violations(doc map[string]any, withTiming bool) []error {
	var errs []error
	for _, g := range gates {
		if g.exp != doc["experiment"] || g.timing && !withTiming {
			continue
		}
		if err := g.check(doc); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// check returns why doc breaks the row, or nil.
func (g gate) check(doc map[string]any) error {
	if g.full && doc["quick"] == true {
		return nil
	}
	vals, err := lookup(doc, g.field)
	if err != nil {
		return fmt.Errorf("gate %s: %v", g.exp, err)
	}
	threshold := g.limit
	if g.ref != "" {
		v, err := lookup(doc, g.ref)
		if err != nil || len(v) != 1 {
			return fmt.Errorf("gate %s: reading %s: %v", g.exp, g.ref, err)
		}
		x, ok := v[0].(float64)
		if !ok {
			return fmt.Errorf("gate %s: %s is not a number", g.exp, g.ref)
		}
		threshold = g.scale * x
	}
	for _, v := range vals {
		if g.op == "true" {
			if v != true {
				return fmt.Errorf("gate %s: %s is %v, want true", g.exp, g.field, v)
			}
			continue
		}
		x, ok := v.(float64)
		var pass bool
		switch g.op {
		case "<=":
			pass = x <= threshold
		case ">=":
			pass = x >= threshold
		case ">":
			pass = x > threshold
		case "==":
			pass = x == threshold
		}
		if !ok || !pass {
			return fmt.Errorf("gate %s: %s is %v, want %s %g", g.exp, g.field, v, g.op, threshold)
		}
	}
	return nil
}

// lookup returns the values at path in doc (several under a [*] segment).
func lookup(doc map[string]any, path string) ([]any, error) {
	if inner, ok := strings.CutPrefix(path, "len("); ok {
		vals, err := lookup(doc, strings.TrimSuffix(inner, ")"))
		if err != nil {
			return nil, err
		}
		arr, ok := vals[0].([]any)
		if len(vals) != 1 || !ok {
			return nil, fmt.Errorf("%s is not an array", path)
		}
		return []any{float64(len(arr))}, nil
	}
	vals := []any{doc}
	for _, seg := range strings.Split(path, ".") {
		name, index, indexed := strings.Cut(seg, "[")
		var next []any
		for _, v := range vals {
			m, ok := v.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("%s: %s is not an object", path, name)
			}
			x, ok := m[name]
			if !ok {
				return nil, fmt.Errorf("%s: no field %s", path, name)
			}
			if !indexed {
				next = append(next, x)
				continue
			}
			arr, ok := x.([]any)
			if !ok || len(arr) == 0 {
				return nil, fmt.Errorf("%s: %s is not a non-empty array", path, name)
			}
			switch index = strings.TrimSuffix(index, "]"); index {
			case "*":
				next = append(next, arr...)
			case "-1":
				next = append(next, arr[len(arr)-1])
			default:
				i, err := strconv.Atoi(index)
				if err != nil || i < 0 || i >= len(arr) {
					return nil, fmt.Errorf("%s: bad index %s", path, index)
				}
				next = append(next, arr[i])
			}
		}
		vals = next
	}
	return vals, nil
}
