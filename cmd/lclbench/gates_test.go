package main

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// Every gate row passes a synthetic document that sits on its threshold
// (one above it, for ">") and fails one just past it. No experiment runs, so no timing noise reaches
// the verdicts.
func TestGateTable(t *testing.T) {
	for i, g := range gates {
		pass, fail := gateDocs(g)
		if err := g.check(pass); err != nil {
			t.Errorf("row %d (%s %s): passing document fails: %v", i, g.exp, g.field, err)
		}
		if err := g.check(fail); err == nil {
			t.Errorf("row %d (%s %s): document past the threshold passes", i, g.exp, g.field)
		}
		if g.full {
			fail["quick"] = true
			if err := g.check(fail); err != nil {
				t.Errorf("row %d (%s %s): full-run row asserted on a quick document: %v", i, g.exp, g.field, err)
			}
		}
	}
}

// refValue is what gateDocs stores in every ref field.
const refValue = 100.0

// gateDocs builds a document on g's threshold and one just past it.
func gateDocs(g gate) (pass, fail map[string]any) {
	threshold := g.limit
	if g.ref != "" {
		threshold = g.scale * refValue
	}
	on, past := any(true), any(false)
	switch g.op {
	case "<=":
		on, past = threshold, math.Nextafter(threshold, math.Inf(1))
	case ">=":
		on, past = threshold, math.Nextafter(threshold, math.Inf(-1))
	case ">":
		// A whole step above, so a len(...) field can hold it.
		on, past = threshold+1, threshold
	case "==":
		on, past = threshold, threshold+1
	}
	build := func(v any) map[string]any {
		doc := map[string]any{"experiment": g.exp, "quick": false}
		if g.ref != "" {
			setPath(doc, g.ref, refValue)
		}
		setPath(doc, g.field, on)
		// Under [*], break only the last element so a ref on the first
		// keeps its value.
		setPath(doc, strings.Replace(g.field, "[*]", "[-1]", 1), v)
		return doc
	}
	return build(on), build(past)
}

// setPath stores v at path in doc (see gate for the syntax), creating
// objects on the way and two-element arrays for indexed segments;
// len(path) stores an array of v elements.
func setPath(doc map[string]any, path string, v any) {
	if inner, ok := strings.CutPrefix(path, "len("); ok {
		arr := make([]any, int(v.(float64)))
		for i := range arr {
			arr[i] = map[string]any{}
		}
		doc[strings.TrimSuffix(inner, ")")] = arr
		return
	}
	segs := strings.Split(path, ".")
	objs := []map[string]any{doc}
	for i, seg := range segs {
		name, index, indexed := strings.Cut(seg, "[")
		last := i == len(segs)-1
		var next []map[string]any
		for _, m := range objs {
			if !indexed {
				if last {
					m[name] = v
					continue
				}
				child, ok := m[name].(map[string]any)
				if !ok {
					child = map[string]any{}
					m[name] = child
				}
				next = append(next, child)
				continue
			}
			arr, ok := m[name].([]any)
			if !ok {
				arr = []any{map[string]any{}, map[string]any{}}
				m[name] = arr
			}
			var at []int
			switch index = strings.TrimSuffix(index, "]"); index {
			case "*":
				for k := range arr {
					at = append(at, k)
				}
			case "-1":
				at = []int{len(arr) - 1}
			default:
				k, _ := strconv.Atoi(index)
				at = []int{k}
			}
			for _, k := range at {
				if last {
					arr[k] = v
				} else {
					next = append(next, arr[k].(map[string]any))
				}
			}
		}
		objs = next
	}
}

// The gate evaluator reads paths and picks rows by experiment and kind.
func TestViolations(t *testing.T) {
	doc := map[string]any{
		"experiment": "E21", "quick": true,
		"warm_p50_ns": 100.0, "warm_p99_ns": 90.0, "speedup_warm": 1.0,
		"memo_hits": 1.0, "cache_entries": 1.0, "cache_bytes": 1.0,
	}
	if errs := violations(doc, false); len(errs) != 1 || !strings.Contains(errs[0].Error(), "warm_p99_ns") {
		t.Errorf("without timing rows: %v, want the p99 row alone", errs)
	}
	if errs := violations(doc, true); len(errs) != 2 {
		t.Errorf("with timing rows: %v, want the p99 and speedup rows", errs)
	}
	delete(doc, "memo_hits")
	if errs := violations(doc, false); len(errs) != 2 {
		t.Errorf("missing field: %v, want it reported", errs)
	}
	doc["experiment"] = "E0"
	if errs := violations(doc, true); len(errs) != 0 {
		t.Errorf("another experiment's document: %v, want no rows", errs)
	}
}
