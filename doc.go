// Package golclint is a Go reproduction of "Static Detection of Dynamic
// Memory Errors" (David Evans, PLDI 1996): the LCLint annotation-based
// static checker for C memory errors, together with every substrate its
// evaluation depends on.
//
// The layout:
//
//	internal/ctoken   C lexer (annotation comments are tokens)
//	internal/cpp      mini C preprocessor
//	internal/cparse   recursive-descent C parser
//	internal/cast     AST
//	internal/ctypes   C type representation
//	internal/annot    the paper's annotation taxonomy (Appendix B)
//	internal/sema     program environment + annotated standard library
//	internal/cfg      acyclic control-flow graphs (no loop back edges)
//	internal/core     THE PAPER'S CONTRIBUTION: the modular checker
//	internal/diag     two-level messages + stylized-comment suppression
//	internal/flags    check toggles (-allimponly, gc mode, ...)
//	internal/obs      instrumentation: counters and spans, the one clock
//	                  (-stats-json timings, -trace JSONL, -trace-out, -hot)
//	internal/library  serialized interface libraries (modular re-checking)
//	internal/interp   run-time baseline (dmalloc/Purify stand-in)
//	internal/testgen  synthetic programs with seeded, labelled bugs
//	internal/ercdb    the Section 6 employee database, staged
//	cmd/golclint      the checking tool
//	cmd/lclbench      regenerates every table/figure reproduction
//
// The benchmarks in bench_test.go map one-to-one onto the experiments
// E1-E14 catalogued in DESIGN.md; EXPERIMENTS.md records paper-vs-measured
// results.
package golclint
