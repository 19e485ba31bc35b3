#!/usr/bin/env bash
# Runs the gated benchmark set and collects `go test -bench` output into
# the file named by $1. Used by the CI bench job on both the PR head and
# the base commit; packages that don't exist yet on the base commit are
# skipped (benchgate treats their benchmarks as new).
set -euo pipefail
out=$1
: > "$out"

run_bench() {
  local pattern=$1 pkg=$2
  go test -bench "$pattern" -benchmem -count 6 -benchtime 0.3s -run '^$' "$pkg" | tee -a "$out"
}

run_bench 'BenchmarkMNADelay$' .
# The tree LU kernel (absent on commits predating it; benchgate then
# treats it as new).
run_bench 'BenchmarkTreeLUSolve$' .
run_bench 'BenchmarkSweep10k$' ./internal/sweep
if [ -d internal/serve ]; then
  run_bench 'BenchmarkServe(DelayHot|DelayCold|Sweep)$' ./internal/serve
fi
# Reduced-order engine benches (absent on commits predating internal/mor;
# benchgate then treats them as new).
if [ -d internal/mor ]; then
  run_bench 'Benchmark(ACReduced|ACExact2000|MORBuild)$' ./internal/mna
fi
# RLC-tree benches (absent on commits predating internal/rlctree).
if [ -d internal/rlctree ]; then
  run_bench 'BenchmarkTreeDelay$' ./internal/rlctree
  run_bench 'BenchmarkTreeSweep$' ./internal/sweep
fi
# What-if session benches (absent on commits predating internal/session;
# BenchmarkWhatIfExactRead is absent before sessions read reduced
# exactly, and benchgate then treats it as new).
if [ -d internal/session ]; then
  run_bench 'BenchmarkWhatIf(EditSequence|ExactRead)$' ./internal/session
fi
