#!/bin/sh
# Benchmark the experiment result store, the observability layer, the
# solver, and the job queue.
#
#   scripts/bench.sh [expstore.json [obs.json [solver.json [jobqueue.json]]]]
#
# Emits BENCH_expstore.json (cold solve latency, warm hit latency for
# the memory and disk layers, hit-path throughput, the busolve key's
# cost, the bytes-only hit /solve serves, and a warm setting-1 sweep,
# the cell path behind /sweep and /tables), BENCH_obs.json
# (disabled-tracer hook overhead, counter and sample-window throughput,
# ring-sink emit cost, with allocation counts, each row the median of 5
# runs — the disabled path must be 0 allocs/op), BENCH_solver.json (the
# Table-2 sweep grids solved once each on one core, with probe and
# sweep counts; policy iteration against the relative-value-iteration
# reference; the steady-state workspace allocation count, which must be
# 0 allocs/probe; the compile and policy-evaluation costs, where each
# compile row also records the bytes allocated per call and the rows
# time a shape's first model, its second, which builds the shape's
# model family and derives one member, and a later member; and the
# per-policy evaluation path's cost on the Bitcoin baseline), and
# BENCH_jobqueue.json (job-queue control-plane op costs, in-memory and
# journaled; a 3-shard sweep drained by 1 and by 3 workers, each the
# median of 5 sweeps; drain_tail_s, the 3-worker sweeps' median time
# from the last job's completion to the last worker's exit; and the
# validity predicate's cost next to the solve it checks).
set -eu

cd "$(dirname "$0")/.."

OUT="${1:-BENCH_expstore.json}"
case "$OUT" in
/*) ;;
*) OUT="$(pwd)/$OUT" ;;
esac

OBS_OUT="${2:-BENCH_obs.json}"
case "$OBS_OUT" in
/*) ;;
*) OBS_OUT="$(pwd)/$OBS_OUT" ;;
esac

EXPSTORE_BENCH_OUT="$OUT" go test ./internal/expstore/ -run TestBenchEmit -count 1 -v |
	grep -v '^=== RUN\|^--- PASS\|^PASS\|^ok ' || true

echo "wrote $OUT:"
cat "$OUT"

OBS_BENCH_OUT="$OBS_OUT" go test ./internal/obs/ -run TestBenchEmit -count 1 -v |
	grep -v '^=== RUN\|^--- PASS\|^PASS\|^ok ' || true

echo "wrote $OBS_OUT:"
cat "$OBS_OUT"

SOLVER_OUT="${3:-BENCH_solver.json}"
case "$SOLVER_OUT" in
/*) ;;
*) SOLVER_OUT="$(pwd)/$SOLVER_OUT" ;;
esac

SOLVER_BENCH_OUT="$SOLVER_OUT" go test ./internal/core/ -run TestBenchSolver -count 1 -v -timeout 900s |
	grep -v '^=== RUN\|^--- PASS\|^PASS\|^ok ' || true

echo "wrote $SOLVER_OUT:"
cat "$SOLVER_OUT"

JOBQUEUE_OUT="${4:-BENCH_jobqueue.json}"
case "$JOBQUEUE_OUT" in
/*) ;;
*) JOBQUEUE_OUT="$(pwd)/$JOBQUEUE_OUT" ;;
esac

JOBQUEUE_BENCH_OUT="$JOBQUEUE_OUT" go test ./internal/jobqueue/ -run TestBenchEmit -count 1 -v |
	grep -v '^=== RUN\|^--- PASS\|^PASS\|^ok ' || true

echo "wrote $JOBQUEUE_OUT:"
cat "$JOBQUEUE_OUT"
