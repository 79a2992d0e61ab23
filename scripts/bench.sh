#!/usr/bin/env sh
# Solver-core benchmark: emits BENCH_solver.json so the warm-start
# speedup (total simplex iterations across the branch-and-bound trees the
# registry workloads search, warm vs cold) and the parallel tree-search
# speedup (node throughput of the same trees, serial vs a 4-worker pool)
# are tracked across PRs.
#
# Usage: scripts/bench.sh [outdir]
#
#   1. BenchmarkLPSolve / BenchmarkMIPNode / BenchmarkBtran
#      micro-benchmarks (one iteration: warm-vs-cold iteration counts,
#      and one unit and one dense BTRAN on a fixed 64-eta factor);
#   2. the solver experiment on the tiny registry dataset, which fails on
#      warm/cold divergence, a warm-start regression, any Workers=4 vs
#      Workers=1 divergence (the deterministic-node-accounting gate), or
#      a parallel node-throughput regression against the previous
#      BENCH_solver.json, and writes the new BENCH_solver.json. The
#      experiment also runs the degenerate-model leg — the P=1 k-means
#      scheduling ILP that used to stall the warm dual re-solves — with
#      hard gates on the anti-degeneracy wiring (perturbation reaching
#      the tree search, cheap shift-removal clean-up) and a
#      baseline-relative gate on its deterministic iteration and
#      cold-fallback counts (skipped when the baseline predates the leg),
#      and the sparse-LU leg — a >3000-row scheduling ILP (spmv P=4)
#      that the old dense-inverse core refused to factor — with hard
#      gates on the unlock itself (the model must enter tree search),
#      on factorization quality (fill-in bounded relative to the basis,
#      at least one refactorization, warm factor reuse firing) and
#      baseline-relative gates on its iteration count, fill-in and
#      refactorization count (also skipped for pre-LU baselines).
set -eu

cd "$(dirname "$0")/.."
outdir="${1:-.}"

echo "== micro-benchmarks: BenchmarkLPSolve, BenchmarkMIPNode, BenchmarkBtran (1 iteration)"
go test -run '^$' -bench 'BenchmarkLPSolve|BenchmarkMIPNode|BenchmarkBtran' -benchtime 1x . ./internal/lp

# Snapshot the previous results before the run overwrites them: the
# regression gate compares dimensionless speedups against this baseline.
baseline=""
if [ -f "${outdir}/BENCH_solver.json" ]; then
    baseline="${outdir}/BENCH_solver.json.baseline"
    cp "${outdir}/BENCH_solver.json" "${baseline}"
    # Snapshot removal must survive a gate failure aborting the script.
    trap 'rm -f "${baseline}"' EXIT
fi

echo "== solver experiment -> ${outdir}/BENCH_solver.json"
go run ./cmd/mbsp-bench -experiment solver -dataset tiny -timeout 10s \
    -json "${outdir}/BENCH_solver.json" ${baseline:+-baseline "${baseline}"}

echo "bench: OK"
