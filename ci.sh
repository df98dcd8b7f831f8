#!/usr/bin/env bash
# Tier-1 gate for parbcc: configure + build + full ctest on the regular
# tree, a fast bench smoke (the ablation's built-in assertions catch a
# broken BFS-direction or SV-convergence heuristic and a fused aux
# kernel that is slower, fatter, or wrong vs the materialized chain —
# failures unit tests alone would miss), then a ThreadSanitizer tree
# running the curated `sanitize-smoke` label (lock-free CSR scatter,
# work-stealing traversal, SV grafting, bitmap frontier engines, the
# concurrent union-find behind the fused aux kernel, the Chase-Lev
# fork-join scheduler itself, the arena-backed context-reuse sweep,
# the batch-dynamic probe/splice/solve cycle, the hardened text and
# binary readers, the zero-copy ingestion pipeline on the committed
# fixtures, the query server's epoch publication + TCP surface, and
# the post-labeling cut-info / block-cut-tree passes, all at 12-way
# width under both loop-scheduling models), and an AddressSanitizer
# tree running the untrusted-input parser tests (text and .pbg).
# Exits non-zero on the first failure.
#
#   ./ci.sh              # full gate
#   JOBS=4 ./ci.sh       # cap build/test parallelism

set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"

# Run one bench or trace smoke with its stdout in build/<step>.log.  A
# failing step prints the log's `!!` lines (the benches' gate and
# self-check failures) and its tail, then stops the gate.
smoke() {
  local step="$1"
  shift
  if ! "$@" > "build/$step.log"; then
    echo "ci.sh: $step failed; its !! lines and the tail of build/$step.log:" >&2
    grep -F '!!' "build/$step.log" >&2 || true
    tail -n 25 "build/$step.log" >&2
    exit 1
  fi
}

echo "==> tier-1: configure (build/, warnings as errors)"
cmake -B build -S . -DPARBCC_WERROR=ON >/dev/null

echo "==> tier-1: build"
cmake --build build -j "$JOBS"

# The paper's TV pipelines are reproduction code in src/paper/
# (parbcc_paper): no production source includes its headers, and no
# production binary carries its entry point or its drivers.
echo "==> fence: production code and binaries stay free of parbcc_paper"
if grep -rn --include='*.cpp' --include='*.hpp' '#include "paper/' \
    src tools bench/e2e | grep -v '^src/paper/'; then
  echo "fence: a production source includes a paper/ header" >&2
  exit 1
fi
# Shiloach-Vishkin is the paper's connectivity (TV steps 1 and 6): its
# names stay in src/paper/, and production code calls the union-find
# connected_components.  connectivity/shiloach_vishkin.hpp only forwards
# to connectivity/components.hpp for bench_e2e.cpp, its one includer.
if grep -rnE --include='*.cpp' --include='*.hpp' \
    '\b(SvMode|SvStats|connected_components_sv)\b' src | grep -v '^src/paper/'; then
  echo "fence: production source names the paper's Shiloach-Vishkin" >&2
  exit 1
fi
if grep -rl --include='*.cpp' --include='*.hpp' --exclude-dir='build*' \
    --exclude-dir=.bench_build '#include "connectivity/shiloach_vishkin.hpp"' . |
    grep -vx './bench/e2e/bench_e2e.cpp'; then
  echo "fence: include connectivity/components.hpp, not the forwarding header" >&2
  exit 1
fi
for bin in build/bench/e2e/bench_e2e build/tools/pbgstat \
           build/tools/edgelist2pbg; do
  if nm -C "$bin" | grep -E 'parbcc::paper::|tv_[a-z]+_bcc'; then
    echo "fence: $bin links parbcc_paper code" >&2
    exit 1
  fi
done

# Every parallel primitive takes the caller's Workspace, so scratch
# comes from the arena a solve reports.  Only the entry points with no
# context own one: the context itself, the validator, the snapshot
# builder and the two readers.
echo "==> arena guard: a Workspace is constructed only at context-free entry points"
if grep -rnE --include='*.cpp' --include='*.hpp' \
    '\bWorkspace[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*[;({=]|<Workspace>|new Workspace' \
    src | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
    grep -vE '^src/(core/bcc_context\.hpp|core/validate\.cpp|server/snapshot\.cpp|graph/io_binary\.cpp|graph/text_parse\.cpp):'; then
  echo "arena guard: construct no Workspace here; take the caller's" >&2
  exit 1
fi

# The full ctest includes bench_e2e_smoke: every end-to-end workload at
# 1/50 scale with its oracles.
echo "==> tier-1: ctest"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "==> bench smoke: frontier ablation with --json"
smoke bench_smoke env PARBCC_N=20000 PARBCC_REPS=1 \
    ./build/bench/bench_ablation --json build/bench_smoke.json
grep -q '"bench"' build/bench_smoke.json

echo "==> bench smoke: FastBCC vs TV-filter engine ablation (section e)"
smoke bench_fastbcc_smoke env PARBCC_N=20000 PARBCC_REPS=2 \
    ./build/bench/bench_ablation --fastbcc-only \
    --json build/bench_fastbcc_smoke.json
grep -q 'ablation-fastbcc' build/bench_fastbcc_smoke.json

echo "==> bench smoke: work-steal vs SPMD scheduler ablation (section f)"
smoke bench_sched_smoke env PARBCC_N=20000 PARBCC_REPS=2 \
    ./build/bench/bench_ablation --sched-only \
    --json build/bench_sched_smoke.json
grep -q 'ablation-scheduler' build/bench_sched_smoke.json

echo "==> bench smoke: pathological shapes, every engine's block count vs HT"
smoke bench_pathological_smoke env PARBCC_N=20000 PARBCC_THREADS=4 \
    ./build/bench/bench_pathological

echo "==> trace smoke: one traced solve per algorithm"
smoke trace_smoke env PARBCC_N=4000 PARBCC_REPS=1 \
    ./build/bench/bench_fig4 --trace-out=build/trace_smoke.json
python3 tools/validate_trace.py build/trace_smoke.json

# The streaming bench checks its own oracle (labels vs a fresh solve
# every round) and exits non-zero on divergence; the full ≥10x
# throughput gate runs at bench scale via `bench_ablation
# --dynamic-only` section (g).
echo "==> bench smoke: batch-dynamic streaming churn with --json"
smoke bench_dynamic_smoke env PARBCC_N=20000 \
    ./build/bench/bench_dynamic --json build/bench_dynamic_smoke.json
grep -q 'batch-dynamic' build/bench_dynamic_smoke.json

echo "==> trace smoke: batch-dynamic segments"
smoke trace_dynamic_smoke env PARBCC_N=20000 \
    ./build/bench/bench_dynamic --trace-out=build/trace_dynamic_smoke.json
python3 tools/validate_trace.py build/trace_dynamic_smoke.json

# The server bench gates itself: every published epoch is checked
# against a fresh static solve, readers must complete query batches
# while a mutation is in flight (epoch swap, not a lock), and TCP
# clients must stay answered under concurrent mutation.  Any "gate:
# FAIL" exits non-zero.
echo "==> bench smoke: epoch-snapshot query server under load"
smoke bench_server_smoke env PARBCC_N=20000 \
    ./build/bench/bench_server --json build/bench_server_smoke.json
grep -q '"server"' build/bench_server_smoke.json
if grep -q 'gate: FAIL' build/bench_server_smoke.log; then
  cat build/bench_server_smoke.log
  exit 1
fi

# bench_io hard-gates the ingestion stack itself: warm-mmap load >= 20x
# the parallel text ingestion and mmap-path labels identical to in-memory
# labels on every family.  A nonzero exit is a gate failure.
echo "==> bench smoke: zero-copy ingestion gates (A8)"
smoke bench_io_smoke env PARBCC_N=20000 PARBCC_REPS=2 \
    ./build/bench/bench_io --json build/bench_io_smoke.json
grep -q '"io"' build/bench_io_smoke.json

echo "==> trace smoke: ingestion segments (io_map/io_prefault)"
smoke trace_io_smoke env PARBCC_N=20000 PARBCC_REPS=1 \
    ./build/bench/bench_io --trace-out=build/trace_io_smoke.json
python3 tools/validate_trace.py build/trace_io_smoke.json

# End-to-end converter path on the committed fixtures: text -> .pbg
# with the deep verify pass must reproduce each committed .pbg byte for
# byte (the SNAP densify order is part of the file), then solve one
# file both ways and diff the invariant rows (the sed strips pbgstat's
# name column, so identical invariants collapse to one row under uniq).
echo "==> io smoke: edgelist2pbg byte identity + mmap-solve vs text-solve diff"
for name in clique-chain road-grid social-comm web-pa; do
  ./build/tools/edgelist2pbg --format snap --verify \
      "tests/data/$name.txt" "build/ci_$name.pbg" >/dev/null
  if ! cmp "build/ci_$name.pbg" "tests/data/$name.pbg"; then
    echo "io smoke: $name.txt no longer converts to the committed .pbg" >&2
    exit 1
  fi
done
./build/tools/pbgstat --tsv tests/data/social-comm.txt \
    build/ci_social-comm.pbg > build/ci_io_stat.tsv
if [[ "$(tail -n +2 build/ci_io_stat.tsv | sed 's/[^\t]*\t//' | uniq | wc -l)" != 1 ]]; then
  echo "io smoke: text and mmap invariants diverge:" >&2
  cat build/ci_io_stat.tsv >&2
  exit 1
fi

echo "==> tsan: configure (build-tsan/, PARBCC_SANITIZE=thread)"
cmake -B build-tsan -S . -DPARBCC_SANITIZE=thread >/dev/null

echo "==> tsan: build smoke set"
cmake --build build-tsan -j "$JOBS" --target stress_test csr_test \
    workspace_test frontier_test trace_test concurrent_uf_test \
    connectivity_test auxgraph_test fastbcc_test scheduler_test batch_dynamic_test \
    io_test server_test realgraph_test articulation_test blockcut_test \
    two_edge_connected_test

echo "==> tsan: ctest -L sanitize-smoke"
ctest --test-dir build-tsan -L sanitize-smoke --output-on-failure

# The parsers take hostile bytes (malformed text, flipped and truncated
# .pbg files): ASan turns an out-of-bounds read there into a failure.
echo "==> asan: configure (build-asan/, PARBCC_SANITIZE=address)"
cmake -B build-asan -S . -DPARBCC_SANITIZE=address >/dev/null

echo "==> asan: build the input-parser tests"
cmake --build build-asan -j "$JOBS" --target io_test graph_test \
    realgraph_test

echo "==> asan: ctest io_test graph_test realgraph_test"
ctest --test-dir build-asan -R '^(io_test|graph_test|realgraph_test)$' \
    --output-on-failure

echo "==> ci.sh: all green"
