#!/usr/bin/env bash
# The repo's full verification gate; CI runs exactly this.
#
#   scripts/ci.sh          # everything
#   scripts/ci.sh --fast   # skip the release build (debug tests only)
#
# Steps: formatting, clippy with the workspace's lint set and
# `clippy.toml` (see docs/STATIC_ANALYSIS.md) twice, in the default build
# and with every feature on, the docs build with rustdoc
# warnings denied, the debug test suite (runtime
# auditor active via debug_assertions), the tier-1 release build + tests,
# the fault-recovery suite under the release auditor (see
# docs/FAULTS.md), the structured-tracing suites under the release
# auditor (the tracer is in every build; see docs/OBSERVABILITY.md), the
# repo benchmark's tests in its per-layer (`trace`) build, one end-to-end
# and one per-layer uk_full pass of the standalone benchmark package
# through its run.py, a smoke run of the ext_fault_sweep section of the
# `repro` binary, byte-for-byte checks of the table1, table4, table7,
# characterize, ext_virtual_cq and ext_trace sections against the
# committed docs/sample_output/repro_all.txt, the
# serial-vs-parallel sweep equivalence suite, a timed
# serial-vs-parallel sweep smoke via
# `bench_sweep`, whose serial vs parallel wall-clock JSON goes to the
# BENCH_sweep.ci.json artifact (the committed BENCH_sweep.json, the same
# command's output on a 2-vCPU VM, is left alone; see
# docs/ARCHITECTURE.md), a timed `bench_engine` smoke
# gating events/sec against the committed BENCH_engine.json (>20%
# regression fails), the in-network reduction invariant tests plus a
# byte-for-byte check of the ext_reduce section (see
# docs/ARCHITECTURE.md §Middle pipes), and a 50-seed chaoscheck smoke
# plus shrinker demo emitting the CHAOS_report.json artifact and a
# 16-seed pass over the reduction
# slice of the seed space (bit 32 set) emitting CHAOS_reduce_report.json
# (see docs/FAULTS.md §Chaos testing).
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

run() {
    echo "==> $*"
    "$@"
}

# check_section <key> <title>: `repro <key>` must print exactly the
# section under <title>'s banner in docs/sample_output/repro_all.txt.
# `repro all` follows each section's text with one more newline, hence
# the `echo`.
check_section() {
    echo "==> repro $1 vs the $2 section of docs/sample_output/repro_all.txt"
    diff <(awk -v banner="==================== $2 ====================" '
            $0 == banner { on = 1; next }
            on && /^==================== .* ====================$/ { exit }
            on { print }' docs/sample_output/repro_all.txt) \
        <(cargo run --release -q -p netsparse-bench --bin repro -- "$1"; echo)
}

run cargo fmt --all --check
# Lint both sides of every feature gate: code behind `audit`, and the
# benchmark's per-layer pass behind its `trace` feature, is seen only by
# the second run.
run cargo clippy --workspace --all-targets -- -D warnings
run cargo clippy --workspace --all-targets --all-features -- -D warnings
# Docs: every rustdoc warning is an error, so an unresolved or redundant
# intra-doc link (say, to a deleted item) fails here. Every target but the
# benchmark binary is documented: its module docs link `e2e` and `traced`,
# which exist only without and only with the `trace` feature, so no one
# build resolves both (see ROADMAP.md).
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --exclude netsparse-bench
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p netsparse-bench --lib \
    --bin repro --bin chaos --bin bench_engine --bin bench_sweep
run cargo test -q

if [[ "$fast" -eq 0 ]]; then
    run cargo build --release
    run cargo test -q --release
    # Fault injection + recovery with the runtime invariant auditor on
    # in release mode (debug runs already audit via debug_assertions).
    run cargo test -q -p netsparse-tests --features audit --release --test fault_recovery
    run cargo run --release -q -p netsparse-bench --bin repro -- ext_fault_sweep
    # Committed-output pins: Table 1, Table 4 and the workload
    # characterization read every generated stream of the five matrices
    # at scale 1, and Table 7 simulates each with every mechanism on.
    # Each must print exactly its section of the committed `repro all`
    # capture.
    check_section table1 "Table 1"
    check_section table4 "Table 4"
    check_section table7 "Table 7"
    check_section characterize "Workload characterization"
    # The §7.2 virtual-CQ table simulates every matrix with both pools.
    check_section ext_virtual_cq "Extension: virtual CQs (§7.2)"
    # Structured tracing: golden trace, trace-vs-metrics consistency,
    # exporter validity and the protocol property suite, with the release
    # auditor compiled in. The ext_trace section pins every matrix's
    # trace digest.
    run cargo test -q -p netsparse-tests --features audit --release \
        --test trace_golden --test trace_consistency --test trace_exporters \
        --test protocol_properties
    check_section ext_trace "Extension: trace timeline (observability)"
    # The benchmark's per-layer pass replays RigClient, IdxFilter and the
    # other components; test it in the build that pass uses.
    run cargo test -q --release -p netsparse-bench --bin benchmark --features trace
    # The benchmark as BENCHMARK.json runs it: run.py builds the
    # standalone package (its own Cargo.toml and release profile, into
    # .bench_build) and runs one end-to-end and one per-layer pass of
    # uk_full; each exits non-zero if the build or the oracle fails.
    run python3 crates/bench/src/bin/benchmark/run.py --workload uk_full --seconds 0 --trace 0
    run python3 crates/bench/src/bin/benchmark/run.py --workload uk_full --seconds 0 --trace 1
    # Parallel sweeps must be byte-identical to serial at any worker
    # count, audit digests included (see docs/ARCHITECTURE.md).
    run cargo test -q -p netsparse-tests --features audit --release --test sweep_parallel
    # Timed serial-vs-parallel repro smoke: asserts byte-equality and
    # records both wall-clocks in the BENCH_sweep.ci.json artifact.
    echo "==> cargo run --release -q -p netsparse-bench --bin bench_sweep -- --scale 0.1 > BENCH_sweep.ci.json"
    cargo run --release -q -p netsparse-bench --bin bench_sweep -- --scale 0.1 > BENCH_sweep.ci.json
    # Engine-throughput smoke: re-measures events/sec on the canonical
    # point, writes the BENCH_engine.ci.json artifact,
    # and fails if throughput regressed >20% vs the committed
    # BENCH_engine.json baseline.
    run cargo run --release -q -p netsparse-bench --bin bench_engine -- \
        --quick --check-against BENCH_engine.json
    # In-network reduction: the conservation/ablation invariants with the
    # release auditor on, then the ext_reduce table, which asserts
    # contribution conservation in every cell and must print exactly its
    # committed section (bytes and merges included).
    run cargo test -q -p netsparse-tests --features audit --release \
        --test switch_semantics --test mechanism_invariants -- reduc
    check_section ext_reduce "Extension: in-network reduction"
    # Chaos smoke: 50 seeded scenarios through the oracle suite with the
    # runtime auditor on. Exits non-zero on any oracle violation or
    # liveness stall; CHAOS_report.json is kept as an artifact.
    # The shrink demo proves the broken fixture still reduces to a
    # minimal replayable repro (see docs/FAULTS.md §Chaos testing).
    run cargo run --release -q -p netsparse-bench --features audit --bin chaos -- \
        --seeds 50 --out CHAOS_report.json
    run cargo run --release -q -p netsparse-bench --features audit --bin chaos -- --demo-shrink
    # The reduction slice of the chaos seed space (bit 32 set): the same
    # scenario population with scatter contributions flowing, gated by
    # the reduce-conservation oracle. Separate output file so the
    # committed CHAOS_report.json stays byte-identical to the base batch.
    run cargo run --release -q -p netsparse-bench --features audit --bin chaos -- \
        --seed0 4294967296 --seeds 16 --out CHAOS_reduce_report.json
fi

echo "ci: all checks passed"
