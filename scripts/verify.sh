#!/usr/bin/env bash
# Tier-1 verification plus lint gates. Run from the repo root.
#
# Opt-in sanitizer lanes (each skips with a note when the toolchain
# component is missing):
#   MIRI=1 scripts/verify.sh   — run the pcheck unit tests under Miri
#   TSAN=1 scripts/verify.sh   — run the pcomm tests under ThreadSanitizer
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release
# --no-fail-fast: one failing crate must not mask the crates after it.
cargo test -q --no-fail-fast
# Trace-export schema gate: the Perfetto JSON must stay parseable and keep
# its per-rank track structure.
cargo test -q -p obs --test perfetto_schema
# Cross-p, perturbed-schedule determinism under checked mode: the PSG
# must stay bit-identical across process counts and message schedules
# with the conformance ledger and finalize audit enforced (release builds
# default PCHECK off, so force it on here).
PCHECK=1 cargo test -q --release -p pastis --test perturb_determinism
# Memory-observatory lane: release builds default allocation tracking OFF,
# so force it on and rerun the obs suite — the allocation ledger, the
# nested peak windows, and the per-stage table must hold under the release
# optimizer too.
ALLOC_TRACK=1 cargo test -q --release -p obs
# Monitor lane: heartbeat-snapshot structure must stay deterministic under
# the conformance checker in release too (debug runs it via `cargo test -q`),
# a monitor armed on one world must sample only that world's rings while
# another runs beside it, and a real `pastis --monitor` run must pass its
# own status.json self-check (schema, monotone epochs, done-sum == global
# alignment counter).
PCHECK=1 cargo test -q --release -p pastis --test monitor_live
PCHECK=1 cargo test -q --release -p pcomm --test monitor
monitor_tmp="$(mktemp -d)"
cargo run --release -q -p pastis-bench --bin mkfasta -- "$monitor_tmp/monitor.fasta" 0.06 7
PASTIS_MONITOR_MS=20 cargo run --release -q -p pastis --bin pastis -- \
    --input "$monitor_tmp/monitor.fasta" --output "$monitor_tmp/out.tsv" \
    --ranks 4 --k 5 --monitor --quiet
test -s "$monitor_tmp/status.json" || { echo "verify: pastis --monitor left no status.json"; exit 1; }
rm -rf "$monitor_tmp"
# Out-of-core lane (DESIGN.md §15). In-process: the batched driver must be
# bit-identical to the monolithic run under the conformance checker, and
# the allocator-measured per-batch peak must respect the budget bound with
# tracking forced on in release. End-to-end: a tiny-budget checkpointed run
# must match a single-shot run byte for byte, and so must the same command
# rerun on its complete checkpoint directory, which restores every batch,
# and on a copy of that directory at another path.
# (Post-kill states are built and resumed by `cargo test` in
# crates/pastis/tests/ooc_resume.rs.) The memory ratchets run in release
# too: the build-and-multiply peak per nnz(A) and the planner transient
# per nnz(Aᵀ).
PCHECK=1 cargo test -q --release -p pastis --test ooc_equivalence
ALLOC_TRACK=1 cargo test -q --release -p pastis --test ooc_budget
ALLOC_TRACK=1 cargo test -q --release -p pastis --test build_peak --test plan_transient
ooc_tmp="$(mktemp -d)"
cargo run --release -q -p pastis-bench --bin mkfasta -- "$ooc_tmp/ooc.fasta" 0.05 9
cargo run --release -q -p pastis --bin pastis -- \
    --input "$ooc_tmp/ooc.fasta" --output "$ooc_tmp/mono.tsv" --ranks 4 --k 5 --quiet
ooc_run() { # <checkpoint dir>
    cargo run --release -q -p pastis --bin pastis -- \
        --input "$ooc_tmp/ooc.fasta" --output "$ooc_tmp/ooc.tsv" --ranks 4 --k 5 --quiet \
        --mem-budget 96k --ckpt-dir "$1"
}
ooc_run "$ooc_tmp/ckpt"
test -s "$ooc_tmp/ckpt/manifest.json" || { echo "verify: checkpointed run left no manifest"; exit 1; }
cmp "$ooc_tmp/mono.tsv" "$ooc_tmp/ooc.tsv" || { echo "verify: out-of-core output diverged"; exit 1; }
rm "$ooc_tmp/ooc.tsv"
ooc_run "$ooc_tmp/ckpt"
cmp "$ooc_tmp/mono.tsv" "$ooc_tmp/ooc.tsv" || { echo "verify: restored out-of-core output diverged"; exit 1; }
rm "$ooc_tmp/ooc.tsv"
cp -r "$ooc_tmp/ckpt" "$ooc_tmp/ckpt-copy"
ooc_run "$ooc_tmp/ckpt-copy"
cmp "$ooc_tmp/mono.tsv" "$ooc_tmp/ooc.tsv" || { echo "verify: copied-checkpoint output diverged"; exit 1; }
rm -rf "$ooc_tmp"
# Frozen-benchmark lane: `benchmark/` is a package of its own that the
# workspace build never compiles, and it is what judges every PR. Build
# it against this tree, run its unit tests (BENCHMARK.json == its tables,
# rusage accounting, PSG checker), then run the whole suite once — all six
# workloads, timed and traced — which exits non-zero on any failed check
# (PSG references, replay == binary == in-process pipeline, replay counts
# == pipeline counters). `crates/pastis/tests/harness_contract.rs` is the
# debug-build mirror of the same contract inside `cargo test`.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --seed 7 --seconds 1
# Cross-p lane: "connections found in the PSG are oblivious to the number
# of processes" (paper §V) on the benchmark's 3.5k input and flags, at the
# reference seed and at two seeds where operand order used to leak the grid
# into an edge weight (DESIGN.md §7) — seeds 7 and 11 never showed it. In
# x-drop mode one rank, a 2x2 grid, and the grid out of core must write the
# same bytes; in Smith–Waterman mode one rank and a 2x2 grid.
xp_tmp="$(mktemp -d)"
xp_psg() { # <out.tsv> <mode> <--ranks value and any further flags>
    local out="$1" mode="$2"
    shift 2
    cargo run --release -q -p pastis --bin pastis -- \
        --input "$xp_tmp/in.fasta" --output "$out" --quiet --threads 1 --k 6 --subs 0 \
        --mode "$mode" --ck 0 --measure ani --min-ani 0.3 --min-cov 0.7 --ranks "$@"
}
for seed in 7 26 1400845388; do
    cargo run --release -q -p pastis-bench --bin mkfasta -- "$xp_tmp/in.fasta" 3.5 "$seed"
    xp_psg "$xp_tmp/p1.tsv" xd 1
    for cfg in "4" "4 --mem-budget 16m"; do
        # shellcheck disable=SC2086  # $cfg is a flag list
        xp_psg "$xp_tmp/px.tsv" xd $cfg
        cmp "$xp_tmp/p1.tsv" "$xp_tmp/px.tsv" \
            || { echo "verify: seed $seed: PSG at --ranks $cfg differs from --ranks 1"; exit 1; }
    done
    xp_psg "$xp_tmp/p1.tsv" sw 1
    xp_psg "$xp_tmp/px.tsv" sw 4
    cmp "$xp_tmp/p1.tsv" "$xp_tmp/px.tsv" \
        || { echo "verify: seed $seed: --mode sw PSG at --ranks 4 differs from --ranks 1"; exit 1; }
done
rm -rf "$xp_tmp"
cargo clippy --all-targets -- -D warnings
# Workspace lint gates: SAFETY comments on unsafe, thread-spawn confinement,
# Instant::now confinement, cost-literal confinement, feature-detect
# confinement, allocator confinement, monitor-spawn confinement, checkpoint
# commit confinement, environment-read confinement. See crates/xlint.
cargo run -q -p xlint -- .
# Bench documents need no lane of their own: `cargo test` above validates
# machine_profile.json and checks the committed BENCH_align.json's keys
# and floors, and the `alnperf` bin checks each new run against that
# document before it overwrites it.

if [[ "${MIRI:-0}" == "1" ]]; then
    if rustup component list 2>/dev/null | grep -q '^miri.*(installed)'; then
        # Interpret the single-threaded pcheck unit tests (ledger, shared-state
        # bookkeeping, perturbation RNG) under Miri. The thread-per-rank pcomm
        # integration tests are too slow under interpretation to gate on.
        cargo miri test -p pcheck --lib
    else
        echo "verify: MIRI=1 requested but the miri component is not installed; skipping"
    fi
fi

if [[ "${TSAN:-0}" == "1" ]]; then
    host="$(rustc -vV | sed -n 's/^host: //p')"
    if rustc +nightly -V >/dev/null 2>&1 \
        && rustup component list --toolchain nightly 2>/dev/null | grep -q '^rust-src.*(installed)'; then
        # ThreadSanitizer over the rank-thread runtime: exercises the mailbox
        # channels, stash bookkeeping, and pcheck shared state under real
        # parallelism.
        RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -Zbuild-std -q -p pcomm --target "$host"
    else
        echo "verify: TSAN=1 requested but nightly + rust-src are not installed; skipping"
    fi
fi

echo "verify: OK"
