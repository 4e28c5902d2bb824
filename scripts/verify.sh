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
# The substitute search in release: its differential test against the
# old ordered-set search, the held-only search against the frontier's
# rows filtered, the warm-searcher zero-allocation count and the
# exact-output pin, under the optimiser the pipeline runs with; and the
# held `S` against the whole `S` at p ∈ {1, 4, 9}.
cargo test -q --release -p subkmer
cargo test -q --release -p pastis --test held_s
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
# Digest pins: the harness's PSG line at the cross-p lane's two
# non-reference seeds must equal recorded digests. The cross-p lane below
# only compares each mode with itself there, so a bug in either engine
# would pass it. The digests were recorded by independent code: x-drop's
# with the scalar open interior (against a lane bug in `align::xdrop`),
# Smith–Waterman's with a diagonal-band traceback (against a traceback bug
# in `align::striped`), the substitute path's with the whole `S` (against
# a bug in the held-column filter of `pastis::build_s_dist`).
for pin in "xd_exact 26 2645 0x0e819f1c197c51eb" "xd_exact 1400845388 2363 0x1d8460fec87205c0" \
    "sw_exact 26 2645 0xd35f4f0a5a46a811" "sw_exact 1400845388 2363 0xb9fd55159fcac4af" \
    "subs_ck 26 296 0x26f9f07c3a7d311e" "subs_ck 1400845388 267 0xf20053ab854e0c41"; do
    read -r workload seed edges fnv <<<"$pin"
    out="$(bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 1 --trace 0)"
    grep -qF "$workload psg edges $edges fnv $fnv seed $seed" <<<"$out" \
        || { echo "verify: seed $seed: $workload PSG is not edges $edges fnv $fnv"; exit 1; }
done
# Cross-p lane: "connections found in the PSG are oblivious to the number
# of processes" (paper §V) on the benchmark's 3.5k input and flags, at the
# reference seed and at two seeds where operand order used to leak the
# grid into an edge weight (DESIGN.md §7) — seeds 7 and 11 never showed
# it. In x-drop mode one rank, a 2x2 grid, a 3x3 grid (uneven blocks, and
# the overlap mask's tie on the local diagonal of off-diagonal blocks),
# the 2x2, 3x3 and 4x4 grids out of core (the batch planner adds back the
# one-sequence k-mers each rank counted at its source, DESIGN.md §11) and,
# at seed 7, a 4x4 grid (four blocks down a grid column merge their tables
# of one-sequence k-mer columns) must write the same bytes, and so must
# one rank, both grids and the 2x2 grid out of core without alignment
# (every candidate pair of the masked overlap product), and one rank and
# both grids with the k-mer frequency pre-filter; in Smith–Waterman mode
# one rank and both grids, under ANI and under NS (whose PSG at seeds 7
# and 26 is also pinned by `cksum`), the 3x3 grid's diagonal ranks
# receiving their one block once. The substitute path (`--subs 25
# --ck 3`, the `subs_ck` flags, on a 400-sequence input) builds `S` over
# the k-mers `A` holds, and only a grid runs the filter on arrival as
# well as at the source (DESIGN.md §4):
# one rank and both grids must write the same bytes, and so must one rank
# and a 2x2 grid with the pre-filter. Its batch loop (the symmetrised B as
# two masked halves per column batch) must write them too: one rank and a
# 2x2 grid under a budget of many batches, and a checkpointed run and its
# rerun, which restores every batch.
xp_tmp="$(mktemp -d)"
xp_psg() { # <out.tsv> <mode> <--ranks value and any further flags>
    local out="$1" mode="$2"
    shift 2
    cargo run --release -q -p pastis --bin pastis -- \
        --input "$xp_tmp/in.fasta" --output "$out" --quiet --threads 1 --k 6 --subs 0 \
        --mode "$mode" --ck 0 --measure ani --min-ani 0.3 --min-cov 0.7 --ranks "$@"
}
ns_psg() { # <out.tsv> <--ranks value>
    cargo run --release -q -p pastis --bin pastis -- \
        --input "$xp_tmp/in.fasta" --output "$1" --quiet --threads 1 --k 6 --subs 0 \
        --mode sw --ck 0 --measure ns --ranks "$2"
}
subs_psg() { # <out.tsv> <--ranks value and any further flags>
    local out="$1"
    shift
    cargo run --release -q -p pastis --bin pastis -- \
        --input "$xp_tmp/subs.fasta" --output "$out" --quiet --threads 1 --k 6 --subs 25 \
        --mode xd --ck 3 --measure ani --min-ani 0.3 --min-cov 0.7 --ranks "$@"
}
for seed in 7 26 1400845388; do
    cargo run --release -q -p pastis-bench --bin mkfasta -- "$xp_tmp/in.fasta" 3.5 "$seed"
    xp_psg "$xp_tmp/p1.tsv" xd 1
    for cfg in "4" "9" "4 --mem-budget 16m" "9 --mem-budget 16m" "16 --mem-budget 16m"; do
        # shellcheck disable=SC2086  # $cfg is a flag list
        xp_psg "$xp_tmp/px.tsv" xd $cfg
        cmp "$xp_tmp/p1.tsv" "$xp_tmp/px.tsv" \
            || { echo "verify: seed $seed: PSG at --ranks $cfg differs from --ranks 1"; exit 1; }
    done
    if [[ "$seed" == 7 ]]; then
        xp_psg "$xp_tmp/px.tsv" xd 16
        cmp "$xp_tmp/p1.tsv" "$xp_tmp/px.tsv" \
            || { echo "verify: seed $seed: PSG at --ranks 16 differs from --ranks 1"; exit 1; }
    fi
    # X-drop at coverage cuts 0 and 0.9: a seed's second side is skipped
    # only when no seed of the pair can reach the cut (DESIGN.md §7), so
    # both must write the same bytes on one rank and a 2x2 grid, and the
    # bytes extending every seed whole wrote (`cksum` of the PSG).
    for cov in 0 0.9; do
        case "$seed $cov" in
            "7 0") cov_pin="1028526138 224523" ;;
            "7 0.9") cov_pin="3965977623 46971" ;;
            "26 0") cov_pin="964795030 231441" ;;
            "26 0.9") cov_pin="392988935 51969" ;;
            "1400845388 0") cov_pin="2202963907 233087" ;;
            *) cov_pin="3743037055 46643" ;;
        esac
        for ranks in 1 4; do
            xp_psg "$xp_tmp/px.tsv" xd "$ranks" --min-cov "$cov"
            [[ "$(cksum <"$xp_tmp/px.tsv")" == "$cov_pin" ]] \
                || { echo "verify: seed $seed: --min-cov $cov PSG at --ranks $ranks: cksum is not $cov_pin"; exit 1; }
        done
    done
    # Alignment-free (`--mode none`, the `sparse_only` protocol): the PSG
    # is every candidate pair, so the masked local products are compared
    # whole, not only the pairs x-drop keeps. It must hold more pairs than
    # the x-drop PSG and write the same bytes on every grid and batching.
    xp_psg "$xp_tmp/c1.tsv" none 1
    [[ "$(wc -l <"$xp_tmp/c1.tsv")" -gt "$(wc -l <"$xp_tmp/p1.tsv")" ]] \
        || { echo "verify: seed $seed: --mode none wrote no more pairs than x-drop kept"; exit 1; }
    for cfg in "4" "9" "4 --mem-budget 16m"; do
        # shellcheck disable=SC2086  # $cfg is a flag list
        xp_psg "$xp_tmp/cx.tsv" none $cfg
        cmp "$xp_tmp/c1.tsv" "$xp_tmp/cx.tsv" \
            || { echo "verify: seed $seed: --mode none PSG at --ranks $cfg differs from --ranks 1"; exit 1; }
    done
    # The k-mer frequency pre-filter: it must prune (a different edge count
    # from the unpruned PSG above, so the lane cannot pass vacuously) and
    # write the same bytes on every grid.
    xp_psg "$xp_tmp/f1.tsv" xd 1 --max-kmer-freq 4
    [[ "$(wc -l <"$xp_tmp/f1.tsv")" != "$(wc -l <"$xp_tmp/p1.tsv")" ]] \
        || { echo "verify: seed $seed: --max-kmer-freq 4 pruned no edge"; exit 1; }
    for ranks in 4 9; do
        xp_psg "$xp_tmp/px.tsv" xd "$ranks" --max-kmer-freq 4
        cmp "$xp_tmp/f1.tsv" "$xp_tmp/px.tsv" \
            || { echo "verify: seed $seed: --max-kmer-freq 4 PSG at --ranks $ranks differs from --ranks 1"; exit 1; }
    done
    xp_psg "$xp_tmp/p1.tsv" sw 1
    for ranks in 4 9; do
        xp_psg "$xp_tmp/px.tsv" sw "$ranks"
        cmp "$xp_tmp/p1.tsv" "$xp_tmp/px.tsv" \
            || { echo "verify: seed $seed: --mode sw PSG at --ranks $ranks differs from --ranks 1"; exit 1; }
    done
    # Smith–Waterman under NS weighs edges from the score pass alone, with
    # no traceback: the same bytes on every grid, and at seeds 7 and 26 the
    # bytes every pair's traceback used to give (`cksum` of the PSG).
    ns_psg "$xp_tmp/n1.tsv" 1
    for ranks in 4 9; do
        ns_psg "$xp_tmp/nx.tsv" "$ranks"
        cmp "$xp_tmp/n1.tsv" "$xp_tmp/nx.tsv" \
            || { echo "verify: seed $seed: --measure ns PSG at --ranks $ranks differs from --ranks 1"; exit 1; }
    done
    case "$seed" in
        7) ns_pin="1956222210 233338" ;;
        26) ns_pin="3440527576 239674" ;;
        *) ns_pin="" ;;
    esac
    if [[ -n "$ns_pin" && "$(cksum <"$xp_tmp/n1.tsv")" != "$ns_pin" ]]; then
        echo "verify: seed $seed: --measure ns PSG cksum is not $ns_pin"
        exit 1
    fi
    cargo run --release -q -p pastis-bench --bin mkfasta -- "$xp_tmp/subs.fasta" 0.4 "$seed"
    subs_psg "$xp_tmp/s1.tsv" 1
    for ranks in 4 9; do
        subs_psg "$xp_tmp/sx.tsv" "$ranks"
        cmp "$xp_tmp/s1.tsv" "$xp_tmp/sx.tsv" \
            || { echo "verify: seed $seed: --subs PSG at --ranks $ranks differs from --ranks 1"; exit 1; }
    done
    subs_psg "$xp_tmp/sf1.tsv" 1 --max-kmer-freq 4
    [[ "$(wc -l <"$xp_tmp/sf1.tsv")" != "$(wc -l <"$xp_tmp/s1.tsv")" ]] \
        || { echo "verify: seed $seed: --subs with --max-kmer-freq 4 pruned no edge"; exit 1; }
    subs_psg "$xp_tmp/sx.tsv" 4 --max-kmer-freq 4
    cmp "$xp_tmp/sf1.tsv" "$xp_tmp/sx.tsv" \
        || { echo "verify: seed $seed: --subs --max-kmer-freq 4 PSG at --ranks 4 differs from --ranks 1"; exit 1; }
    for ranks in 1 4; do
        subs_psg "$xp_tmp/sx.tsv" "$ranks" --mem-budget 96k
        cmp "$xp_tmp/s1.tsv" "$xp_tmp/sx.tsv" \
            || { echo "verify: seed $seed: batched --subs PSG at --ranks $ranks differs from --ranks 1"; exit 1; }
    done
    for run in first rerun; do
        subs_psg "$xp_tmp/sx.tsv" 4 --mem-budget 96k --ckpt-dir "$xp_tmp/subs-ckpt"
        cmp "$xp_tmp/s1.tsv" "$xp_tmp/sx.tsv" \
            || { echo "verify: seed $seed: checkpointed --subs PSG ($run run) differs from --ranks 1"; exit 1; }
        rm "$xp_tmp/sx.tsv"
    done
    batches="$(grep -o '"n_batches":[0-9]*' "$xp_tmp/subs-ckpt/manifest.json" | cut -d: -f2)"
    [[ "${batches:-0}" -ge 2 ]] \
        || { echo "verify: seed $seed: the checkpointed --subs run cut ${batches:-no} batches"; exit 1; }
    rm -rf "$xp_tmp/subs-ckpt"
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
