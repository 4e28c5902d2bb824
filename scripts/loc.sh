#!/usr/bin/env bash
# The three numbers ROADMAP aim 2 tracks, by its formula: source lines
# (`wc -l`, tests and comments included) of what observes against what is
# observed. Run from anywhere.
#
#   instrumentation = crates/obs/src + crates/pcomm/src/{cost,monitor}.rs
#                     + crates/bench/src
#   algorithm       = crates/{sparse,align,subkmer,seqstore}/src
#
# It also prints the `crates/*/src` total, so a change that shrinks the
# ratio's denominator can be told apart from one that shrinks the code.
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l; }

instr=$(lines crates/obs/src crates/pcomm/src/cost.rs crates/pcomm/src/monitor.rs crates/bench/src)
algo=$(lines crates/sparse/src crates/align/src crates/subkmer/src crates/seqstore/src)
total=$(lines crates/*/src)
printf 'instrumentation %d\nalgorithm %d\nratio %s\ncrates_src %d\n' \
    "$instr" "$algo" "$(awk "BEGIN { printf \"%.2f\", $instr / $algo }")" "$total"
