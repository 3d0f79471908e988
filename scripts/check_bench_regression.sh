#!/usr/bin/env bash
# Guards the simulation engine against perf regressions using a
# machine-independent statistic: each `simulation/<scheme>` (interval
# drain, in-thread) and `simulation_sharded/<scheme>` (the same drain on 2
# workers) row is normalized by the same run's
# `simulation_reference/<scheme>` row (the definitional per-access engine,
# which shares every non-drain optimization). CI boxes and quick-mode
# sampling shift *absolute* medians by large, noisy factors, but all
# engines shift together — so the engine/reference ratio is stable, and a
# drain regression (a lost fast path, a reintroduced per-access
# allocation, a serialized shard phase) shows up as that ratio degrading
# vs the committed baseline.
#
# The planner trajectory (BENCH_planner.json) adds two gates of its own,
# also machine-independent because every operand comes from the same fresh
# run: the hierarchical `placement_scaling/full_pipeline/{256,1024}` rows
# must beat the linear extrapolation of the flat 64->144 trend (the flat
# pipeline is superlinear per tile, so the linear bound is conservative —
# exceeding it means the hierarchy stopped paying for itself), and each
# `placement_incremental/warm/N` row must be >=5x faster than its
# `placement_incremental/cold/N` sibling (the incremental warm-start
# contract). These gates engage whenever the committed baseline carries
# the corresponding rows.
#
# Any benchmark row the committed baseline gates on that is missing from
# either file is a hard failure: silently skipping a vanished row is
# exactly how a deleted bench would sneak past the gate.
#
# Usage: scripts/check_bench_regression.sh <baseline.json> <fresh.json> [max-degradation]
#        max-degradation defaults to 1.30 (fail if a fresh
#        engine/reference ratio exceeds the committed one by >30%).

set -euo pipefail

baseline="$1"
fresh="$2"
max_ratio="${3:-1.30}"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# Extract "group/name median" rows from the trajectory JSON. Tolerant of
# re-formatting: all whitespace (including newlines from pretty-printing)
# is stripped before matching, so one-object-per-line, packed, and
# pretty-printed documents all parse. Group/name values are identifiers
# (no spaces), so the stripping cannot corrupt them.
rows() {
    tr -d '[:space:]' < "$1" |
        grep -o '{"group":"[^"]*","name":"[^"]*","median_ns":[0-9.eE+-]*' |
        sed 's/{"group":"\([^"]*\)","name":"\([^"]*\)","median_ns":\([0-9.eE+-]*\)/\1\/\2 \3/'
}

lookup() { # file-rows name
    awk -v n="$2" '$1 == n { print $2 }' "$1"
}

rows "$baseline" > "$workdir/baseline"
rows "$fresh" > "$workdir/fresh"

status=0
checked=0
missing=0

require() { # value row-name file-label
    if [ -z "$1" ]; then
        echo "MISSING ROW: $2 not found in $3" >&2
        missing=1
    fi
}

for group in simulation simulation_sharded; do
    for scheme in $(awk -F'[/ ]' -v g="$group" '$1 == g { print $2 }' "$workdir/baseline"); do
        bb="$(lookup "$workdir/baseline" "$group/$scheme")"
        br="$(lookup "$workdir/baseline" "simulation_reference/$scheme")"
        fb="$(lookup "$workdir/fresh" "$group/$scheme")"
        fr="$(lookup "$workdir/fresh" "simulation_reference/$scheme")"
        require "$br" "simulation_reference/$scheme" "baseline $baseline"
        require "$fb" "$group/$scheme" "fresh $fresh"
        require "$fr" "simulation_reference/$scheme" "fresh $fresh"
        if [ -z "$bb" ] || [ -z "$br" ] || [ -z "$fb" ] || [ -z "$fr" ]; then
            continue
        fi
        checked=$((checked + 1))
        read -r committed_ratio fresh_ratio flag <<< "$(awk -v bb="$bb" -v br="$br" -v fb="$fb" -v fr="$fr" -v r="$max_ratio" 'BEGIN {
            base_ratio = bb / br
            fresh_ratio = fb / fr
            printf "%.3f %.3f %s", base_ratio, fresh_ratio, (fresh_ratio <= base_ratio * r) ? "ok" : "regressed"
        }')"
        printf '%-28s engine/reference: committed %s  fresh %s  %s\n' \
            "$group/$scheme" "$committed_ratio" "$fresh_ratio" "$flag"
        case "$flag" in regressed) status=1 ;; esac
    done
done

# Event-script gate: engages when the baseline carries the event rows.
# `simulation_event/steady` runs the exact cell `simulation/CDCS` runs —
# an empty script through the one run loop, bit-identical results — so
# the steady/`simulation` ratio bounds the loop's script dispatch and
# gating, machine-independent like the engine/reference ratios above.
# `simulation_event/bursty` must exist (it is the trajectory row for
# event application itself) but is not ratio-gated: a script that bursts
# and idles legitimately does different work than the steady cell.
if [ -n "$(lookup "$workdir/baseline" simulation_event/steady)" ]; then
    bev="$(lookup "$workdir/baseline" simulation_event/steady)"
    bbat="$(lookup "$workdir/baseline" simulation/CDCS)"
    fev="$(lookup "$workdir/fresh" simulation_event/steady)"
    fbat="$(lookup "$workdir/fresh" simulation/CDCS)"
    fbur="$(lookup "$workdir/fresh" simulation_event/bursty)"
    require "$bbat" simulation/CDCS "baseline $baseline"
    require "$fev" simulation_event/steady "fresh $fresh"
    require "$fbat" simulation/CDCS "fresh $fresh"
    require "$fbur" simulation_event/bursty "fresh $fresh"
    if [ -n "$bev" ] && [ -n "$bbat" ] && [ -n "$fev" ] && [ -n "$fbat" ]; then
        checked=$((checked + 1))
        read -r committed_ratio fresh_ratio flag <<< "$(awk -v be="$bev" -v bb="$bbat" -v fe="$fev" -v fb="$fbat" -v r="$max_ratio" 'BEGIN {
            base_ratio = be / bb
            fresh_ratio = fe / fb
            printf "%.3f %.3f %s", base_ratio, fresh_ratio, (fresh_ratio <= base_ratio * r) ? "ok" : "regressed"
        }')"
        printf '%-28s event/batched: committed %s  fresh %s  %s\n' \
            "simulation_event/steady" "$committed_ratio" "$fresh_ratio" "$flag"
        case "$flag" in regressed) status=1 ;; esac
    fi
fi

# Hierarchical planner scaling gate: engages when the baseline gates on
# the mega-mesh rows. The fresh hierarchical median at N tiles must beat
# the linear extrapolation of the fresh flat 64->144 trend to N tiles.
if [ -n "$(lookup "$workdir/baseline" placement_scaling/full_pipeline/256)" ]; then
    f64="$(lookup "$workdir/fresh" placement_scaling/full_pipeline/64)"
    f144="$(lookup "$workdir/fresh" placement_scaling/full_pipeline/144)"
    require "$f64" placement_scaling/full_pipeline/64 "fresh $fresh"
    require "$f144" placement_scaling/full_pipeline/144 "fresh $fresh"
    for tiles in $(awk -F'[/ ]' '$1 == "placement_scaling" && $2 == "full_pipeline" && $3 + 0 >= 256 { print $3 }' "$workdir/baseline"); do
        fh="$(lookup "$workdir/fresh" "placement_scaling/full_pipeline/$tiles")"
        require "$fh" "placement_scaling/full_pipeline/$tiles" "fresh $fresh"
        if [ -z "$f64" ] || [ -z "$f144" ] || [ -z "$fh" ]; then
            continue
        fi
        checked=$((checked + 1))
        verdict="$(awk -v a="$f64" -v b="$f144" -v h="$fh" -v t="$tiles" 'BEGIN {
            limit = b + (b - a) / (144 - 64) * (t - 144)
            printf "%.0fns vs flat-linear limit %.0fns  %s", h, limit, (h < limit) ? "ok" : "regressed"
        }')"
        printf '%-36s hierarchical %s\n' "placement_scaling/full_pipeline/$tiles" "$verdict"
        case "$verdict" in *regressed) status=1 ;; esac
    done
fi

# Incremental warm-start gate: for every scale the baseline carries a
# cold row for, the fresh warm row must be >=5x faster than fresh cold.
for tiles in $(awk -F'[/ ]' '$1 == "placement_incremental" && $2 == "cold" { print $3 }' "$workdir/baseline"); do
    fc="$(lookup "$workdir/fresh" "placement_incremental/cold/$tiles")"
    fw="$(lookup "$workdir/fresh" "placement_incremental/warm/$tiles")"
    require "$fc" "placement_incremental/cold/$tiles" "fresh $fresh"
    require "$fw" "placement_incremental/warm/$tiles" "fresh $fresh"
    if [ -z "$fc" ] || [ -z "$fw" ]; then
        continue
    fi
    checked=$((checked + 1))
    verdict="$(awk -v c="$fc" -v w="$fw" 'BEGIN {
        printf "warm %.1fx faster than cold (need >=5x)  %s", c / w, (w * 5 <= c) ? "ok" : "regressed"
    }')"
    printf '%-36s %s\n' "placement_incremental/$tiles" "$verdict"
    case "$verdict" in *regressed) status=1 ;; esac
done

if [ "$missing" -ne 0 ]; then
    echo "baseline rows without counterparts — refusing to pass a partial comparison" >&2
    exit 1
fi
if [ "$checked" -eq 0 ]; then
    echo "no comparable benchmark rows found" >&2
    exit 1
fi
if [ "$status" -ne 0 ]; then
    echo "a gated benchmark regressed (engine ratio >$max_ratio x, event overhead >$max_ratio x, hier above flat-linear, or warm <5x cold)" >&2
fi
exit "$status"
