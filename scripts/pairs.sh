#!/usr/bin/env bash
# Paired runs of two benchmark binaries on one workload: for each seed,
# PAIRS pairs, the side that goes first alternating from pair to pair,
# each run `--seconds 15 --trace 0` in its own process. Then prints, per
# end-to-end metric of BENCHMARK.json, each side's median and quartiles,
# every pair's change-against-parent delta in %, the median delta and the
# pairs the change won. Fails (exit 1) if on any seed the runs disagree
# on `final_header` or `failed`: the two binaries must be the same
# program.
#
#   scripts/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD SEEDS PAIRS
#   scripts/pairs.sh parent/bench change/bench dex_mem 1,2,3 3
#
# SEEDS is a comma-separated list. The run documents are kept in a
# fresh directory under ${TMPDIR:-/tmp}, named on the last line.
set -euo pipefail
if [ $# -ne 5 ]; then
    sed -n '2,/^set /p' "$0" | sed '$d' >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 seeds=$4 pairs=$5
root="$(cd "$(dirname "$0")/.." && pwd)"
out=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")

# One run: appends its document, tagged with side, seed and pair, to
# $out/runs.jsonl.
run() {
    local side=$1 bin=$2 seed=$3 pair=$4
    if ! "$bin" --workload "$workload" --seed "$seed" --seconds 15 --trace 0 \
        --out "$out/$side.jsonl" >/dev/null 2>"$out/stderr"; then
        cat "$out/stderr" >&2
        exit 1
    fi
    tail -n 1 "$out/$side.jsonl" |
        jq -c --arg side "$side" --argjson seed "$seed" --argjson pair "$pair" \
            '{side: $side, seed: $seed, pair: $pair, failed, header: .fingerprint.final_header,
              metrics: (.metrics | map_values(.value))}' >>"$out/runs.jsonl"
}

n=0
for seed in ${seeds//,/ }; do
    for pair in $(seq 1 "$pairs"); do
        n=$((n + 1))
        if [ $((n % 2)) = 1 ]; then
            run parent "$parent" "$seed" "$n"
            run change "$change" "$seed" "$n"
        else
            run change "$change" "$seed" "$n"
            run parent "$parent" "$seed" "$n"
        fi
        echo "pair $n (seed $seed) done" >&2
    done
done

status=0
mismatch=$(jq -rs 'group_by(.seed)[]
    | select((map(.header) | unique | length) > 1 or (map(.failed) | unique | length) > 1)
    | .[0].seed' "$out/runs.jsonl")
if [ -n "$mismatch" ]; then
    echo "DIFFERENT PROGRAM: final_header or failed differs on seed(s) $(echo $mismatch)" >&2
    status=1
fi

echo "$workload: seeds $seeds, $pairs pair(s) each, $n pairs; failed = $(jq -s 'map(.failed) | unique' -c "$out/runs.jsonl")"
printf '%-24s %-6s %28s %28s %9s %6s  %s\n' metric better \
    "parent median [q1, q3]" "change median [q1, q3]" "median Δ" wins "Δ per pair %"
jq -r '.end_to_end[] | "\(.name) \(.better)"' "$root/BENCHMARK.json" |
    while read -r metric better; do
        # One line per pair: parent value, change value.
        jq -rs --arg m "$metric" 'group_by(.pair)[]
            | [(.[] | select(.side == "parent") | .metrics[$m]),
               (.[] | select(.side == "change") | .metrics[$m])] | @tsv' "$out/runs.jsonl" |
            awk -v metric="$metric" -v better="$better" '
            # Median and exclusive-method quartiles (Python statistics.quantiles).
            function stats(v, k,   n, i, j, t, m) {
                n = k
                for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) {
                    t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
                }
                m = (n % 2) ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
                if (n < 2) return sprintf("%.5g [%.5g, %.5g]", m, m, m)
                return sprintf("%.5g [%.5g, %.5g]", m, q(v, n, 1), q(v, n, 3))
            }
            function q(v, n, k,   j, d) {
                j = int(k * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
                d = k * (n + 1) / 4 - j
                return v[j] + (v[j + 1] - v[j]) * d
            }
            {
                k++; a[k] = $1; b[k] = $2; dl[k] = ($1 == 0) ? 0 : 100 * ($2 - $1) / $1
                per = per sprintf(" %+.1f", dl[k])
                if ((better == "higher" && $2 > $1) || (better == "lower" && $2 < $1)) wins++
            }
            END {
                sa = stats(a, k); sb = stats(b, k)
                for (i = 1; i <= k; i++) d2[i] = dl[i]
                split(stats(d2, k), dm, " ")
                printf "%-24s %-6s %28s %28s %8.1f%% %3d/%-2d %s\n", metric, better, sa, sb, dm[1], wins, k, per
            }'
    done
echo "run documents: $out"
exit $status
