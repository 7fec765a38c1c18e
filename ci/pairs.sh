#!/bin/sh
# Alternating before/after pairs of one ledger workload, the comparison
# ROADMAP's house rules ask of a perf verdict:
#
#   ci/pairs.sh <rev> <workload> [seed] [pairs]
#
# Builds the ledger of <rev> from `git archive` under
# target/pairs/<rev>/ and the working tree's ledger in place, then runs
# `ledger --workload <workload> --seed <seed> --seconds 20 --trace 0`
# <pairs> times on each tree (seed 42 and 10 pairs by default). The two
# trees take turns going first, so neither always runs on the warmer
# box. It prints:
#
#   - one row per run: its three end-to-end metrics (`work_per_s`,
#     `setup_s`, `peak_rss_mb`);
#   - per metric, each tree's median and quartiles, how many pairs the
#     working tree won, and whether the gap between the medians exceeds
#     the <rev> runs' inter-quartile range ("resolved") or not
#     ("unresolved");
#   - whether every run's `sim_digest` and `exact` lines are the ones of
#     the first <rev> run;
#   - a note when a short <rev> run at seed <seed> + 1 gives the same
#     `sim_digest` as one at <seed>: that workload's simulated run does
#     not read the seed, so a digest that holds at another seed is no
#     further evidence for it.
#
# It only reads the ledger's output. The raw runs stay in
# target/pairs/<rev>/runs/. It fails if a run is not correct or if a
# digest or exact line differs.
set -eu

[ $# -ge 2 ] || {
    echo "usage: ci/pairs.sh <rev> <workload> [seed] [pairs]" >&2
    exit 2
}
rev=$1
workload=$2
seed=${3:-42}
pairs=${4:-10}

root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --short "$rev^{commit}")
base="$root/target/pairs/$sha"
runs="$base/runs/$workload-$seed"

fail() {
    echo "pairs: $1" >&2
    exit 1
}

# Both ledgers, copied out so a rebuild mid-batch cannot swap one.
if [ ! -x "$base/ledger" ]; then
    rm -rf "$base/src"
    mkdir -p "$base/src"
    git -C "$root" archive "$sha" | tar -x -C "$base/src"
    CARGO_TARGET_DIR="$base/target" cargo build --release --offline --quiet \
        --manifest-path "$base/src/Cargo.toml" -p zen-bench --bin ledger
    cp "$base/target/release/ledger" "$base/ledger"
fi
(cd "$root" && cargo build --release --offline --quiet -p zen-bench --bin ledger)
rm -rf "$runs"
mkdir -p "$runs"
cp "$root/target/release/ledger" "$runs/ledger-new"
cp "$base/ledger" "$runs/ledger-old"

METRICS="work_per_s setup_s peak_rss_mb"

# The value of metric $1 in run file $2.
metric() {
    sed -n "s/^{\"type\":\"metric\",.*\"name\":\"$1\",\"value\":\([^,]*\),.*/\1/p" "$2"
}

# One run of tree $1 (old or new), pair $2.
run() {
    out="$runs/$1-$2.jsonl"
    "$runs/ledger-$1" --workload "$workload" --seed "$seed" --seconds 20 --trace 0 >"$out"
    tail -n 1 "$out" | grep -q '"correct":true' ||
        fail "$1 run $2 is not correct: $(tail -n 1 "$out")"
    grep -E '^\{"type":"(sim_digest|exact)"' "$out" >"$runs/$1-$2.exact"
    row="$1 $2"
    for m in $METRICS; do
        row="$row $(metric "$m" "$out")"
    done
    echo "$row" | tee -a "$runs/rows"
}

echo "pairs: $workload seed $seed, $pairs pairs, old = $sha, new = working tree"
echo "tree pair $METRICS"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run old "$i"
        run new "$i"
    else
        run new "$i"
        run old "$i"
    fi
    i=$((i + 1))
done

# Median and quartiles (linear interpolation) of the numbers on stdin.
quartiles() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,   h, lo) {
            h = (NR - 1) * p + 1; lo = int(h)
            return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        }
        END { printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) }'
}

echo
echo "metric better old_q1 old_median old_q3 new_q1 new_median new_q3 wins verdict"
col=3
for m in $METRICS; do
    case $m in work_per_s) better=higher ;; *) better=lower ;; esac
    old=$(awk -v c=$col '$1 == "old" { print $c }' "$runs/rows" | quartiles)
    new=$(awk -v c=$col '$1 == "new" { print $c }' "$runs/rows" | quartiles)
    wins=$(awk -v c=$col -v b=$better '
        $1 == "old" { o[$2] = $c } $1 == "new" { n[$2] = $c }
        END {
            for (p in o) w += (b == "higher") ? (n[p] > o[p]) : (n[p] < o[p])
            print w + 0
        }' "$runs/rows")
    verdict=$(echo "$old $new" | awk -v b=$better '{
        gap = $5 - $2; iqr = $3 - $1
        if ((gap < 0 ? -gap : gap) <= iqr) { print "unresolved"; exit }
        print ((b == "higher") == (gap > 0)) ? "resolved-better" : "resolved-worse"
    }')
    echo "$m $better $old $new $wins/$pairs $verdict"
    col=$((col + 1))
done

# A workload whose run ignores the seed gives one digest at every seed.
digest_at() {
    "$runs/ledger-old" --workload "$workload" --seed "$1" --seconds 1 --trace 0 |
        sed -n 's/^{"type":"sim_digest",.*"digest":"\([0-9a-f]*\)".*/\1/p'
}
other=$((seed + 1))
if [ "$(digest_at "$seed")" = "$(digest_at "$other")" ]; then
    echo
    echo "pairs: note: $workload gives one sim_digest at seeds $seed and $other:" \
        "its simulated run does not read the seed, so a digest that holds at" \
        "another seed is no further evidence for it"
fi

echo
mismatch=0
for f in "$runs"/*.exact; do
    cmp -s "$runs/old-1.exact" "$f" || {
        echo "pairs: $(basename "$f" .exact): sim_digest or exact lines differ from old-1"
        mismatch=1
    }
done
[ "$mismatch" -eq 0 ] || fail "digest or exact lines differ"
echo "pairs: sim_digest and all $(($(wc -l <"$runs/old-1.exact") - 1)) exact lines match in every run"
