#!/bin/sh
# A sampled profile of one ledger workload, for boxes without `perf`:
#
#   ci/profile.sh <workload> [seed] [seconds]
#
# Builds the ledger with line tables into its own target directory
# (target/profile, so the ordinary release build is not invalidated),
# runs it untraced under ci/sampler.c (LD_PRELOAD, ITIMER_PROF,
# `backtrace()`), resolves the stacks with `addr2line -f -i` and prints,
# per function, the share of samples it was running in (self: the
# innermost frame, inlined callees told apart, under the short names
# DWARF gives them) and the share it was anywhere on the stack of
# (inclusive) — the top 40 of each. A third table charges each sample
# to a source line, `function @ crate/src/file.rs:line`: that of its
# innermost frame, inlined ones included, that resolves under
# `crates/*/src`. Frames outside the binary and in the standard
# library are passed over, so a `memcmp`, `clock_gettime` or `malloc`
# is charged to the workspace line that called it. Needs gcc and
# binutils, so ci.sh does not run it. 250 samples per CPU second:
# shares move a point or two from run to run; compare shapes, not
# decimals.
set -eu

WORKLOAD="${1:?usage: ci/profile.sh <workload> [seed] [seconds]}"
SEED="${2:-42}"
SECS="${3:-10}"

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
DIR="$ROOT/target/profile"
BIN="$DIR/release/ledger"
mkdir -p "$DIR"

gcc -O2 -shared -fPIC -o "$DIR/sampler.so" "$ROOT/ci/sampler.c"
(cd "$ROOT" && CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    cargo build --release --offline --quiet -p zen-bench --bin ledger --target-dir "$DIR")

SAMPLER_OUT="$DIR/samples.txt" LD_PRELOAD="$DIR/sampler.so" "$BIN" \
    --workload "$WORKLOAD" --seed "$SEED" --seconds "$SECS" --trace 0 |
    tail -n 1

# Where the binary is mapped: the lowest start and highest end of its
# mappings. It is position-independent, so an address minus the lowest
# start is the address addr2line knows.
RANGE=$(awk -v bin="$BIN" 'maps && $6 == bin { if (!lo) lo = $1; hi = $1 }
    /^MAPS$/ { maps = 1 }
    END { split(lo, a, "-"); split(hi, b, "-"); print a[1], b[2] }' "$DIR/samples.txt")

# One line per sample, frames as binary-relative addresses (callers
# moved back one byte, into the call instruction) or `-` for frames
# outside the binary (libc, the vdso).
awk -v range="$RANGE" '
    function hex(s,    i, n) {
        n = 0
        for (i = 1; i <= length(s); i++)
            n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
        return n
    }
    BEGIN { split(range, r, " "); lo = hex(r[1]); hi = hex(r[2]) }
    /^MAPS$/ { exit }
    {
        line = ""
        for (f = 1; f <= NF; f++) {
            a = hex($f)
            line = line (a >= lo && a < hi ? sprintf("%x", a - lo - (f > 1)) : "-") " "
        }
        print line
    }' "$DIR/samples.txt" >"$DIR/stacks.txt"

tr ' ' '\n' <"$DIR/stacks.txt" | grep -v '^-*$' | sort -u >"$DIR/addrs.txt"
addr2line -a -f -i -C -e "$BIN" @"$DIR/addrs.txt" >"$DIR/resolved.txt"

# resolved.txt: per address a `0x…` line, then (function, file:line)
# pairs, innermost inlined frame first.
awk -v top=40 '
    FNR == NR {
        if ($0 ~ /^0x/) { addr = $0; sub(/^0x0*/, "", addr); n = 0; next }
        if (++n % 2) {
            sub(/::h[0-9a-f]+$/, "")
            fns[addr] = fns[addr] (fns[addr] == "" ? "" : "\t") $0
        } else {
            sub(/ \(discriminator [0-9]+\)$/, "")
            locs[addr] = locs[addr] (locs[addr] == "" ? "" : "\t") $0
        }
        next
    }
    {
        samples++
        split("", seen)
        at = ""
        for (f = 1; f <= NF; f++) {
            k = split($f == "-" ? "[outside the binary]" : fns[$f], names, "\t")
            split($f == "-" ? "" : locs[$f], locs_of, "\t")
            for (i = 1; i <= k; i++) {
                if (f == 1 && i == 1) self[names[i]]++
                if (!(names[i] in seen)) { seen[names[i]] = 1; incl[names[i]]++ }
                if (at == "" && match("/" locs_of[i], /\/crates\/[^\/]+\/src\//))
                    at = names[i] " @ " substr("/" locs_of[i], RSTART + 8)
            }
        }
        line[at == "" ? "[no workspace frame]" : at]++
    }
    function report(title, count,    name, cmd) {
        printf "\n%s, %% of %d samples\n", title, samples
        cmd = "sort -rn | head -n " top
        for (name in count)
            printf "%6.2f  %s\n", 100 * count[name] / samples, name | cmd
        close(cmd)
    }
    END { report("self", self); report("inclusive", incl); report("line", line) }
' "$DIR/resolved.txt" "$DIR/stacks.txt"
