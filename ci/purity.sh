#!/bin/sh
# Source checks on the library code, each over the lines before a file's
# first `#[cfg(test)]` (its tests may name anything):
#
#   ci/purity.sh
#
# 1. The controller's cores take the time and hand back what to send;
#    only `ctl::write` puts it on the wire. The controller itself, its
#    app handle (`ctl`) and its admission control take the time and
#    write through the `ControlIo` they are handed; the agent does the
#    same through `SwitchIo`, which extends it. Only the two node
#    adapters (`controller_node.rs`, `agent_node.rs`) and the cbench
#    load generator name `Context`. None of these may name the
#    simulator's `Context`, or a bounded explorer could not drive it.
# 2. A switch's session is the southbound's: the controller asks it, and
#    names neither the session record nor its shadow ops.
# 3. Simulated time is the only clock inside a run: no library file
#    outside the bench crate, whose timers stand around whole runs,
#    names `std::time`.
#
# Prints every offender and exits non-zero if there is one.
set -eu
cd "$(dirname "$0")/.."

# Exit 0 (true) if a line before FILE's first `#[cfg(test)]` matches the
# extended regex PATTERN.
names() {
    awk -v pattern="$1" '/#\[cfg\(test\)\]/ { exit } $0 ~ pattern { named = 1 } END { exit !named }' "$2"
}

fail=0

for core in southbound replica txn agent controller ctl admission; do
    if names 'Context' "crates/core/src/$core.rs"; then
        echo "crates/core/src/$core.rs names Context outside its tests" >&2
        fail=1
    fi
done

if names '(^|[^A-Za-z0-9_])(Session|ShadowOp)([^A-Za-z0-9_]|$)' crates/core/src/controller.rs; then
    echo "crates/core/src/controller.rs names Session or ShadowOp outside its tests" >&2
    fail=1
fi

for file in $(find crates/*/src -name '*.rs' -not -path 'crates/bench/*' | sort); do
    if names 'std::time' "$file"; then
        echo "$file names std::time outside its tests" >&2
        fail=1
    fi
done

exit "$fail"
