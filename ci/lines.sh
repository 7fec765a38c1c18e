#!/bin/sh
# The line counts ROADMAP.md and CHANGES.md quote:
#
#   ci/lines.sh
#
# Non-test lines are everything before a file's first `#[cfg(test)]`
# (the whole file when it has none), over the `.rs` files under
# `crates/*/src` outside the benchmark's own directory,
# `crates/bench/src/bin/ledger`. Printed for the workspace, for
# `controller.rs`, for zen-proto (`codec.rs` + `lib.rs`), for
# `southbound.rs`, the switch-session core the controller asks, and for
# `agent.rs`, the switch's own core; `ci.sh` runs this after the build.
# It prints, it does not gate.
set -eu
cd "$(dirname "$0")/.."

# Lines before each file's first `#[cfg(test)]`, summed over the files.
count() {
    awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }' "$@"
}

# shellcheck disable=SC2046 # no path under crates/ holds a space
echo "lines: workspace non-test $(count $(find crates/*/src -name '*.rs' \
    -not -path 'crates/bench/src/bin/ledger/*'))"
echo "lines: controller.rs non-test $(count crates/core/src/controller.rs)"
echo "lines: zen-proto non-test $(count crates/proto/src/*.rs)"
echo "lines: southbound.rs non-test $(count crates/core/src/southbound.rs)"
echo "lines: agent.rs non-test $(count crates/core/src/agent.rs)"
