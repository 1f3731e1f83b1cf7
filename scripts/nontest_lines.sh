#!/usr/bin/env bash
# Non-test line counts: every line of each crates/<crate>/src/**/*.rs that
# comes before the file's first `#[cfg(test)]` line (a file without one
# counts whole). Prints a markdown table — one row per crate, then the
# total over the six long-tracked crates (core, serve, bench, graph, util,
# synth), kept so history stays comparable, and the total over every crate
# (eval, partition and text too). Report only: always exits 0 when the
# counts could be taken.
#
# Usage: scripts/nontest_lines.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

tracked=" core serve bench graph util synth "
total=0
all=0
crates=0
echo "| crate | non-test lines |"
echo "|---|---:|"
for dir in crates/*/; do
    crate=$(basename "$dir")
    lines=$(find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }')
    echo "| $crate | $lines |"
    if [[ $tracked == *" $crate "* ]]; then
        total=$((total + lines))
    fi
    all=$((all + lines))
    crates=$((crates + 1))
done
echo "| **six tracked crates** | **$total** |"
echo "| **all $crates crates** | **$all** |"
