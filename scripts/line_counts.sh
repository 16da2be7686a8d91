#!/usr/bin/env bash
# Non-test line counts per crate: the lines of each `.rs` file under
# `crates/` before its first `#[cfg(test)]`, at a base revision and in the
# working tree, printed as a markdown table `crate | base | head | Δ`.
#
# Usage: scripts/line_counts.sh BASE    (a git revision: HEAD~1, origin/main, ...)
set -euo pipefail

base=${1:?usage: $0 BASE}
rule='index($0, "#[cfg(test)]") { exit } { n++ } END { print n + 0 }'

# Sums the non-test lines of the `.rs` files under `crates/$1/`, at `$base`
# when `$2` is `base`, in the working tree otherwise.
count() {
    local files
    if [ "$2" = base ]; then
        files=$(git ls-tree -r --name-only "$base" -- "crates/$1/" | grep '\.rs$' || true)
        for f in $files; do git show "$base:$f" | awk "$rule"; done
    elif [ -d "crates/$1" ]; then
        find "crates/$1" -name '*.rs' -exec awk "$rule" {} \;
    fi | awk '{ s += $1 } END { print s + 0 }'
}

crates=$( { git ls-tree -d --name-only "$base" crates/; ls -d crates/*/; } |
    xargs -n1 basename | sort -u)
echo "| crate | base ($(git rev-parse --short "$base")) | head | Δ |"
echo "|---|---|---|---|"
total_base=0
total_head=0
for crate in $crates; do
    b=$(count "$crate" base)
    h=$(count "$crate" head)
    printf '| %s | %d | %d | %+d |\n' "$crate" "$b" "$h" $((h - b))
    total_base=$((total_base + b))
    total_head=$((total_head + h))
done
printf '| **total** | **%d** | **%d** | **%+d** |\n' "$total_base" "$total_head" \
    $((total_head - total_base))
