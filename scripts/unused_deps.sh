#!/usr/bin/env bash
# Unused manifest dependencies: for each workspace member under `crates/`,
# `examples/` and `tests/`, lists every dependency (normal, dev or build)
# whose crate name — the manifest key with `-` read as `_` — no `.rs` file of
# that member mentions. Exits 1 when it lists any.
#
# Usage: scripts/unused_deps.sh    (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for manifest in crates/*/Cargo.toml examples/Cargo.toml tests/Cargo.toml; do
    member=$(dirname "$manifest")
    deps=$(awk '
        /^\[/ { in_deps = ($0 ~ /^\[(dev-|build-)?dependencies\]$/); next }
        in_deps && /^[A-Za-z0-9_-]+[ \t]*=/ { sub(/[ \t]*=.*/, ""); print }
    ' "$manifest")
    for dep in $deps; do
        if ! grep -rqw --include='*.rs' "${dep//-/_}" "$member"; then
            echo "$manifest: $dep (no .rs file of $member names ${dep//-/_})"
            status=1
        fi
    done
done
exit $status
