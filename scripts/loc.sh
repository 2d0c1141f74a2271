#!/usr/bin/env bash
# Non-test Rust line count of the working tree, or of a git revision.
#
# Usage: scripts/loc.sh [REV]
#
# A file counts if it is a `.rs` file outside every `tests/` directory
# and outside `vendor/`, `wallbench/` and `target/`. Each file counts its
# lines up to (not including) the first line that starts with
# `#[cfg(test)]`, so inline unit-test modules are left out; a comment
# that mentions the attribute does not end the count.

set -euo pipefail
cd "$(dirname "$0")/.."

# Lines before the first `#[cfg(test)]` of the text on stdin. It reads
# to the end: exiting early would close the pipe on `git show` mid-write.
count() { awk '/^#\[cfg\(test\)\]/ { done = 1 } !done { n++ } END { print n + 0 }'; }

counted() {
    grep -E '\.rs$' | grep -Ev '(^|/)tests/|^(vendor|wallbench|target)/' || true
}

total=0
if [ $# -ge 1 ]; then
    rev=$1
    while IFS= read -r f; do
        total=$((total + $(git show "$rev:$f" | count)))
    done < <(git ls-tree -r --name-only "$rev" | counted)
else
    while IFS= read -r f; do
        total=$((total + $(count < "$f")))
    done < <(find . -name '*.rs' -type f | sed 's|^\./||' | counted)
fi
echo "$total"
