#!/usr/bin/env bash
# Net Rust: the lines of tracked Rust under crates/, src/, tests/ and
# examples/ in the working tree and at a revision, and their difference.
# This is the count ROADMAP item 19 and the CHANGES entries report.
#
#   tools/rust_lines.sh [<rev>]     (default HEAD; run from the repo)
#
# Prints three lines:
#   working tree <lines>
#   <rev> <lines>
#   difference <signed lines>
set -euo pipefail

rev="${1:-HEAD}"
dirs=(crates src tests examples)
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "rust_lines: '$rev' names no commit" >&2
    exit 2
}

# The last line of `wc -l` over several files is the total; over one file
# it is that file's count.
total() {
    local n rest last=0
    while read -r n rest; do
        last=$n
    done
    echo "$last"
}

# Tracked files as the working tree holds them (a tracked file deleted
# from the tree but not yet from the index counts nothing).
tree=$(
    git ls-files -z -- "${dirs[@]}" | while IFS= read -r -d '' f; do
        [[ $f == *.rs && -f $f ]] && printf '%s\0' "$f"
    done | wc -l --files0-from=- | total
)

at_rev=$(
    git ls-tree -r -z --name-only "$rev" -- "${dirs[@]}" | while IFS= read -r -d '' f; do
        [[ $f == *.rs ]] && git show "$rev:$f"
    done | wc -l
)

echo "working tree $tree"
echo "$rev $at_rev"
echo "difference $((tree - at_rev))"
