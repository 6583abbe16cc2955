#!/usr/bin/env sh
# Non-test line counts per crate: every `crates/*/src/**/*.rs` file is
# counted up to its `#[cfg(test)]` + `mod tests` pair (the whole file
# when it has none). A `#[cfg(test)]` on anything other than
# `mod tests` (a hook call, a `use`, a helper module) does not end the
# count.
#
# Usage:
#   sh scripts/loc.sh          per-crate lines of the working tree
#   sh scripts/loc.sh REV      per-crate lines at REV, the working tree,
#                              and the difference
#
# Informational only: no gate reads it.
set -eu

cd "$(dirname "$0")/.."

# Lines of stdin before its `#[cfg(test)]` + `mod tests` pair.
count() {
    awk '
        /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod tests[[:space:]]*\{/ && armed == NR - 1 { print NR - 2; found = 1; exit }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { armed = NR }
        END { if (!found) print NR }
    '
}

# "crate lines" for every source file of the working tree or of `$1`.
per_file() {
    if [ -n "${1:-}" ]; then
        git ls-tree -r --name-only "$1" -- crates |
            grep -E '^crates/[^/]+/src/.*\.rs$' |
            while read -r f; do
                printf '%s %s\n' "$(echo "$f" | cut -d/ -f2)" "$(git show "$1:$f" | count)"
            done
    else
        find crates/*/src -name '*.rs' | sort |
            while read -r f; do
                printf '%s %s\n' "$(echo "$f" | cut -d/ -f2)" "$(count <"$f")"
            done
    fi
}

# "crate total" per crate, sorted by crate.
per_crate() {
    per_file "${1:-}" | awk '{ s[$1] += $2 } END { for (c in s) print c, s[c] }' | sort
}

if [ $# -eq 0 ]; then
    per_crate | awk '
        { printf "%-10s %7d\n", $1, $2; t += $2 }
        END { printf "%-10s %7d\n", "total", t }
    '
else
    base=$(mktemp)
    trap 'rm -f "$base"' EXIT
    per_crate "$1" >"$base"
    per_crate | join -a1 -a2 -e0 -o 0,1.2,2.2 "$base" - | awk -v rev="$1" '
        BEGIN { printf "%-10s %7s %7s %7s\n", "crate", substr(rev, 1, 7), "tree", "diff" }
        {
            printf "%-10s %7d %7d %+7d\n", $1, $2, $3, $3 - $2
            a += $2; b += $3
        }
        END { printf "%-10s %7d %7d %+7d\n", "total", a, b, b - a }
    '
fi
