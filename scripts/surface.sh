#!/bin/sh
# Prints the public-surface numbers the ROADMAP tracks, one per line:
#   - public item declarations in the product crates;
#   - non-test product lines there (each `#[cfg(test)]` block is skipped
#     by brace matching);
#   - `lint.allow` entries;
#   - `bench.allow` entries.
# The product crates are the facade (`src/`) and `crates/{graph,core,data}`.
#
# Usage: scripts/surface.sh   (from anywhere inside the repository)
set -eu
cd "$(dirname "$0")/.."

dirs="src crates/graph/src crates/core/src crates/data/src"

items=$(find $dirs -name '*.rs' -print0 |
    xargs -0 grep -hE '^\s*pub (fn|struct|enum|trait|const|type|static) ' | wc -l)

lines=$(find $dirs -name '*.rs' -print0 |
    xargs -0 awk '/^[ \t]*#\[cfg\(test\)\][ \t]*$/{s=1;d=0;o=0;next} s{a=gsub(/\{/,"{");b=gsub(/\}/,"}");d+=a-b;if(a)o=1;if(o&&d<=0)s=0;next} {n++} END{print n}')

# An entry is any line that is neither blank nor a comment.
entries() {
    grep -cvE '^[[:space:]]*(#|$)' "$1" || true
}

echo "public items:        $items"
echo "non-test lines:      $lines"
echo "lint.allow entries:  $(entries lint.allow)"
echo "bench.allow entries: $(entries bench.allow)"
