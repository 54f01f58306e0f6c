#!/bin/sh
# Dead-export guard: lists every `val` declared in a lib/**/*.mli that
# no source file outside its own module (the .ml/.mli pair) mentions,
# and exits 1 if there is any. A mention is the bare identifier
# anywhere in the file, so a name another module also uses counts as
# live: the guard can miss a dead export but never flags a live one.
# Usage: bin/dead_exports.sh
set -eu
cd "$(dirname "$0")/.."

awk '
    FNR == 1 { unit = FILENAME; sub(/\.mli?$/, "", unit) }
    FILENAME ~ /^lib\/.*\.mli$/ && /^[ \t]*val[ \t]/ {
      v = $0
      sub(/^[ \t]*val[ \t]+/, "", v)
      sub(/[^A-Za-z0-9_].*$/, "", v)
      if (v != "") decl[unit SUBSEP v] = FILENAME ":" FNR
    }
    {
      line = $0
      while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
        w = substr(line, RSTART, RLENGTH)
        if (!((w, unit) in seen)) { seen[w, unit] = 1; units[w]++ }
        line = substr(line, RSTART + RLENGTH)
      }
    }
    END {
      for (k in decl) {
        split(k, p, SUBSEP)
        if (units[p[2]] <= 1) { print decl[k] ": val " p[2] | "sort"; n++ }
      }
      close("sort")
      if (n > 0) {
        printf "dead_exports: %d exported value(s) with no caller outside their module\n", n
        exit 1
      }
    }' $(find lib bench bin test labbench examples -name _build -prune -o \
      \( -name '*.ml' -o -name '*.mli' \) -print | sort) </dev/null
