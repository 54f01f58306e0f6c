#!/bin/sh
# Dead-export guard: lists every `val` declared in a lib/**/*.mli that
# no source file outside its own module (the .ml/.mli pair) mentions,
# and every optional argument `?name:` declared in a lib/**/*.mli when
# no file outside its module contains `~name` or `?name`; exits 1 if
# there is any. A mention anywhere in a file counts, so a name another
# module also uses counts as live: the guard can miss a dead export or
# option but never flags a live one.
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
    FILENAME ~ /^lib\/.*\.mli$/ {
      line = $0
      while (match(line, /\?[a-z_][A-Za-z0-9_]*:/)) {
        o = substr(line, RSTART + 1, RLENGTH - 2)
        opt[unit SUBSEP o] = FILENAME ":" FNR
        line = substr(line, RSTART + RLENGTH)
      }
    }
    {
      line = $0
      while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
        w = substr(line, RSTART, RLENGTH)
        if (!((w, unit) in seen)) { seen[w, unit] = 1; units[w]++ }
        line = substr(line, RSTART + RLENGTH)
      }
      line = $0
      while (match(line, /[~?][a-z_][A-Za-z0-9_]*/)) {
        w = substr(line, RSTART + 1, RLENGTH - 1)
        if (!((w, unit) in lseen)) { lseen[w, unit] = 1; lunits[w]++ }
        line = substr(line, RSTART + RLENGTH)
      }
    }
    END {
      for (k in decl) {
        split(k, p, SUBSEP)
        if (units[p[2]] <= 1) { print decl[k] ": val " p[2] | "sort"; n++ }
      }
      for (k in opt) {
        split(k, p, SUBSEP)
        if (lunits[p[2]] <= 1) { print opt[k] ": ?" p[2] | "sort"; m++ }
      }
      close("sort")
      if (n > 0)
        printf "dead_exports: %d exported value(s) with no caller outside their module\n", n
      if (m > 0)
        printf "dead_exports: %d optional argument(s) no caller outside their module passes\n", m
      if (n + m > 0) exit 1
    }' $(find lib bench bin test labbench examples -name _build -prune -o \
      \( -name '*.ml' -o -name '*.mli' \) -print | sort) </dev/null
