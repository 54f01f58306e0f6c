#!/bin/sh
# Dead-export guard: lists every `val` and `exception` declared in a
# lib/**/*.mli that no source file outside its own module (the
# .ml/.mli pair) mentions,
# and every optional argument `?name:` declared in a lib/**/*.mli when
# no file outside its module contains `~name` or `?name`; exits 1 if
# there is any. Comments, string literals (plain and {|quoted|}) and
# character literals are blanked out first, so a name that appears
# only in a comment or a string is no caller. A mention of `M.name`
# counts for module M's export `name`; a bare `name` counts only in a
# file that opens M (`open`, `include`, a local `M.(...)`, `M.[...]`
# or `M.{...}`) or aliases it (`module X = M`). Any such mention
# counts, so a name the file uses for something else still counts: the
# guard can miss a dead export or option but never flags a live one.
# It also lists every key of a key table (`int "key"`, `Keys.float
# "key"`, ... in a lib/**/*.ml that uses Keys) that no file outside its
# module sets by writing `key:` (a YAML document) or `("key", ...)` (an
# attrs list); any such text counts, so again it can miss a dead key
# but never flags a live one.
# Usage: bin/dead_exports.sh
set -eu
cd "$(dirname "$0")/.."

status=0
awk '
    # A char literal at s[i] ('"'"'x'"'"', '"'"'\n'"'"', '"'"'\065'"'"'): its length, else 0 (a
    # type variable or a primed name).
    function charlit(s, i,    j) {
      if (substr(s, i + 1, 1) == "\\") {
        j = index(substr(s, i + 2), "'"'"'")
        return (j >= 2 && j <= 4) ? j + 1 : 0
      }
      return (substr(s, i + 2, 1) == "'"'"'") ? 3 : 0
    }
    # The line with comments and literals blanked; depth, instr and
    # inq carry the lexer state across lines.
    function strip(s,    out, i, n, c, d, k) {
      out = ""; n = length(s); i = 1
      while (i <= n) {
        c = substr(s, i, 1); d = substr(s, i, 2)
        if (instr) {
          if (c == "\\") i++
          else if (c == "\"") instr = 0
          i++
        } else if (inq) {
          if (d == "|}") { inq = 0; i++ }
          i++
        } else if (c == "'"'"'" && (k = charlit(s, i)) > 0) {
          out = out " "; i += k
        } else if (d == "(*") {
          depth++; i += 2
        } else if (depth > 0 && d == "*)") {
          depth--; i += 2
        } else if (c == "\"") {
          instr = 1; out = out " "; i++
        } else if (depth == 0 && d == "{|") {
          inq = 1; out = out " "; i += 2
        } else {
          if (depth == 0) out = out c
          i++
        }
      }
      return out
    }
    # The module a file belongs to: lib/core/stack_spec.ml is Stack_spec.
    function modname(u,    m) {
      m = u
      sub(/.*\//, "", m)
      return toupper(substr(m, 1, 1)) substr(m, 2)
    }
    # The last component of a module path: Lab_core.Registry is Registry.
    function last(path,    c, n) {
      n = split(path, c, ".")
      return c[n]
    }
    FNR == 1 {
      unit = FILENAME; sub(/\.mli?$/, "", unit); depth = instr = inq = nsub = 0
      if (!(unit in isunit)) { isunit[unit] = 1; ulist[++nunits] = unit }
    }
    { $0 = strip($0) }
    # Vals inside `module X : sig ... end` belong to X.
    FILENAME ~ /^lib\/.*\.mli$/ && /^[ \t]*module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*:[ \t]*sig/ {
      w = $0
      sub(/^[ \t]*module[ \t]+/, "", w)
      sub(/[^A-Za-z0-9_].*$/, "", w)
      subm[++nsub] = w
    }
    FILENAME ~ /^lib\/.*\.mli$/ && /^[ \t]*end([^A-Za-z0-9_]|$)/ && nsub > 0 { nsub-- }
    FILENAME ~ /^lib\/.*\.mli$/ && /^[ \t]*(val|exception)[ \t]/ {
      v = $0
      sub(/^[ \t]*/, "", v)
      kw = v
      sub(/[ \t].*$/, "", kw)
      sub(/^[a-z]+[ \t]+/, "", v)
      sub(/[^A-Za-z0-9_].*$/, "", v)
      if (v != "") {
        decl[unit SUBSEP v] = FILENAME ":" FNR ": " kw
        owner[unit SUBSEP v] = nsub > 0 ? subm[nsub] : modname(unit)
      }
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
        seen[w, unit] = 1
        line = substr(line, RSTART + RLENGTH)
      }
      line = $0
      while (match(line, /[A-Z][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)+/)) {
        k = split(substr(line, RSTART, RLENGTH), c, ".")
        for (i = 1; i < k; i++) qual[c[i], c[i + 1], unit] = 1
        line = substr(line, RSTART + RLENGTH)
      }
      line = $0
      while (match(line, /(open!?|include)[ \t]+[A-Z][A-Za-z0-9_.]*|module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*=[ \t]*[A-Z][A-Za-z0-9_.]*|[A-Z][A-Za-z0-9_]*\.([[({]|[ \t]*$)/)) {
        w = substr(line, RSTART, RLENGTH)
        sub(/\.([[({]|[ \t]*)$/, "", w)
        sub(/.*[ \t=]/, "", w)
        opens[last(w), unit] = 1
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
        mo = owner[k]; live = 0
        for (i = 1; i <= nunits && !live; i++) {
          o = ulist[i]
          if (o != p[1] && (((mo, p[2], o) in qual) || (((p[2], o) in seen) && ((mo, o) in opens))))
            live = 1
        }
        if (!live) { print decl[k] " " p[2] | "sort"; n++ }
      }
      for (k in opt) {
        split(k, p, SUBSEP)
        if (lunits[p[2]] <= 1) { print opt[k] ": ?" p[2] | "sort"; m++ }
      }
      close("sort")
      if (n > 0)
        printf "dead_exports: %d exported value(s) or exception(s) with no caller outside their module\n", n
      if (m > 0)
        printf "dead_exports: %d optional argument(s) no caller outside their module passes\n", m
      if (n + m > 0) exit 1
    }' $(find lib bench bin test labbench examples -name _build -prune -o \
      \( -name '*.ml' -o -name '*.mli' \) -print | sort) </dev/null || status=1

files=$(find lib bench bin test labbench examples -name _build -prune -o \
  \( -name '*.ml' -o -name '*.mli' -o -name '*.yaml' -o -name '*.t' \) -print | sort)
ctor='(^|[^A-Za-z0-9_.]|Keys\.)(int|float|bool|string|strings|path|custom)[[:space:]]+"[A-Za-z0-9_]+"'
for ml in $(grep -lw 'Keys' $(find lib -name '*.ml' ! -name keys.ml | sort)); do
  for key in $(grep -oE "$ctor" "$ml" | cut -d'"' -f2 | sort -u); do
    grep -lE "(^|[^A-Za-z0-9_~?])$key:|\(\"$key\"," $files | grep -qv "^${ml%.ml}\.mli\{0,1\}\$" \
      || { echo "$ml: key $key: no file outside its module sets it"; status=1; }
  done
done
exit $status
