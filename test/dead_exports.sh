#!/bin/sh
# Fails when a value exported by a lib/**/*.mli has no caller outside its
# own module except tests: a word scan of every [val] name against the
# .ml/.mli files of lib/, bin/, bench/, perf/, examples/ and test/,
# skipping the value's own .ml and .mli, comments, and the name a
# definition line defines. It reports two kinds:
#
#   - exports mentioned nowhere outside their own module;
#   - exports that only test/ mentions: lib/ holds what the system runs.
#
#   sh test/dead_exports.sh [ROOT] [ALLOWLIST]
#
# ROOT defaults to the current directory. ALLOWLIST names exports kept on
# purpose, one [Module.value # reason] a line; lines holding only a
# '#' comment are skipped. The allowlist itself fails the check when a
# line has no reason, names a value that is no longer exported, or names
# one that now has a caller outside test/. The runtest rule in test/dune
# runs this over the source tree.
root=${1:-.}
allow=${2:-}
cd "$root" || exit 2
files=$(find lib bin bench perf examples test -type f \( -name '*.ml' -o -name '*.mli' \) \
  -not -path '*/.*' | sort)
report=$(awk -v allow="$allow" '
function stem(f) { sub(/\.mli?$/, "", f); return f }
function modname(s) { sub(/.*\//, "", s); return toupper(substr(s, 1, 1)) substr(s, 2) }
function trim(s) { gsub(/^[ \t]+|[ \t]+$/, "", s); return s }
BEGIN {
  if (allow != "")
    while ((getline line < allow) > 0) {
      lineno++
      hash = index(line, "#")
      name = trim(hash ? substr(line, 1, hash - 1) : line)
      if (name == "") continue
      if (!hash || trim(substr(line, hash + 1)) == "")
        print "allowlist line " lineno ": " name " has no # reason"
      allowed[name] = 1
    }
}
FNR == 1 { depth = 0 }
{
  # Strip OCaml comments (nested, across lines): a word in a comment is
  # not a caller.
  out = ""; rest = $0
  while (rest != "") {
    if (depth > 0) {
      o = index(rest, "(*"); c = index(rest, "*)")
      if (c == 0 && o == 0) rest = ""
      if (o > 0 && (c == 0 || o < c)) { depth++; rest = substr(rest, o + 2) }
      else { depth--; rest = substr(rest, c + 2) }
    } else {
      o = index(rest, "(*")
      if (o == 0) { out = out rest; rest = "" }
      else { out = out substr(rest, 1, o - 1) " "; depth = 1; rest = substr(rest, o + 2) }
    }
  }
  $0 = out
}
{
  s = stem(FILENAME)
  if (FILENAME ~ /^lib\/.*\.mli$/ && match($0, /^[ \t]*val[ \t]+[a-z_][A-Za-z0-9_'\'']*/)) {
    v = substr($0, RSTART, RLENGTH)
    sub(/^[ \t]*val[ \t]+/, "", v)
    vals[s, v] = 1
    exported[modname(s) "." v] = 1
  }
  # The name a [let]/[val]/[and] line defines is not a mention of it, so
  # a same-named value in another module does not count as a caller.
  defined = ""
  if (match($0, /^[ \t]*(let|val|and)[ \t]+(rec[ \t]+)?[a-z_][A-Za-z0-9_'\'']*/)) {
    defined = substr($0, RSTART, RLENGTH)
    sub(/.*[ \t]/, "", defined)
  }
  # For each word: the first non-test stem mentioning it, whether a second
  # non-test stem does, and whether a test mentions it.
  istest = FILENAME ~ /^test\//
  n = split($0, w, /[^A-Za-z0-9_'\'']+/)
  for (i = 1; i <= n; i++) {
    k = w[i]
    if (k == "") continue
    if (k == defined) { defined = ""; continue }
    if (istest) intest[k] = 1
    else if (!(k in first)) first[k] = s
    else if (first[k] != s) elsewhere[k] = 1
  }
}
END {
  for (sv in vals) {
    split(sv, p, SUBSEP)
    name = modname(p[1]) "." p[2]
    used = (p[2] in elsewhere) || ((p[2] in first) && first[p[2]] != p[1])
    if (used && (name in allowed))
      print "allowlisted " name " (" p[1] ".mli) now has a caller outside test/: drop its line"
    else if (!used && !(name in allowed))
      print (p[2] in intest ? "only test/ mentions " : "nothing outside its module mentions ") \
        name " (" p[1] ".mli)"
  }
  for (name in allowed)
    if (!(name in exported)) print "allowlisted " name " is no longer exported: drop its line"
}' $files | sort)
if [ -n "$report" ]; then
  echo "$report"
  echo "delete such a value, drop it from its .mli, move its test to the public path,"
  echo "or list it in the allowlist with a # reason"
  exit 1
fi
