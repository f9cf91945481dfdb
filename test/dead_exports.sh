#!/bin/sh
# Fails when a value exported by a lib/**/*.mli is mentioned nowhere
# outside its own module: a word scan of every [val] name against the
# .ml/.mli files of lib/, bin/, bench/, perf/, examples/ and test/,
# skipping the value's own .ml and .mli.
#
#   sh test/dead_exports.sh [ROOT] [ALLOWLIST]
#
# ROOT defaults to the current directory. ALLOWLIST names exports kept on
# purpose, one [Module.value] a line ('#' starts a comment). The runtest
# rule in test/dune runs this over the source tree.
root=${1:-.}
allow=${2:-}
cd "$root" || exit 2
files=$(find lib bin bench perf examples test -type f \( -name '*.ml' -o -name '*.mli' \) \
  -not -path '*/.*' | sort)
dead=$(awk -v allow="$allow" '
function stem(f) { sub(/\.mli?$/, "", f); return f }
function modname(s) { sub(/.*\//, "", s); return toupper(substr(s, 1, 1)) substr(s, 2) }
BEGIN {
  if (allow != "")
    while ((getline line < allow) > 0) {
      sub(/#.*/, "", line); gsub(/[ \t]/, "", line)
      if (line != "") allowed[line] = 1
    }
}
{
  s = stem(FILENAME)
  if (FILENAME ~ /^lib\/.*\.mli$/ && match($0, /^[ \t]*val[ \t]+[a-z_][A-Za-z0-9_'\'']*/)) {
    v = substr($0, RSTART, RLENGTH)
    sub(/^[ \t]*val[ \t]+/, "", v)
    vals[s, v] = 1
  }
  # For each word: the first file stem mentioning it, and whether a
  # second stem does.
  n = split($0, w, /[^A-Za-z0-9_'\'']+/)
  for (i = 1; i <= n; i++) {
    k = w[i]
    if (k == "") continue
    if (!(k in first)) first[k] = s
    else if (first[k] != s) elsewhere[k] = 1
  }
}
END {
  for (sv in vals) {
    split(sv, p, SUBSEP)
    name = modname(p[1]) "." p[2]
    if (!(p[2] in elsewhere) && first[p[2]] == p[1] && !(name in allowed))
      print name " (" p[1] ".mli)"
  }
}' $files | sort)
if [ -n "$dead" ]; then
  echo "exported values mentioned nowhere outside their own module:"
  echo "$dead"
  echo "delete them, drop them from the .mli, or list them in the allowlist with a reason"
  exit 1
fi
