#!/bin/sh
# Fails when a value exported by a lib/**/*.mli has no caller outside its
# own module except tests: a scan of the .ml/.mli files of lib/, bin/,
# bench/, perf/, examples/ and test/ that skips the value's own .ml and
# .mli, comments and string and character literals. A qualified path
# names one module: [M.v], [Lib.M.v] and [M.Sub.v] mention [M.v], and so
# does [X.v] where [X] is a module alias the same file declares
# ([module X = Oasis_lib.M], resolved transitively), but not [Y.v] for any
# other module [Y] — [Queue.pop] is no caller of [Heap.pop]. An
# unqualified word counts only for a module the same file opens
# ([open M], [open! M], [let open M in], [M.( ... )]), includes, or passes
# as a functor argument ([F (M)]), resolved through the same aliases. A
# word in a binding or field position is never a mention: a name after
# [let], [and], [fun] or [mutable], a [~label] or [?label], a field after
# [.], and a record field before [=] or [:] at the start of a line or
# after [{], [;] or [with]. It reports three kinds:
#
#   - exports mentioned nowhere outside their own module;
#   - exports that only test/ mentions: lib/ holds what the system runs;
#   - optional parameters ([?label:] in the [val]) of a called export that
#     no .ml file outside test/ passes: a knob nothing sets selects a code
#     path nothing runs. A label passes to a call when it follows a
#     mention of the value ([M.v], or an unqualified [v] in [M]'s own .ml
#     or in a file that opens [M]) as [~label] or [?label] at the same
#     bracket depth, before the application ends at an operator, a [;], a
#     keyword such as [in] or [then], or the bracket that encloses it.
#
#   sh test/dead_exports.sh [ROOT] [ALLOWLIST]
#
# ROOT defaults to the current directory. ALLOWLIST names exports kept on
# purpose, one [Module.value # reason] a line, and optional parameters
# kept on purpose as [Module.value?label # reason]; lines holding only a
# '#' comment are skipped. The allowlist itself fails the check when a
# line has no reason, names a value that is no longer exported, or names
# one that now has a caller outside test/. The runtest rule in test/dune
# runs this over the source tree.
root=${1:-.}
allow=${2:-}
cd "$root" || exit 2
dirs=$(for d in lib bin bench perf examples test; do [ -d "$d" ] && echo "$d"; done)
files=$(find $dirs -type f \( -name '*.ml' -o -name '*.mli' \) -not -path '*/.*' | sort)
report=$(awk -v allow="$allow" '
function stem(f) { sub(/\.mli?$/, "", f); return f }
function modname(s) { sub(/.*\//, "", s); return toupper(substr(s, 1, 1)) substr(s, 2) }
function trim(s) { gsub(/^[ \t]+|[ \t]+$/, "", s); return s }
# The first of [a] and [b] in [str] (0 if neither), the match kept in
# [found].
function first_of(str, a, b,   i, j) {
  i = index(str, a); j = index(str, b)
  if (i > 0 && (j == 0 || i <= j)) { found = a; return i }
  if (j > 0) { found = b; return j }
  return 0
}
# The line with comments and string literals blanked, carrying [depth]
# (comment nesting) and [quote] (the open string'\''s closing delimiter)
# across lines.
function strip(line,   out, p, q, n) {
  gsub(/'\''\\?"'\''/, " ", line)
  out = ""
  while (line != "") {
    if (depth > 0) {
      p = first_of(line, "(*", "*)")
      if (p == 0) return out
      depth += found == "(*" ? 1 : -1
      line = substr(line, p + 2)
    } else if (quote != "") {
      if (quote == "|}") {
        p = index(line, "|}")
        if (p == 0) return out
        line = substr(line, p + 2)
      } else {
        p = index(line, "\"")
        if (p == 0) return out
        for (q = p - 1; q > 0 && substr(line, q, 1) == "\\"; q--) ;
        line = substr(line, p + 1)
        if ((p - 1 - q) % 2 == 1) continue
      }
      quote = ""; out = out " "
    } else {
      p = first_of(line, "(*", "\"")
      n = index(line, "{|")
      if (n > 0 && (p == 0 || n < p)) { p = n; found = "{|" }
      if (p == 0) return out line
      out = out substr(line, 1, p - 1) " "
      if (found == "(*") { depth = 1; line = substr(line, p + 2) }
      else if (found == "{|") { quote = "|}"; line = substr(line, p + 2) }
      else { quote = "\""; line = substr(line, p + 1) }
    }
  }
  return out
}
# The lib module a module path names: its head expanded through this
# file'\''s aliases, then the last component that is a lib module
# ([Oasis_obs.Obs.Counter] names Obs).
function resolve(path,   hops, head, n, parts, i) {
  for (hops = 0; hops < 8; hops++) {
    head = path
    sub(/\..*/, "", head)
    if (!(head in alias)) break
    path = alias[head] substr(path, length(head) + 1)
  }
  n = split(path, parts, ".")
  for (i = n; i >= 1; i--) if (parts[i] in known) return parts[i]
  return ""
}
# The application frames open at bracket depth [d] and deeper end.
function end_calls(d) {
  while (ncall > 0 && cdepth[ncall] >= d) ncall--
}
# Walks one stripped line of a .ml file outside test/ as tokens, recording
# in [passed] each label that passes to an open application: a frame
# holds the values a mention may name ([own] for the module of this file, and
# every module it opens, for an unqualified word).
function calls(line,   w, path, m, k, n, c, i, cands) {
  while (line != "") {
    if (match(line, /^[ \t]+/)) { line = substr(line, RLENGTH + 1); continue }
    if (match(line, /^[~?][a-z_][A-Za-z0-9_'\'']*/)) {
      w = substr(line, 2, RLENGTH - 1)
      for (k = ncall; k > 0 && cdepth[k] == bd; k--) {
        n = split(cname[k], c, " ")
        for (i = 1; i <= n; i++) passed[c[i] "?" w] = 1
      }
      line = substr(line, RLENGTH + 1)
      if (substr(line, 1, 1) == ":") line = substr(line, 2)
      continue
    }
    if (match(line, /^[A-Z][A-Za-z0-9_'\'']*(\.[A-Z][A-Za-z0-9_'\'']*)*\.[a-z_][A-Za-z0-9_'\'']*/)) {
      path = substr(line, 1, RLENGTH)
      line = substr(line, RLENGTH + 1)
      w = path; sub(/.*\./, "", w)
      sub(/\.[^.]*$/, "", path)
      m = resolve(path)
      if (m != "") { ncall++; cname[ncall] = m "." w; cdepth[ncall] = bd }
      binder = 0
      continue
    }
    if (match(line, /^([A-Z][A-Za-z0-9_'\'']*\.?)+|^[0-9][0-9A-Za-z_.]*|^(\.[A-Z][A-Za-z0-9_'\'']*)*\.[a-z_][A-Za-z0-9_'\'']*|^'\''(\\[0-9]+|\\.|[^\\'\''])'\''|^[!'\''~?]/)) {
      line = substr(line, RLENGTH + 1)
      continue
    }
    if (match(line, /^[a-z_][A-Za-z0-9_'\'']*/)) {
      w = substr(line, 1, RLENGTH)
      line = substr(line, RLENGTH + 1)
      if (w in opener) { end_calls(bd); bd++; binder = 0 }
      else if (w in closer) { bd--; end_calls(bd) }
      else if (w in keyword) { end_calls(bd); binder = (w == "let" || w == "and" || w == "rec") }
      else if (binder) binder = 0
      else {
        cands = ""
        n = split(fileopens, c, " ")
        for (i = 1; i <= n; i++) cands = cands " " c[i] "." w
        if (own != "") cands = own "." w cands
        sub(/^ +/, "", cands)
        if (cands != "") { ncall++; cname[ncall] = cands; cdepth[ncall] = bd }
      }
      continue
    }
    if (match(line, /^\.?[([{]/)) { bd++; line = substr(line, RLENGTH + 1); continue }
    if (match(line, /^[])}]/)) { end_calls(bd); bd--; line = substr(line, 2); continue }
    end_calls(bd)
    line = substr(line, 2)
  }
}
BEGIN {
  for (i = 1; i < ARGC; i++)
    if (ARGV[i] ~ /^lib\/.*\.mli$/) known[modname(stem(ARGV[i]))] = stem(ARGV[i])
  split("begin struct sig object do", w, " ")
  for (i in w) opener[w[i]] = 1
  split("end done", w, " ")
  for (i in w) closer[w[i]] = 1
  split("let and rec in then else if match with function fun try when of type module open " \
    "include val external exception mutable as assert lazy while for to downto not", w, " ")
  for (i in w) keyword[w[i]] = 1
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
FNR == 1 {
  depth = 0; quote = ""
  split("", alias)
  s = stem(FILENAME)
  istest = FILENAME ~ /^test\//
  bd = 0; ncall = 0; binder = 0; fileopens = ""; val = ""
  own = (FILENAME ~ /^lib\/.*\.ml$/ && known[modname(s)] == s) ? modname(s) : ""
}
# Records that this file brings lib module [m] into scope unqualified.
function opens(path,   m) {
  m = resolve(path)
  if (m != "" && known[m] != s && !((FILENAME, m) in opened)) {
    opened[FILENAME, m] = 1
    fileopens = fileopens " " m
  }
}
{
  $0 = strip($0)
  if (FILENAME ~ /^lib\/.*\.mli$/) {
    # The optional labels of the [val] this line declares or continues.
    if (match($0, /^[ \t]*(val|type|module|exception|external|include|open|end)([^A-Za-z0-9_'\'']|$)/))
      val = ""
    if (match($0, /^[ \t]*val[ \t]+[a-z_][A-Za-z0-9_'\'']*/)) {
      v = substr($0, RSTART, RLENGTH)
      sub(/^[ \t]*val[ \t]+/, "", v)
      val = modname(s) "." v
      exported[val] = 1
    }
    rest = $0
    while (val != "" && match(rest, /\?[a-z_][A-Za-z0-9_'\'']*[ \t]*:/)) {
      v = substr(rest, RSTART + 1, RLENGTH - 2)
      sub(/[ \t]+$/, "", v)
      optional[val "?" v] = 1
      rest = substr(rest, RSTART + RLENGTH)
    }
  }
  if (FILENAME ~ /\.ml$/ && !istest) calls($0)
  if (match($0, /^[ \t]*module[ \t]+[A-Z][A-Za-z0-9_'\'']*[ \t]*=[ \t]*[A-Z][A-Za-z0-9_'\''.]*[ \t]*$/)) {
    target = $0
    sub(/^[ \t]*module[ \t]+/, "", target)
    name = target; sub(/[ \t]*=.*/, "", name)
    sub(/^[^=]*=/, "", target)
    alias[name] = trim(target)
    next
  }
  # What the file opens, includes or passes to a functor.
  rest = $0
  while (match(rest, /(^|[^A-Za-z0-9_'\''.])(open!?|include|let[ \t]+open!?)[ \t]+[A-Z][A-Za-z0-9_'\''.]*/)) {
    path = substr(rest, RSTART, RLENGTH)
    rest = substr(rest, RSTART + RLENGTH)
    sub(/.*[ \t]/, "", path)
    opens(path)
  }
  rest = $0
  while (match(rest, /[A-Z][A-Za-z0-9_'\'']*(\.[A-Z][A-Za-z0-9_'\'']*)*\.\(/)) {
    path = substr(rest, RSTART, RLENGTH - 2)
    rest = substr(rest, RSTART + RLENGTH)
    opens(path)
  }
  rest = $0
  while (match(rest, /[A-Z][A-Za-z0-9_'\''.]*[ \t]*\([ \t]*[A-Z][A-Za-z0-9_'\''.]*[ \t]*\)/)) {
    path = substr(rest, RSTART, RLENGTH)
    rest = substr(rest, RSTART + RLENGTH)
    sub(/^[^(]*\([ \t]*/, "", path)
    sub(/[ \t]*\)$/, "", path)
    opens(path)
  }
  # Each qualified path mentions the one module it resolves to.
  rest = $0
  while (match(rest, /[A-Z][A-Za-z0-9_'\'']*(\.[A-Z][A-Za-z0-9_'\'']*)*\.[a-z_][A-Za-z0-9_'\'']*/)) {
    path = substr(rest, RSTART, RLENGTH)
    rest = substr(rest, 1, RSTART - 1) " " substr(rest, RSTART + RLENGTH)
    v = path; sub(/.*\./, "", v)
    sub(/\.[^.]*$/, "", path)
    m = resolve(path)
    if (m == "" || known[m] == s) continue
    if (istest) intest[m "." v] = 1
    else qualified[m "." v] = 1
  }
  # The unqualified words, less those in binding and field positions.
  if (match(rest, /^[ \t]*(mutable[ \t]+)?[a-z_][A-Za-z0-9_'\'']*[ \t]*[=:]/))
    rest = substr(rest, RSTART + RLENGTH)
  while (match(rest, /(^|[^A-Za-z0-9_'\''])(let|and|val|fun|mutable)[ \t]+(rec[ \t]+)?[a-z_][A-Za-z0-9_'\'']*/))
    rest = substr(rest, 1, RSTART) " " substr(rest, RSTART + RLENGTH)
  while (match(rest, /([{;]|(^|[^A-Za-z0-9_'\''])with)[ \t]*[a-z_][A-Za-z0-9_'\'']*[ \t]*[=:]/))
    rest = substr(rest, 1, RSTART) " " substr(rest, RSTART + RLENGTH)
  gsub(/[~?.][a-z_][A-Za-z0-9_'\'']*/, " ", rest)
  n = split(rest, w, /[^A-Za-z0-9_'\'']+/)
  for (i = 1; i <= n; i++) {
    k = w[i]
    if (k == "") continue
    if (istest) intest[k] = 1
    else words[FILENAME, k] = 1
  }
}
END {
  for (key in opened) {
    split(key, p, SUBSEP)
    for (name in exported) {
      split(name, q, ".")
      if (q[1] == p[2] && ((p[1], q[2]) in words)) qualified[name] = 1
    }
  }
  for (name in exported) {
    split(name, p, ".")
    v = p[2]
    used = name in qualified
    if (used && (name in allowed))
      print "allowlisted " name " now has a caller outside test/: drop its line"
    else if (!used && !(name in allowed))
      print ((name in intest) || (v in intest) ? "only test/ mentions " : \
        "nothing outside its module mentions ") name
  }
  for (key in optional) {
    split(key, p, "?")
    if (!(p[1] in qualified)) continue
    if ((key in passed) && (key in allowed))
      print "allowlisted " key " is now passed outside test/: drop its line"
    else if (!(key in passed) && !(key in allowed))
      print "no file outside test/ passes ?" p[2] " of " p[1]
  }
  for (name in allowed)
    if (!(name in exported) && !(name in optional))
      print "allowlisted " name " is no longer exported: drop its line"
}' $files | sort)
if [ -n "$report" ]; then
  echo "$report"
  echo "delete such a value or parameter, drop it from its .mli, move its test to the"
  echo "public path, or list it in the allowlist with a # reason"
  exit 1
fi
