#!/usr/bin/env bash
# Unused-export scan: every `val` declared in lib/**/*.mli, those of nested
# `module M : sig ... end` signatures included, must have a caller in the
# .ml files under lib, bench, test or examples outside its own module. A
# caller is an identifier that the type checker resolved to that very
# declaration (scripts/unused_exports/unused_exports.ml reads the .cmt
# files of a build), so it has to reach the export through its module
# path: `Lib.Mod.name`, `Mod.name` inside the library, a `module X = ...`
# alias or an `open`. A namesake elsewhere does not count.
#
# The scanner first runs on scripts/unused_exports/fixture, where two
# libraries each export a `clear` and only one has a caller, and must
# report exactly the other. Then it scans the library, and the script
# exits nonzero if any export has no caller, unless the value is listed
# (as path/to/module.mli:Sub.name) in ALLOW.
#
#   bash scripts/unused_exports.sh
#
# Run from anywhere inside a checkout, with dune on the PATH.
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOW=()

dune build @check ./scripts/unused_exports/unused_exports.exe
build=_build/default
scan=$build/scripts/unused_exports/unused_exports.exe

fixture=scripts/unused_exports/fixture
want="$fixture/b/table.mli: clear has no caller outside its module"
got=$("$scan" "$fixture" "$build/$fixture")
if [ "$got" != "$want" ]; then
  printf 'self-test failed on %s\nwant: %s\ngot:  %s\n' "$fixture" "$want" "$got"
  exit 1
fi

hits=0
while IFS= read -r line; do
  key=${line%% has no caller*}
  for a in "${ALLOW[@]}"; do
    [ "$a" = "${key/: /:}" ] && continue 2
  done
  echo "$line"
  hits=$((hits + 1))
done < <("$scan" lib "$build/lib" "$build/bench" "$build/test" "$build/examples")

if [ "$hits" -gt 0 ]; then
  echo "$hits unused export(s)"
  exit 1
fi
echo "no unused exports"
