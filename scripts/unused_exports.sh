#!/usr/bin/env bash
# Crude unused-export scan: for every `val` declared in lib/**/*.mli, look
# for the name as a whole word in the .ml/.mli files under lib, bench,
# test and examples, the declaring module's own .ml and .mli excluded. A
# value with no such caller is reported, and the script exits nonzero if
# any is, unless the value is listed (as path/to/module.mli:name) in ALLOW.
#
#   bash scripts/unused_exports.sh
#
# Run from anywhere inside a checkout of the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOW=()

mapfile -t sources < <(find lib bench test examples -name '*.ml' -o -name '*.mli' | sort)

hits=0
for mli in $(find lib -name '*.mli' | sort); do
  others=()
  for f in "${sources[@]}"; do
    [ "$f" = "$mli" ] || [ "$f" = "${mli%i}" ] || others+=("$f")
  done
  for name in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    grep -qw -- "$name" "${others[@]}" && continue
    for a in "${ALLOW[@]}"; do
      [ "$a" = "$mli:$name" ] && continue 2
    done
    echo "$mli: $name has no caller outside its module"
    hits=$((hits + 1))
  done
done

if [ "$hits" -gt 0 ]; then
  echo "$hits unused export(s)"
  exit 1
fi
echo "no unused exports"
