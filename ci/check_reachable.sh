#!/usr/bin/env bash
# Fails when a project library defines a function that no product binary
# keeps and no allow-list line roots.
#
# Product binaries are every executable built under bench/ and examples/
# plus bench/e2e's explainti_e2e; tests are not products. The guard
# builds them at -O0 (so inlining cannot hide a caller) with
# -ffunction-sections and links with --gc-sections, so a binary keeps
# exactly the functions it can reach. Every global text symbol (`nm` T)
# in the explainti:: namespace of the static libraries under src/ must
# then appear in at least one product binary, or be reached from a root
# in ci/reachable_allowlist.txt. Roots are linked into one extra binary
# through -Wl,--undefined, so the callees of a root count as reached and
# need no line of their own.
#
# The allow-list must stay minimal: a line whose name matches no library
# symbol, or whose symbols a product binary already keeps, fails. The
# guard then checks itself: with each allow-list line dropped in turn, it
# must fail and name that line's symbol.
#
#   ci/check_reachable.sh
#
# Builds into build-ci-reach/ (incremental on later runs).

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
ALLOWLIST="$ROOT/ci/reachable_allowlist.txt"
BUILD="$ROOT/build-ci-reach"
JOBS="${CI_PARALLEL_JOBS:-$(nproc)}"

FLAGS=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

echo "check_reachable: building product binaries at -O0 in ${BUILD#"$ROOT/"}"
cmake -B "$BUILD" -S "$ROOT" -G "Unix Makefiles" "${FLAGS[@]}" >/dev/null
make -s -C "$BUILD/bench" -j "$JOBS" >/dev/null
make -s -C "$BUILD/examples" -j "$JOBS" >/dev/null
cmake -B "$BUILD/e2e" -S "$ROOT/bench/e2e" -G "Unix Makefiles" \
  "${FLAGS[@]}" >/dev/null
cmake --build "$BUILD/e2e" --target explainti_e2e -j "$JOBS" >/dev/null
# Roots link with the compiler the libraries were built with.
CXX_BIN=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$BUILD/CMakeCache.txt")

mapfile -t LIBS < <(find "$BUILD/src" -name 'libexplainti_*.a' | sort)
mapfile -t BINS < <({ find "$BUILD/bench" "$BUILD/examples" -maxdepth 1 \
                        -type f -perm -u+x
                      echo "$BUILD/e2e/explainti_e2e"; } | sort)
if [ "${#LIBS[@]}" -eq 0 ] || [ "${#BINS[@]}" -le 1 ]; then
  echo "check_reachable: no libraries or product binaries found" >&2
  exit 1
fi
echo "check_reachable: ${#LIBS[@]} libraries, ${#BINS[@]} product binaries"

WORK="$BUILD/reach"
mkdir -p "$WORK"

# Library text symbols as "mangled<TAB>demangled", explainti:: only.
nm --defined-only "${LIBS[@]}" 2>/dev/null \
  | awk '$2 == "T" { print $3 }' | sort -u > "$WORK/mangled.txt"
c++filt < "$WORK/mangled.txt" > "$WORK/demangled.txt"
paste "$WORK/mangled.txt" "$WORK/demangled.txt" \
  | awk -F'\t' '$2 ~ /^explainti::/' > "$WORK/defined.tsv"

# Symbols a product binary keeps. Names are compared mangled: nm -C and
# c++filt spell some types differently (std::ostream).
nm --defined-only "${BINS[@]}" 2>/dev/null | awk 'NF == 3 { print $3 }' \
  | sort -u > "$WORK/kept.txt"

echo 'int main() { return 0; }' > "$WORK/main.cc"

# check ALLOWLIST_FILE: prints every unreached symbol and every stale or
# redundant allow-list line; returns non-zero if there is any.
check() {
  local allow="$1" bad=0 root mangled demangled
  local -a undefined=()
  while IFS= read -r line; do
    line="${line%%#*}"
    read -r root reason <<< "$line" || true
    [ -z "${root:-}" ] && continue
    if [ -z "${reason:-}" ]; then
      echo "NO REASON: $root (allow-list lines are '<name> <reason>')"
      bad=1
      continue
    fi
    # A root names a function: every overload, with or without an ABI tag.
    awk -F'\t' -v r="$root" \
      'index($2, r "(") == 1 || index($2, r "[abi:") == 1 || $2 == r' \
      "$WORK/defined.tsv" > "$WORK/match.tsv"
    if [ ! -s "$WORK/match.tsv" ]; then
      echo "STALE: $root (names no library symbol)"
      bad=1
      continue
    fi
    if grep -qvxFf "$WORK/kept.txt" <(cut -f1 "$WORK/match.tsv"); then
      while IFS=$'\t' read -r mangled demangled; do
        undefined+=("-Wl,--undefined=$mangled")
      done < "$WORK/match.tsv"
    else
      echo "REDUNDANT: $root (a product binary already keeps it)"
      bad=1
    fi
  done < "$allow"

  cp "$WORK/kept.txt" "$WORK/reached.txt"
  if [ "${#undefined[@]}" -gt 0 ]; then
    "$CXX_BIN" -O0 -ffunction-sections -fdata-sections -Wl,--gc-sections \
      "$WORK/main.cc" "${undefined[@]}" \
      -Wl,--start-group "${LIBS[@]}" -Wl,--end-group -pthread \
      -o "$WORK/allowlisted" || return 1
    nm --defined-only "$WORK/allowlisted" | awk 'NF == 3 { print $3 }' \
      >> "$WORK/reached.txt"
  fi

  local unreached
  unreached=$(awk -F'\t' 'NR == FNR { reached[$1]; next }
                         !($1 in reached) { print $2 }' \
                "$WORK/reached.txt" "$WORK/defined.tsv" | sort -u)
  if [ -n "$unreached" ]; then
    while IFS= read -r sym; do
      echo "UNREACHED: $sym"
    done <<< "$unreached"
    bad=1
  fi
  return "$bad"
}

if ! check "$ALLOWLIST" >&2; then
  echo "check_reachable: FAILED — give each UNREACHED symbol a product" \
       "caller, move it to tests/, delete it, or add a" \
       "ci/reachable_allowlist.txt line with its reason" >&2
  exit 1
fi
total=$(cut -f2 "$WORK/defined.tsv" | sort -u | wc -l)
echo "check_reachable: $total library symbols, each kept by a product" \
     "binary or reached from an allow-listed root"

# Self-check: dropping any one allow-list line must fail and name it.
n=0
while IFS= read -r line; do
  n=$((n + 1))
  entry="${line%%#*}"
  read -r root _ <<< "$entry" || true
  [ -z "${root:-}" ] && continue
  sed "${n}d" "$ALLOWLIST" > "$WORK/allow_minus_one.txt"
  if check "$WORK/allow_minus_one.txt" > "$WORK/self_check.out"; then
    echo "check_reachable: self-check FAILED — the guard passes without" \
         "the allow-list line for $root" >&2
    exit 1
  fi
  if ! grep -qF -e "UNREACHED: $root(" -e "UNREACHED: $root[abi:" \
         "$WORK/self_check.out"; then
    echo "check_reachable: self-check FAILED — without its line, $root" \
         "is not reported" >&2
    cat "$WORK/self_check.out" >&2
    exit 1
  fi
  echo "self-check: without its line, $root is reported UNREACHED"
done < "$ALLOWLIST"
echo "check_reachable: OK"
