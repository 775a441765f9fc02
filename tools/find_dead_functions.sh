#!/usr/bin/env bash
# find_dead_functions.sh — lists library functions that no executable
# links (tests, tools, benches, examples and perfbench), as candidates for
# deleting dead code, and then the library functions that only the test
# binary links: code that no program runs, kept alive by its own tests.
#
# Usage: tools/find_dead_functions.sh <scratch-dir>
#
# Builds both CMake projects (the repo and perfbench/) under
# <scratch-dir>/main and <scratch-dir>/perf in Debug, with one section per
# function and section GC at link time, so an executable keeps exactly the
# functions it can reach and inlining does not hide callers. Then it diffs
# the functions the libraries define against those the executables kept
# (<scratch-dir>/unlinked.txt), greps each unlinked name over the sources,
# and prints each unlinked function after its hit count, fewest first.
# Names with two or three hits (a declaration, a definition, a comment)
# are the candidates. The test-only list (<scratch-dir>/test_only.txt)
# follows in the same form.
#
# Every line still needs a look by hand before deletion: the compiler may
# have inlined a caller, common spellings (reset, clear, combine) hit
# everywhere, so grep `Class::name` and its call sites on that type, and a
# function whose only callers are themselves unlinked shows up with more
# hits. Linking sees whole functions only: a branch no caller reaches
# inside a live function never shows up here. Two extra Debug builds make
# this too slow for CI; run it by hand.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <scratch-dir>" >&2
  exit 2
fi
G=$(mkdir -p "$1" && cd "$1" && pwd)
REPO=$(cd "$(dirname "$0")/.." && pwd)

FLAGS=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS=-ffunction-sections
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
cmake -S "$REPO" -B "$G/main" "${FLAGS[@]}" > "$G/main.log"
cmake --build "$G/main" -j4 >> "$G/main.log"
cmake -S "$REPO/perfbench" -B "$G/perf" "${FLAGS[@]}" > "$G/perf.log"
cmake --build "$G/perf" -j4 >> "$G/perf.log"

syms() {
  nm -C --defined-only "$@" 2>/dev/null |
    awk '$2 == "T" { $1 = $2 = ""; print substr($0, 3) }' | sort -u
}
TESTS="$G/main/tests/slider_tests"
syms $(find "$G/main/src" -name 'libslider_*.a') > "$G/lib.txt"
syms "$TESTS" > "$G/test.txt"
syms $(find "$G/main" "$G/perf" -type f -perm -u+x ! -name '*.so' \
         ! -path '*/CMakeFiles/*' ! -path "$TESTS") > "$G/program.txt"
sort -u "$G/test.txt" "$G/program.txt" |
  comm -23 "$G/lib.txt" - > "$G/unlinked.txt"
comm -12 "$G/lib.txt" "$G/test.txt" |
  comm -23 - "$G/program.txt" > "$G/test_only.txt"

# Prints each function of the list after its hit count over the sources.
ranked() {
  while read -r signature; do
    f=$(sed 's/(.*//; s/\[abi:[^]]*\]//g; s/.*:://' <<< "$signature")
    n=$( (grep -rwnF --include='*.cc' --include='*.h' --include='*.cpp' \
           -- "$f" "$REPO/src" "$REPO/tests" "$REPO/tools" "$REPO/bench" \
           "$REPO/examples" "$REPO/perfbench" || true) | wc -l)
    echo "$n $signature"
  done < "$1" | sort -n | head -40
}
echo "== linked by no executable ($(wc -l < "$G/unlinked.txt"))"
ranked "$G/unlinked.txt"
echo "== linked only by the test binary ($(wc -l < "$G/test_only.txt"))"
ranked "$G/test_only.txt"
