#!/usr/bin/env bash
# Per-file line coverage of src/**/*.cpp with plain gcov, lowest first,
# then the total, then the src/ .cpp/.hpp line count (so a change's size
# shows next to its coverage). Reports only: no threshold, exit 0 once
# printed.
#
# Build with coverage instrumentation and run the suite first:
#   cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
#     -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
#   cmake --build build-cov -j
#   ctest --test-dir build-cov -j
#
# Usage: tools/coverage_report.sh [build-dir]   (run from the repo root)
set -euo pipefail

BUILD=${1:-build-cov}
OBJ="$BUILD/src/CMakeFiles/qserv.dir"
[ -d "$OBJ" ] || { echo "missing $OBJ (configure and build first)"; exit 2; }

# One "<percent> <lines> src/<file>" row per source. gcov prints a
# "File '...'" / "Lines executed:P% of N" pair for the .cpp and for every
# header it pulled in; keep the .cpp's own pair. A source no test ran has
# no .gcda, which gcov reports as 0% of its lines.
rows=$(for src in $(cd src && find . -name '*.cpp' | sed 's|^\./||'); do
  gcov -n -o "$OBJ/$src.o" "src/$src" 2>/dev/null |
    awk -v want="src/$src'" '
      /^File / { keep = index($0, want) > 0 }
      keep && /^Lines executed:/ {
        sub(/^Lines executed:/, ""); sub(/% of /, " ")
        print $0, substr(want, 1, length(want) - 1); exit
      }'
done)

echo "$rows" | sort -n | awk '{ printf "%7.2f%%  %5d  %s\n", $1, $2, $3 }'
# Two totals: over every source, and over the sources some test ran
# (a source no test binary links stays at 0% and drags the first down).
echo "$rows" | awk '{ hit += $1 * $2 / 100; all += $2 }
  $1 > 0 { ran_hit += $1 * $2 / 100; ran += $2 }
  END { printf "%7.2f%%  %5d  total\n", 100 * hit / all, all
        printf "%7.2f%%  %5d  total over sources some test ran\n",
               100 * ran_hit / ran, ran }'
# Physical lines of every src/ .cpp and .hpp, blank and comment included.
find src \( -name '*.cpp' -o -name '*.hpp' \) -print0 | xargs -0 cat |
  wc -l | awk '{ printf "          %5d  src/ .cpp/.hpp lines\n", $1 }'
