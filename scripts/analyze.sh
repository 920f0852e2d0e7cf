#!/usr/bin/env bash
# Static analyzer + sanitizer matrix. Everything detects-and-skips: the repo
# must stay fully checkable on a GCC-only box (where only the sanitizer tiers
# run) while a Clang box additionally gets -Werror=thread-safety, clang-tidy,
# and MSan.
#
# Tiers (consistent build-<mode> tree naming):
#   clang-tidy            changed files vs origin/main (ANALYZE_ALL=1 for all)
#                         against build/compile_commands.json
#   thread-safety         Clang configure in build-clang: the GUARDED_BY /
#                         REQUIRES / capability annotations become errors
#   asan  (build-asan)    ASan+UBSan, full ctest
#   tsan  (build-tsan)    TSan, the suites that spawn threads (runner, obs)
#   msan  (build-msan)    Clang-only, best-effort: without an MSan-
#                         instrumented libc++ false positives are possible,
#                         so failures WARN rather than fail the script
#
# Usage: analyze.sh [--tidy-only]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
TIDY_ONLY=0
[[ "${1:-}" == "--tidy-only" ]] && TIDY_ONLY=1

# --- clang-tidy ------------------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy =="
  cmake -B build -S . > /dev/null   # exports build/compile_commands.json
  if [[ "${ANALYZE_ALL:-0}" == "1" ]]; then
    mapfile -t files < <(git ls-files 'src/*.cc' 'bench/*.cc' 'tests/*.cc')
  else
    # Changed-or-all: files touched relative to the merge base when one
    # exists, everything otherwise (fresh clones, detached CI checkouts).
    base="$(git merge-base HEAD origin/main 2>/dev/null || true)"
    if [[ -n "${base}" ]]; then
      mapfile -t files < <(git diff --name-only "${base}" -- 'src/*.cc' 'bench/*.cc' 'tests/*.cc')
    else
      mapfile -t files < <(git ls-files 'src/*.cc' 'bench/*.cc' 'tests/*.cc')
    fi
  fi
  if [[ "${#files[@]}" -gt 0 ]]; then
    clang-tidy -p build --quiet "${files[@]}"
  else
    echo "clang-tidy: no changed sources"
  fi
else
  echo "== clang-tidy not installed, skipping =="
fi

# --- Clang thread-safety analysis ------------------------------------------
if command -v clang++ >/dev/null 2>&1; then
  echo "== thread-safety analysis (clang, -Werror=thread-safety) =="
  cmake -B build-clang -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build build-clang -j"${JOBS}"
else
  echo "== clang++ not installed, skipping thread-safety analysis =="
fi

[[ "${TIDY_ONLY}" == "1" ]] && { echo "analyze.sh: tidy-only OK"; exit 0; }

# --- sanitizer matrix ------------------------------------------------------
echo "== ASan+UBSan (build-asan) =="
cmake -B build-asan -S . -DBUNDLER_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build-asan -j"${JOBS}"
(cd build-asan && ctest --output-on-failure -j"${JOBS}")

echo "== TSan (build-tsan): suites that spawn threads =="
cmake -B build-tsan -S . -DBUNDLER_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build-tsan -j"${JOBS}" --target runner_test obs_test
(cd build-tsan && ctest --output-on-failure --no-tests=error -R \
  'runner_test|obs_test')

if command -v clang++ >/dev/null 2>&1; then
  echo "== MSan (build-msan, clang, best-effort) =="
  if cmake -B build-msan -S . -DCMAKE_CXX_COMPILER=clang++ \
       -DBUNDLER_SANITIZE=memory -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null \
     && cmake --build build-msan -j"${JOBS}" \
     && (cd build-msan && ctest --output-on-failure -j"${JOBS}"); then
    echo "msan: OK"
  else
    echo "msan: WARN — failures are advisory without an MSan-instrumented libc++"
  fi
else
  echo "== MSan requires clang++, skipping =="
fi

echo "analyze.sh: OK"
