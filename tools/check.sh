#!/usr/bin/env bash
# Full verification matrix: tier-1 tests, the three sanitizer builds over the
# concurrency-sensitive subset, the device memory-model checker validation
# suite (with the checker force-enabled through the environment), the
# telemetry stage (the `telemetry` ctest: a short traced quench run whose
# Chrome-trace span names and NDJSON step log are validated, plus the
# bench_compare self-test),
# and the static stage: landau-lint over the annotated kernel layer plus
# clang-tidy when available.
#
# Usage: tools/check.sh [build-dir]   (default: build-check)
#
# Each stage is independent; the script stops at the first failure. Expect
# the whole matrix to take a while on one core — the sanitizer stages each
# rebuild the library.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD=${1:-build-check}
JOBS=${JOBS:-2}

echo "== tier-1: full test suite (${BUILD}) =="
cmake -S . -B "${BUILD}" >/dev/null
cmake --build "${BUILD}" -j "${JOBS}"
ctest --test-dir "${BUILD}" --output-on-failure

echo "== analysis: device memory-model checker (LANDAU_CHECK_DEVICE=1) =="
LANDAU_CHECK_DEVICE=1 ctest --test-dir "${BUILD}" -L analysis --output-on-failure

echo "== telemetry: traced quench run + schema validation =="
if command -v python3 >/dev/null 2>&1; then
  # The same ctest runs in the tier-1 stage; repeated here so the stage
  # reports on its own (tests/check_telemetry.py).
  ctest --test-dir "${BUILD}" -L telemetry --output-on-failure
  python3 tools/bench_compare.py --self-test
else
  echo "python3 not installed: skipped"
fi

for SAN in thread address undefined; do
  echo "== sanitize: ${SAN} =="
  cmake -S . -B "${BUILD}-${SAN}" -DLANDAU_SANITIZE="${SAN}" >/dev/null
  cmake --build "${BUILD}-${SAN}" -j "${JOBS}" --target landau_sanitize_tests
  ctest --test-dir "${BUILD}-${SAN}" -L sanitize --output-on-failure
done

echo "== static: landau-lint + clang-tidy =="
LINT_KERNELS="skipped (python3 not installed)"
CLANG_TIDY="skipped (clang-tidy not installed)"
if command -v python3 >/dev/null 2>&1; then
  cmake --build "${BUILD}" --target lint-kernels
  LINT_KERNELS="clean"
fi
if command -v clang-tidy >/dev/null 2>&1; then
  cmake --build "${BUILD}" --target lint
  CLANG_TIDY="clean"
fi
echo "static: landau-lint ${LINT_KERNELS}, clang-tidy ${CLANG_TIDY}"

echo "== all checks passed =="
