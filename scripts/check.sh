#!/usr/bin/env bash
# Tier-1 verify, two flakiness passes, and sanitizer passes over the
# concurrent subsystems. The flakiness passes rerun the socket tests
# alone 20 times, then the whole suite 3 times at twice the core count,
# so races that show only under load fail here too. ThreadSanitizer,
# AddressSanitizer and UndefinedBehaviorSanitizer then cover the
# lane-kernel RNG, the parallel Monte-Carlo engine, the serving layer
# and the network front end. Run from the repo root:
#
#   scripts/check.sh          # tier-1 + both repeats + TSan + ASan + UBSan
#   scripts/check.sh --fast   # tier-1 only
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}

SAN_TARGETS=(test_common_rng test_parallel_mc test_skew_kernel
             test_skew_block test_fault test_resilience_compiled test_obs
             test_serve test_net test_dist)
SAN_REGEX='^test_(common_rng|parallel_mc|skew_kernel|skew_block|fault|resilience_compiled|obs|serve|net|dist)$'

echo "== tier-1: configure, build, ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
(cd build && ctest --output-on-failure -j"$JOBS")

if [[ "${1:-}" == "--fast" ]]; then
    exit 0
fi

echo "== repeat: socket tests 20x, stop at the first failure =="
(cd build && ctest --output-on-failure --repeat until-fail:20 \
    -R '^test_(net|dist)$' -j"$JOBS")

echo "== repeat: full suite 3x at -j $((2 * JOBS)), stop at the first failure =="
(cd build && ctest --output-on-failure --repeat until-fail:3 \
    -j"$((2 * JOBS))")

echo "== TSan: lane RNG + parallel MC engine + skew kernel + fault sweeps + observability + serving + net + dist =="
cmake -B build-tsan -S . -DVSYNC_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$JOBS" --target "${SAN_TARGETS[@]}"
(cd build-tsan && ctest --output-on-failure -R "$SAN_REGEX")

echo "== ASan: same targets under AddressSanitizer =="
cmake -B build-asan -S . -DVSYNC_SANITIZE=address >/dev/null
cmake --build build-asan -j"$JOBS" --target "${SAN_TARGETS[@]}"
(cd build-asan && ctest --output-on-failure -R "$SAN_REGEX")

echo "== UBSan: same targets under UndefinedBehaviorSanitizer =="
cmake -B build-ubsan -S . -DVSYNC_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j"$JOBS" --target "${SAN_TARGETS[@]}"
(cd build-ubsan && ctest --output-on-failure -R "$SAN_REGEX")

echo "== all checks passed =="
