#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite.
#
# Usage:
#   scripts/verify.sh                               # legacy: build/ dir, default build type
#   scripts/verify.sh [build-dir]                   # legacy: custom build dir
#   scripts/verify.sh --preset <name> [cmake args]  # CMakePresets.json preset
#   scripts/verify.sh --preset <name> --simd-sweep  # + full ctest once per
#                                                   #   available SIMD level
#
# Presets (release | debug | asan | tsan) are exactly what
# .github/workflows/ci.yml runs, so `scripts/verify.sh --preset asan`
# reproduces the CI sanitizer leg locally and `--preset tsan` the
# ThreadSanitizer leg (its test preset filters to kernels_test, net_test,
# transport_test, membership_test, obs_test, train_test — the trace rings
# and the threaded PSGD server/worker pumps are concurrent structures
# tsan must bless — simnet_test, sim_smoke, the multi-process
# churn_smoke, and the `layering` include-order check).
# The release/debug/asan presets run the FULL suite, which includes the
# train_test unit suite plus the multi-process train_smoke_{bsp,tap,ssp}
# and train_churn_smoke cluster tests.
# Extra arguments after the preset name are forwarded to the configure
# step (e.g. -DCMAKE_CXX_COMPILER_LAUNCHER=ccache).
#
# --simd-sweep re-runs the suite once per SIMD dispatch level this host
# can execute (ASYNCIT_SIMD=scalar always; avx2/avx512 per /proc/cpuinfo
# on x86-64, neon on aarch64) — the CI ISA-sweep leg, runnable locally.
set -euo pipefail

cd "$(dirname "$0")/.."
REPO_ROOT="$(pwd)"

SIMD_SWEEP=0
ARGS=()
for a in "$@"; do
  if [[ "$a" == "--simd-sweep" ]]; then SIMD_SWEEP=1; else ARGS+=("$a"); fi
done
set -- ${ARGS[@]+"${ARGS[@]}"}

# SIMD dispatch levels this host can execute — shared helper (also used
# by the CI tsan job); scripts/simd_levels.sh documents the authoritative
# C++ predicate it mirrors. Absolute path: the legacy branch below cds
# into the build directory before sweeping.
simd_levels() { "$REPO_ROOT/scripts/simd_levels.sh"; }

if [[ "${1:-}" == "--preset" ]]; then
  PRESET="${2:?usage: scripts/verify.sh --preset <release|debug|asan|tsan> [--simd-sweep] [cmake args]}"
  shift 2
  cmake --preset "$PRESET" "$@"
  cmake --build --preset "$PRESET" -j "$(nproc)"
  if [[ "$SIMD_SWEEP" == 1 ]]; then
    # The sweep covers every level including the auto-detected best, so
    # a separate default-level pass would only repeat one of its legs.
    # ASYNCIT_SIMD_REQUIRE makes dispatcher fallback FATAL (kernels_test):
    # a detection regression must fail the leg, not degrade it to scalar.
    for lvl in $(simd_levels); do
      echo "== ISA sweep: full suite with ASYNCIT_SIMD=$lvl =="
      ASYNCIT_SIMD="$lvl" ASYNCIT_SIMD_REQUIRE="$lvl" \
        ctest --preset "$PRESET" -j "$(nproc)"
    done
  else
    ctest --preset "$PRESET" -j "$(nproc)"
  fi
else
  BUILD_DIR="${1:-build}"
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j
  cd "$BUILD_DIR"
  if [[ "$SIMD_SWEEP" == 1 ]]; then
    for lvl in $(simd_levels); do
      echo "== ISA sweep: full suite with ASYNCIT_SIMD=$lvl =="
      ASYNCIT_SIMD="$lvl" ASYNCIT_SIMD_REQUIRE="$lvl" \
        ctest --output-on-failure -j
    done
  else
    ctest --output-on-failure -j
  fi
fi
