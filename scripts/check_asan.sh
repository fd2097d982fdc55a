#!/usr/bin/env bash
# Memory-safety check: configure an AddressSanitizer + UndefinedBehavior-
# Sanitizer build in build-asan/, build the serving, introspection, obs
# and trace I/O test suites and the seeded fuzz drivers, and run
# `ctest -L 'server|introspect|obs|io|fuzz'` under it. The intended
# targets are everything that parses untrusted bytes — from a socket (the
# HTTP request parser, POST /classify's JSON body, which json_fuzz
# mutates byte by byte) or from a trace file (the CSV reader, the
# columnar .ctb reader, its bit-flip/truncation sweeps and the ctb_fuzz
# driver's damage behind resealed CRCs) — and the
# connection lifetime in the worker pool; any out-of-bounds access,
# use-after-free, leak, or undefined behavior fails the run.
#
# Usage:
#   scripts/check_asan.sh              # configure (once), build, run
#   CELLSCOPE_ASAN_BUILD_DIR=... scripts/check_asan.sh
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${CELLSCOPE_ASAN_BUILD_DIR:-${repo_root}/build-asan}"

# Configure every run: a no-op on a warm cache, and it picks up new
# targets after CMakeLists changes.
cmake -B "${build_dir}" -S "${repo_root}" \
  -DCELLSCOPE_SANITIZE=address,undefined

cmake --build "${build_dir}" -j --target test_server --target test_introspect \
  --target test_obs --target test_io --target json_fuzz --target ctb_fuzz

# Findings already fail the run (-fno-sanitize-recover); add the stacks.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"

echo "check_asan: running ctest -L 'server|introspect|obs|io|fuzz' under ASan+UBSan"
ctest --test-dir "${build_dir}" -L 'server|introspect|obs|io|fuzz' \
  --output-on-failure
