#!/usr/bin/env bash
# Streaming race + crash-safety check: configure a ThreadSanitizer build
# in build-tsan/, build the stream, fault, introspection, io and
# serial/parallel equivalence suites, and run
# `ctest -L 'stream|fault|introspect|io|par'` under it. The sharded
# ingestor's lock striping, the bounded thread-pool queue, the
# classify-all pass, the snapshot write/restore paths with injected
# faults, the embedded stats server scraping live metric traffic,
# the columnar trace codecs feeding the bulk ingest path (and the
# ctb_fuzz driver, which carries the io label), and the pooled
# analytics core writing its preallocated rows are the intended targets
# (DESIGN.md §7, §8, §9, and §10); any data race or
# crash-safety violation fails the run.
#
# Usage:
#   scripts/check_stream.sh            # configure (once), build, run
#   CELLSCOPE_TSAN_BUILD_DIR=... scripts/check_stream.sh
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${CELLSCOPE_TSAN_BUILD_DIR:-${repo_root}/build-tsan}"

# Configure every run: a no-op on a warm cache, and it picks up new
# targets after CMakeLists changes.
cmake -B "${build_dir}" -S "${repo_root}" -DCELLSCOPE_SANITIZE=thread

cmake --build "${build_dir}" -j --target test_stream --target test_obs \
  --target test_fault --target snapshot_fuzz --target test_introspect \
  --target test_io --target ctb_fuzz --target test_parallel

echo "check_stream: running ctest -L 'stream|fault|introspect|io|par' under ThreadSanitizer"
ctest --test-dir "${build_dir}" -L 'stream|fault|introspect|io|par' \
  --output-on-failure
