#!/usr/bin/env bash
# Regenerates everything: build, tests, every figure/table bench, micro
# benches — archiving outputs to test_output.txt and bench_output.txt at the
# repo root. Usage: scripts/run_all.sh [build-dir]
set -u
BUILD=${1:-build}
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

cmake -B "$BUILD"
cmake --build "$BUILD"

ctest --test-dir "$BUILD" 2>&1 | tee "$ROOT/test_output.txt"

{
  for b in "$BUILD"/bench/*; do
    if [ -x "$b" ] && [ ! -d "$b" ]; then
      echo "===================================================================="
      echo "== $(basename "$b")"
      echo "===================================================================="
      "$b"
      echo
    fi
  done
} 2>&1 | tee "$ROOT/bench_output.txt"
