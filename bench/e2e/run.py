#!/usr/bin/env python3
"""Builds the psp-e2e benchmark from this checkout and runs it.

    python3 bench/e2e/run.py --workload udp-bimodal --seed 1 --seconds 25 --trace 0

The first run configures bench/e2e (which compiles the repository's src/)
into bench/e2e/build; later runs rebuild incrementally, which is a no-op when
nothing changed. Build output goes to stderr, so the last line of stdout is
still the benchmark's JSON result. Every argument is passed to psp_e2e (see
bench/e2e/main.cc), and reports land in bench/e2e/out.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no repository sources at %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "psp_e2e", "psp_e2e_server"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build step failed: %s" % " ".join(step))


def main():
    build()
    binary = os.path.join(BUILD, "psp_e2e")
    # exec keeps psp_e2e the direct child of the caller; it starts, waits for
    # and reaps every server process itself.
    os.execv(binary, [binary, "--out", OUT] + sys.argv[1:])


if __name__ == "__main__":
    main()
