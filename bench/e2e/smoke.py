#!/usr/bin/env python3
"""psp-e2e smoke: one short low-rate trial per UDP workload plus a short DES
slice, traced and untraced, in well under 15 s. Passes when psp_e2e exits 0
(every correctness check held) and its result names every metric
BENCHMARK.json declares, for every workload.

    python3 bench/e2e/smoke.py bench/e2e/build/psp_e2e
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                         "BENCHMARK.json")


def main():
    binary = sys.argv[1]
    with open(BENCHMARK) as f:
        bench = json.load(f)
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [binary, "--workload", "all", "--smoke", "--seconds", "0.5",
             "--trace", "1", "--out", out],
            stdout=subprocess.PIPE, text=True, timeout=60)
    print(proc.stdout)
    if proc.returncode != 0:
        print("smoke: psp_e2e exited %d" % proc.returncode)
        return 1
    reported = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    missing = []
    for workload in bench["workloads"]:
        for metric in bench["end_to_end"] + bench["per_layer"]:
            key = "%s/%s" % (workload["name"], metric["name"])
            if key not in reported or reported[key]["value"] is None:
                missing.append(key)
            elif reported[key]["unit"] != metric["unit"]:
                missing.append(key + " (unit %s, declared %s)" % (
                    reported[key]["unit"], metric["unit"]))
    for key in missing:
        print("smoke: not reported: " + key)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
