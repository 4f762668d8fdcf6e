#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

For each workload, copies its seed-0 expected values into a scratch
directory under the build dir, changes one value, and runs the
benchmark against the copy: the run must exit non-zero and report
"correct": false with at least one failed check. Runs against an
intact copy, with --trace 0 and 1, must pass and emit exactly the
metrics BENCHMARK.json lists.

  python3 perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(expected_dir, workload, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
           "--expected-dir", expected_dir]
    r = subprocess.run(cmd, capture_output=True, text=True)
    return r.returncode, json.loads(r.stdout.strip().splitlines()[-1])


def metrics_match(result, listed):
    """The result's metrics are exactly BENCHMARK.json's, with units."""
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return got == {m["name"]: m["unit"] for m in listed}


def main():
    scratch = os.path.join(run.build_dir(), "selftest")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for wl in run.WORKLOADS:
        name = "%s-seed0.json" % wl
        shutil.copy(os.path.join(HERE, "expected", name), scratch)
        if wl == "mc4":
            for trace, listed in ((0, spec["end_to_end"]),
                                  (1, spec["per_layer"])):
                rc, res = bench(scratch, wl, trace)
                ok = (rc == 0 and res["correct"] and res["failed"] == 0
                      and metrics_match(res, listed))
                print("%s --trace %d, intact expected values: rc=%d "
                      "correct=%s, metrics as listed in BENCHMARK.json "
                      "-> %s" % (wl, trace, rc, res["correct"],
                                 "ok" if ok else "FAIL"))
                failures += not ok

        path = os.path.join(scratch, name)
        with open(path) as f:
            doc = json.load(f)
        key = sorted(doc["values"])[0]
        doc["values"][key] += 1
        with open(path, "w") as f:
            json.dump(doc, f)
        rc, res = bench(scratch, wl)
        ok = rc != 0 and not res["correct"] and res["failed"] >= 1
        print("%s with %s corrupted: rc=%d correct=%s failed=%d -> %s" % (
            wl, key, rc, res["correct"], res["failed"],
            "ok" if ok else "FAIL"))
        failures += not ok
    shutil.rmtree(scratch)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
