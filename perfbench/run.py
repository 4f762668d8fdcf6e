#!/usr/bin/env python3
"""Benchmark entry point for the freeatomics simulator.

Builds fa_perfbench (fa_perfbench.cc in this directory) and the freeatomics
library from source in Release mode, then runs one workload and
passes its output through. The last line of stdout is
fa_perfbench's JSON result; the exit status is fa_perfbench's.

  python3 perfbench/run.py --workload fig14 --seed 0 --seconds 20 --trace 0
  python3 perfbench/run.py --workload race64 --trace 1      # per-layer run
  python3 perfbench/run.py --workload all --steady 5        # spread vs bound
  python3 perfbench/run.py --workload mc4 --seed 0 --record # expected values

Expected values live in perfbench/expected/<workload>-seed<N>.json; a
seed without a file gets the self-consistency checks only. The build
goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig14", "race64", "mc4"]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure and build; the log stays in the build dir."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(bdir, "fa_perfbench")


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
    except OSError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def perfbench_cmd(exe, args, workload, seed, trace):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--commit", commit()]
    name = "%s-seed%d.json" % (workload, seed)
    expected = os.path.join(args.expected_dir, name)
    if os.path.exists(expected):
        cmd += ["--expected", expected]
    if args.record:
        cmd += ["--record", os.path.join(HERE, "expected", name)]
    if trace:
        cmd += ["--spans", os.path.join(build_dir(), "spans-" + name)]
    return cmd


def parse_metrics(stdout):
    """Every 'name value unit' line fa_perfbench printed."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and not line.startswith(("#", "{")):
            try:
                out[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return out


def steady(exe, args, workloads):
    """Run each workload --steady times (seeds --seed, --seed+1, ...)
    and print each metric's median, quartiles and spread."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound")
                  for m in json.load(f)["end_to_end"]}
    ok = True
    for wl in workloads:
        runs = []
        for i in range(args.steady):
            cmd = perfbench_cmd(exe, args, wl, args.seed + i, args.trace)
            r = subprocess.run(cmd, capture_output=True, text=True)
            if r.returncode:
                ok = False
                sys.stderr.write(r.stderr)
            runs.append(parse_metrics(r.stdout))
            print("# %s seed %d: %s" % (wl, args.seed + i, " ".join(
                "%s=%.6g" % (k, v[0]) for k, v in sorted(runs[-1].items())
                if k in bounds or args.trace)), flush=True)
        print("%-8s %-32s %-10s %12s %12s %12s %8s %6s" % (
            "workload", "metric", "unit", "median", "q1", "q3",
            "spread", "bound"))
        for name, (_, unit) in runs[0].items():
            vals = [m[name][0] for m in runs if name in m]
            q1, med, q3 = (statistics.quantiles(vals, n=4)
                           if len(vals) > 1 else (vals[0],) * 3)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print("%-8s %-32s %-10s %12.6g %12.6g %12.6g %8.4f %6s" % (
                wl, name, unit, med, q1, q3, spread,
                "-" if bound is None else bound), flush=True)
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   help="|".join(WORKLOADS) + ", or 'all' with --steady")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N",
                   help="run each workload N times and print spreads")
    p.add_argument("--record", action="store_true",
                   help="write this seed's exact outputs as expected")
    p.add_argument("--expected-dir", default=os.path.join(HERE, "expected"))
    args = p.parse_args()

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if any(w not in WORKLOADS for w in workloads) or (
            len(workloads) > 1 and not args.steady):
        p.error("unknown workload '%s'" % args.workload)
    exe = build()
    if args.steady:
        return steady(exe, args, workloads)
    sys.stdout.flush()
    return subprocess.run(perfbench_cmd(exe, args, workloads[0], args.seed,
                                     args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
