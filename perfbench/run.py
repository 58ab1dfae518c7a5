#!/usr/bin/env python3
"""Build and run the incdb end-to-end workload benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload analytic --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --self-test

The first call configures and builds the engine library (../src) and the
driver with CMake, in Release mode, under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls rebuild only what changed.
Build output goes to stderr, so the last line of stdout is the driver's
JSON result. The exit status is the driver's: 0 when every output check
passed, 1 when one failed, 2 when the build, the set-up or the arguments
failed.

--self-test runs every workload in short mode (a fixed, tiny operation
count) with and without tracing, and checks that every metric named in
BENCHMARK.json is printed with its unit, that all output checks pass, that
every per-layer metric has an entry in perfbench/metric_map.json, and that
the run checksum repeats for a seed and changes with it.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SELF_TEST_OPS = 48


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=False)
        if cfg.returncode != 0:
            sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    made = subprocess.run(
        ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=False)
    if made.returncode != 0:
        sys.exit(2)
    return os.path.join(bdir, "perfbench")


def driver_args(workload, seed, seconds, trace, max_ops=0):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if max_ops:
        args += ["--max-ops", str(max_ops)]
    if trace:
        args += ["--spans-out",
                 os.path.join(build_dir(), "spans-%s.tsv" % workload)]
    return args


def run_captured(binary, args):
    """Runs the driver; returns (exit code, stdout lines)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          universal_newlines=True, check=False)
    return proc.returncode, proc.stdout.splitlines()


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metric_map.json")) as f:
        metric_map = json.load(f)
    failures = []
    for name in (m["name"] for m in bench["per_layer"]):
        if name not in metric_map["per_layer"]:
            failures.append("metric_map.json lacks per-layer metric %s" % name)
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    checksums = {}
    for w in (wl["name"] for wl in bench["workloads"]):
        for trace in (0, 1):
            code, lines = run_captured(
                binary, driver_args(w, 11, 60, trace, SELF_TEST_OPS))
            label = "%s --trace %d" % (w, trace)
            if code != 0 or not lines:
                failures.append("%s: exit %d" % (label, code))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                failures.append("%s: output checks failed" % label)
            if result["attempted"] < SELF_TEST_OPS:
                failures.append("%s: only %d ops attempted" %
                                (label, result["attempted"]))
            got = result["metrics"]
            printed = {l.split()[1]: l.split()[3] for l in lines
                       if l.startswith("metric ")}
            for m in expected[trace]:
                if m["name"] not in got:
                    failures.append("%s: metric %s missing" % (label, m["name"]))
                elif got[m["name"]]["unit"] != m["unit"]:
                    failures.append("%s: metric %s has unit %s, not %s" % (
                        label, m["name"], got[m["name"]]["unit"], m["unit"]))
                elif printed.get(m["name"]) != m["unit"]:
                    failures.append("%s: metric %s not printed with its unit"
                                    % (label, m["name"]))
            extra = set(got) - {m["name"] for m in expected[trace]}
            if extra:
                failures.append("%s: unexpected metrics %s" %
                                (label, sorted(extra)))
            if trace == 0:
                checksums[w] = [l for l in lines if l.startswith("checksum ")]
    # Determinism: same seed, same results; another seed, other results.
    for w in checksums:
        for seed, same in ((11, True), (12, False)):
            code, lines = run_captured(
                binary, driver_args(w, seed, 60, 0, SELF_TEST_OPS))
            ck = [l for l in lines if l.startswith("checksum ")]
            if code != 0 or (ck == checksums[w]) != same:
                failures.append("%s: seed %d checksum %s the seed-11 one" % (
                    w, seed, "differs from" if same else "equals"))
    for f in failures:
        print("self-test: FAIL " + f)
    print("self-test: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    binary = build()
    if args.self_test:
        return self_test(binary)
    sys.stdout.flush()
    return subprocess.run(
        [binary] + driver_args(args.workload, args.seed, args.seconds,
                               args.trace),
        check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
