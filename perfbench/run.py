#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

The first form builds perfbench/ (and the engine sources it includes) into
.bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench when that is
set, runs one workload and checks that the result line names every metric
BENCHMARK.json lists for the mode, with its unit and a finite value. The
result object is the last line of standard output; build output goes to
standard error.

--self-check runs every workload at a tiny scale, traced and untraced, in
seconds, and fails unless every named metric is printed with its unit and
a finite value and no call or oracle check failed.
"""

import argparse
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175
METHODS = ("Log0", "Log1", "Log2", "Sql1", "Sql2")
# Every workload the binary runs. BENCHMARK.json lists the ones whose
# figures are steady enough to gate on (see README.md).
WORKLOADS = ("recover_uniform_fit", "recover_zipf_evict_par", "commit_mixed")


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # A configure that failed part-way leaves a cache but no build files.
    if not any((out / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: configure failed")
    cmd = ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit("perfbench: build failed")
    return out / "perfbench"


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_binary(binary, argv):
    """Run perfbench; returns (exit code, stdout text, parsed last line)."""
    try:
        proc = subprocess.run([str(binary)] + argv, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else e.stdout
        return 124, out or "", None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    return proc.returncode, proc.stdout, result


def check_result(result, spec, trace):
    """Problems with a result line against BENCHMARK.json (empty if none)."""
    if result is None:
        return ["no result line"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            problems.append("metric %s missing" % name)
        elif m.get("unit") != unit:
            problems.append("metric %s has unit %s, not %s"
                            % (name, m.get("unit"), unit))
        elif not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append("metric %s is not a finite number" % name)
    for name in metrics:
        if name not in expected:
            problems.append("metric %s is not in BENCHMARK.json" % name)
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append("attempted is %r" % result["attempted"])
    return problems


def self_check():
    spec = load_spec()
    binary = build()
    failures = 0
    # The layer map must name only metrics the benchmark prints.
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    mapping = json.loads((HERE / "layers.json").read_text())
    for layer in mapping["layers"]:
        for name in layer["metrics"] + layer["moves"]:
            for n in sorted({name.replace("<M>", m) for m in METHODS}):
                if n not in names:
                    print("FAIL layers.json names unknown metric %s" % n)
                    failures += 1
    for w in WORKLOADS:
        for trace in (0, 1):
            argv = ["--workload", w, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--tiny",
                    "--trace-dir", str(build_dir().parent / "perfbench-traces")]
            code, out, result = run_binary(binary, argv)
            problems = check_result(result, spec, trace)
            if code != 0:
                problems.append("exit code %d" % code)
            if result is not None and (not result["correct"] or
                                       result["failed"] != 0):
                problems.append("failed %s of %s" % (result["failed"],
                                                     result["attempted"]))
            if "failed_frac 0 " not in out:
                problems.append("failed_frac is not printed as 0")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print("%-24s trace=%d %s" % (w, trace, status))
            failures += bool(problems)
    print("self-check: %s" % ("passed" if failures == 0 else
                              "%d failures" % failures))
    return 0 if failures == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    a = p.parse_args()
    if a.self_check:
        return self_check()
    if a.workload is None or a.seed is None or a.seconds is None or \
            a.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")
    if a.workload not in WORKLOADS:
        p.error("unknown workload %s" % a.workload)
    spec = load_spec()
    binary = build()
    argv = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--trace-dir", str(build_dir().parent / "perfbench-traces")]
    code, out, result = run_binary(binary, argv)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        return code
    problems = check_result(result, spec, a.trace)
    for problem in problems:
        print("perfbench: %s" % problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
