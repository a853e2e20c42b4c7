#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is compiled from the sources
next to this directory into <root>/.bench_build/perfbench (or the directory
named by CARGO_TARGET_DIR, when it lies inside the repository), then run.
The last line of standard output is one JSON object (correct, attempted,
failed, metrics); its metric names and units are checked against
BENCHMARK.json before it is printed. The exit code is non-zero when the
build fails, a correctness gate fails or the output does not match
BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, stdout):
    """Runs `cmd` in its own process group and returns (returncode, output).

    On a timeout, an error or a termination signal the whole group (the
    compiler processes of a build included) is killed and reaped.
    """
    proc = subprocess.Popen(
        cmd, stdout=stdout, stderr=sys.stderr, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = os.path.realpath(os.path.join(ROOT, target))
    if os.path.commonpath([path, os.path.realpath(ROOT)]) != os.path.realpath(ROOT):
        path = os.path.join(ROOT, ".bench_build")
    return os.path.join(path, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"the repository sources are missing next to {HERE}", 2)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target", "nb_perfbench"])
    for cmd in steps:
        try:
            code, _ = run_group(cmd, BUILD_TIMEOUT_S, sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(cmd[:2])} did not finish: {e}")
        if code != 0:
            fail(f"build step {' '.join(cmd[:2])} failed ({code})")
    binary = os.path.join(out, "nb_perfbench")
    if not os.path.isfile(binary):
        fail("build produced no nb_perfbench binary")
    return binary


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns an error message, or None when the result line is valid."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"unexpected result keys {sorted(result)}"
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit {units}"
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")
    # A terminated run still kills and reaps its child process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    out = build_dir()
    binary = build(out)
    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [
            binary,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--git-sha", git_sha(),
        ]
        if args.trace:
            traces = os.path.join(out, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        code, text = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = text.rstrip("\n").split("\n")
    if args.selftest:
        print("\n".join(lines))
        sys.exit(code)
    error = check_result(lines[-1], args.trace)
    if error:
        print("\n".join(lines[:-1]))
        fail(error)
    print("\n".join(lines))
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
