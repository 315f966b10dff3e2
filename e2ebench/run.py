#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark from the repository root.

    python3 e2ebench/run.py --workload xmark_mix --seed 1 --seconds 40 --trace 0
    python3 e2ebench/run.py --self-test     # the driver's own tests

Builds the benchmark package (e2ebench/CMakeLists.txt, which builds xpathd
from this checkout's sources) into .bench_build/, runs the e2ebench driver
and checks that its result names exactly the metrics BENCHMARK.json
declares, with their units. The last line of stdout is the result JSON.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "examples", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src:" + digest.hexdigest()[:16]


def build(build_dir, target):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            r = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                                "-DCMAKE_BUILD_TYPE=Release"],
                               stdout=log, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                fail(f"configure failed, see {log_path}")
        jobs = str(max(1, os.cpu_count() or 1))
        r = subprocess.run(["cmake", "--build", build_dir, "--target", target,
                            "-j", jobs], stdout=log, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        with open(log_path) as fh:
            sys.stderr.write("".join(fh.readlines()[-30:]))
        fail(f"build failed, see {log_path}")
    return os.path.join(build_dir, target)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    for needed in ("CMakeLists.txt", "src", os.path.join("examples", "xpathd.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found next to {os.path.basename(HERE)}/: "
                 "run from a checkout of the repository", code=2)
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "e2ebench")

    if args.self_test:
        tests = build(build_dir, "e2ebench_tests")
        sys.exit(subprocess.run([tests]).returncode)
    if not args.workload:
        fail("--workload is required", code=2)

    expected = declared_metrics(args.trace)
    tool = build(build_dir, "e2ebench")
    cmd = [tool, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", os.path.join(build_root, "work"), "--commit", source_id()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if r.returncode != 0:
        fail(f"driver exited with {r.returncode}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, unit mismatch {units}")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
