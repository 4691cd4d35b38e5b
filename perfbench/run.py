#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite-eval --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py test        # the benchmark's own tests

The first run configures and builds perfbench/ (which compiles ../src)
into .bench_build/; later runs only rebuild what changed. Build output
goes to stderr. The benchmark's notes go to stdout, and the last line
of stdout is the result JSON: exactly the keys correct, attempted,
failed and metrics. A run whose metric names do not match
BENCHMARK.json prints no result and exits non-zero.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
CMAKE_DIR = BUILD_DIR / "cmake"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    """Configure once, then build `target`; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found next to perfbench/")
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"] + generator
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(CMAKE_DIR, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(CMAKE_DIR), "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail(f"build of {target} failed")
    return CMAKE_DIR / target


def commit_id():
    """The git commit if there is one, else a digest of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            dirty = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--",
                 "src", "perfbench"], capture_output=True, text=True).stdout
            return r.stdout.strip() + ("-dirty" if dirty.strip() else "")
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Parse the result line; None if it breaks the output contract."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    if set(result["metrics"]) != declared_metrics(trace):
        missing = declared_metrics(trace) ^ set(result["metrics"])
        print(f"perfbench: metric names differ from BENCHMARK.json: "
              f"{sorted(missing)}", file=sys.stderr)
        return None
    return result


def run_tests():
    binary = build("perfbench_tests")
    sys.exit(subprocess.run([str(binary)], cwd=ROOT).returncode)


def main(argv):
    if argv[:1] == ["test"]:
        run_tests()
    args = {}
    it = iter(argv)
    for flag in it:
        value = next(it, None)
        if not flag.startswith("--") or value is None:
            fail(f"bad argument {flag!r}; usage: run.py --workload NAME "
                 "--seed N --seconds S --trace 0|1")
        args[flag] = value
    if "--workload" not in args:
        fail("--workload is required")
    trace = args.get("--trace", "0") == "1"

    binary = build("sieve_perfbench")
    work = BUILD_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(binary)]
    for flag, value in args.items():
        cmd += [flag, value]
    cmd += ["--work-dir", str(work.relative_to(ROOT)),
            "--out-dir", str((BUILD_DIR / "results").relative_to(ROOT)),
            "--commit", commit_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")
    if check_result(lines[-1], trace) is None:
        fail("the last line is not a valid result")
    print(lines[-1])
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
