#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --workload all [--seed <n>] [--seconds <s>]
    python3 e2ebench/run.py --selftest [--seed <n>]

Builds the library and the e2ebench binary from this checkout's sources
(Release, into .bench_build/), runs one workload and prints, as the last
line of standard output, one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end metrics
of BENCHMARK.json; with --trace 1 they are its per_layer metrics (the
binary reports an explicit 0 for a layer the workload never reaches, and
a declared metric the binary leaves out fails the run). `--workload all` runs every
workload untraced and traced and prints every metric. `--selftest` checks
that the deterministic counters repeat exactly across runs and worker
counts.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
OUT_DIR = ROOT / ".bench_build" / "e2ebench-results"
WORKLOADS = ["static_lidar", "serving_read", "serving_rw"]
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures (once) and builds the binary; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the library sources (CMakeLists.txt, src/) are not in this checkout")
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}" not in cache.read_text():
        shutil.rmtree(BUILD_DIR)  # configured for another checkout
    if not cache.is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(cpu_count())
    if subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", "e2ebench"],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD_DIR / "e2ebench"


def source_id():
    """The git commit when there is one, else a digest of the sources.
    The binary reads it from RTNN_GIT_SHA."""
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0:
            return "git:" + rev.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH_DIR):
        files += [p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:12]


def declared_metrics(trace):
    """{name: unit} of BENCHMARK.json's end_to_end (trace 0) or per_layer
    (trace 1) metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns the binary's results object."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", str(OUT_DIR)]
    env = dict(os.environ, RTNN_GIT_SHA=source_id())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              env=env)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail(f"{workload} exited with code {proc.returncode}", 3)
    return json.loads(lines[-1])


def result_line(results, trace):
    """The benchmark's result object for one run."""
    measured = results["metrics"]
    metrics = {}
    for name, unit in declared_metrics(trace).items():
        if name not in measured:
            fail(f"{name} was neither measured nor reported as bypassed", 5)
        metric = measured[name]
        if not metric["bypassed"] and metric["unit"] != unit:
            fail(f"{name} measured in {metric['unit']}, declared in {unit}", 5)
        metrics[name] = {"value": metric["value"], "unit": unit}
    return {"correct": results["correct"], "attempted": results["attempted"],
            "failed": results["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload or --selftest is required")

    binary = build()
    if args.selftest:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        rc = subprocess.run([str(binary), "--selftest", "--seed", str(args.seed),
                             "--out-dir", str(OUT_DIR)], timeout=600).returncode
        sys.exit(rc)

    if args.workload != "all":
        results = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result_line(results, args.trace)))
        return

    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"=== {workload} trace={trace} seed={args.seed} ===")
            results = run_workload(binary, workload, args.seed, args.seconds, trace)
            summary[f"{workload}.trace{trace}"] = {
                "correct": results["correct"], "attempted": results["attempted"],
                "failed": results["failed"],
                "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                            for n, m in results["metrics"].items()}}
    (OUT_DIR / f"all-seed{args.seed}.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps({"correct": all(s["correct"] for s in summary.values()),
                      "attempted": sum(s["attempted"] for s in summary.values()),
                      "failed": sum(s["failed"] for s in summary.values()),
                      "metrics": {}}))


if __name__ == "__main__":
    main()
