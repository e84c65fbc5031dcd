#!/usr/bin/env python3
"""Builds and runs the CPX mini-app benchmark.

    python3 perfbench/run.py --workload engine_40k --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (the library from the repository root plus
the benchmark driver) in $CARGO_TARGET_DIR, or .bench_build when that is
unset, then runs one workload. The last line of standard output is the
result JSON. Reports, span files and per-layer tables go to
<build dir>/results/. A traced run also prints its tracing overhead: its
run_s minus the run_s of the latest untraced run of the same workload.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("engine_40k", "coupled_rows", "pressure_resetup")
RUN_TIMEOUT_S = 170


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def run_logged(cmd, log, env):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                          env=env).returncode


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no library sources in " + str(ROOT / "src"))
    bdir.mkdir(parents=True, exist_ok=True)
    log_path = bdir / "perfbench-build.log"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    # Keep the compiler's temporary files inside the build directory too.
    tmp = bdir / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log_path, "w") as log:
        ok = (bdir / "CMakeCache.txt").exists() or run_logged(
            ["cmake", "-S", str(HERE), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log, env) == 0
        ok = ok and run_logged(
            ["cmake", "--build", str(bdir), "--target", "cpx_perfbench",
             "-j", jobs], log, env) == 0
    if not ok:
        sys.stderr.write(log_path.read_text()[-4000:])
        sys.exit("perfbench: build failed, see " + str(log_path))
    return bdir / "cpx_perfbench"


def git_sha():
    """HEAD of the repository rooted at ROOT; 'unknown' when ROOT is not a
    git checkout (a git repository further up does not count)."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def source_digest():
    """SHA-256 over the library and benchmark sources (names and bytes), so
    a report from a checkout that is not a git repository still names its
    code."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def tracing_overhead(results, workload, seed, traced_result):
    """Traced run_s minus the untraced run_s of the same workload (same
    seed when such a run exists, else the most recent one)."""
    same_seed = results / f"{workload}-seed{seed}-trace0.json"
    candidates = sorted(results.glob(f"{workload}-seed*-trace0.json"),
                        key=lambda p: p.stat().st_mtime)
    source = same_seed if same_seed.exists() else (
        candidates[-1] if candidates else None)
    if source is None:
        return None
    untraced = json.loads(source.read_text())
    traced = json.loads(traced_result.read_text())
    t = traced["end_to_end"]["run_s"]["value"]
    u = untraced["end_to_end"]["run_s"]["value"]
    return (f"tracing overhead: traced run_s {t:.6f} s - untraced run_s "
            f"{u:.6f} s ({source.name}) = {t - u:+.6f} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    results = bdir / "results"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(results), "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish within "
                 f"{RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit(f"perfbench: benchmark exited with {proc.returncode}")
    print("\n".join(lines[:-1]))
    if args.trace:
        stem = f"{args.workload}-seed{args.seed}-trace1"
        overhead = tracing_overhead(results, args.workload, args.seed,
                                    results / (stem + ".json"))
        line = overhead or ("tracing overhead: no untraced run of "
                            f"{args.workload} to compare with")
        print(line)
        with open(results / (stem + ".layers.txt"), "a") as table:
            table.write(line + "\n")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
