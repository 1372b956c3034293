#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the stencil35 libraries, the `s35`
CLI and the benchmark binary from the checkout's sources into .bench_build
(or $CARGO_TARGET_DIR), runs one workload in a fresh directory under
.bench_run, checks that the run left no process, socket or job checkpoint
behind, and relays the binary's result: the last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

Workloads: sweep_cache, serve_warm (README.md).
Exit status is 0 only for a correct run.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sweep_cache", "serve_warm")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then lets CMake rebuild whatever changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no stencil35 sources next to %s" % HERE)
        return False
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    res = subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "s35", "s35_perfbench"],
        stdout=sys.stderr, stderr=sys.stderr)
    return res.returncode == 0


def leftover_processes(run_dir):
    """Pids whose command line mentions the run directory (none may survive)."""
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or int(pid) == os.getpid():
            continue
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as f:
                cmd = f.read().decode(errors="replace")
        except OSError:
            continue
        if run_dir in cmd:
            found.append(int(pid))
    return found


def leftover_files(run_dir):
    """Sockets and job checkpoints still under the run directory."""
    bad = []
    for dirpath, _, files in os.walk(run_dir):
        for name in files:
            path = os.path.join(dirpath, name)
            if name.endswith(".sock") or (name.startswith("job-") and ".ckpt" in name):
                bad.append(path)
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="self-test: plant one wrong reference CRC")
    args = ap.parse_args()

    os.chdir(ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        log("perfbench: build failed")
        return 2
    exe = os.path.join(build_dir, "s35_perfbench")
    s35 = os.path.join(build_dir, "s35_tools", "s35")

    run_dir = os.path.join(".bench_run", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    trace_out = os.path.join(".bench_run", "trace-%s-%d.jsonl" % (args.workload, args.seed))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--s35", s35, "--run-dir", run_dir]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("perfbench: s35_perfbench printed no result (exit %d)" % proc.returncode)
        shutil.rmtree(run_dir, ignore_errors=True)
        return 2

    hygiene = ["process left behind: %d" % p for p in leftover_processes(run_dir)]
    hygiene += ["file left behind: %s" % p for p in leftover_files(run_dir)]
    for msg in hygiene:
        print("FAIL: " + msg)
    if hygiene:
        result["correct"] = False
        result["failed"] += len(hygiene)
        result["metrics"] = {}
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
