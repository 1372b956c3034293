#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and traced,
and checks that each run is correct and emits every end-to-end (untraced)
or per-layer (traced) metric named in BENCHMARK.json with its unit. Then
plants a wrong reference CRC in one sweep and one serving run and checks
that both are reported as failures (correct false, failed >= 1, no metric
values, non-zero exit) rather than as numbers. Exit 0 when all checks pass.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "2",
           "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    last = proc.stdout.strip().split("\n")[-1] if proc.stdout.strip() else ""
    try:
        return proc.returncode, json.loads(last)
    except ValueError:
        return proc.returncode, None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, res = run(wl["name"], trace)
            tag = "%s trace=%d" % (wl["name"], trace)
            if res is None:
                problems.append("%s: no result line (exit %d)" % (tag, rc))
                continue
            if rc != 0 or not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s: not a clean run: %s" % (tag, json.dumps(res)[:300]))
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None:
                    problems.append("%s: metric %s missing" % (tag, m["name"]))
                elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append("%s: metric %s has %r, want unit %s" % (tag, m["name"], got, m["unit"]))
            print("%s: %d metrics checked" % (tag, len(spec[key])), flush=True)
    for wl in ("sweep_cache", "serve_warm"):
        rc, res = run(wl, 0, ["--corrupt-reference"])
        ok = res is not None and rc != 0 and res["correct"] is False and res["failed"] >= 1 \
            and res["metrics"] == {}
        print("%s with a wrong reference CRC: %s" % (wl, "reported as failure" if ok else "NOT caught"),
              flush=True)
        if not ok:
            problems.append("%s: wrong reference CRC not reported as a failure: %r" % (wl, res))
    for p in problems:
        print("FAIL: " + p)
    print("selftest: %s" % ("PASS" if not problems else "FAIL"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
