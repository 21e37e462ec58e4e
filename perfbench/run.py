#!/usr/bin/env python3
"""Phish benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test     # helper self-tests + held-out-seed runs

Run from the repository root.  Builds the perfbench program and the Phish
libraries from source (CMake, RelWithDebInfo) into .bench_build/ (or
$CARGO_TARGET_DIR), runs one workload, and prints a human-readable report,
an environment record, and -- as the last line -- the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer ones (and writes the run's spans next to the build).  Exits nonzero
without a result when the build fails, and nonzero with a result when an
answer check failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
# Layers the per-layer metric names are prefixed with (longest prefix wins).
LAYERS = ("apps", "core", "core.clearinghouse", "runtime.threads", "runtime.udp",
          "runtime.simdist", "net", "sim", "jobsvc", "trace")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(targets):
    """Configure once, then build `targets`; returns the binary directory."""
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                    "--target"] + targets, check=True, stdout=sys.stderr)
    return out


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def source_digest():
    """sha256 over the sources perfbench is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def environment(out):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    build_type = "unknown"
    for line in read(os.path.join(out, "CMakeCache.txt")).splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    cpu = {}
    mhz = []
    for line in read("/proc/cpuinfo").splitlines():
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key == "model name":
            cpu["cpu_model"] = value
        elif key == "cpu MHz":
            mhz.append(float(value))
    if mhz:
        cpu["cpu_mhz_mean"] = sum(mhz) / len(mhz)
    return {"git_sha": sha, "source_sha256": source_digest(),
            "build_type": build_type, "nproc": os.cpu_count(), **cpu}


def layer_of(metric):
    found = [l for l in LAYERS if metric == l or metric.startswith(l + ".")]
    return max(found, key=len) if found else None


def result_line(spec, raw, trace):
    """The result object (BENCHMARK.json's metrics) from a RESULT record."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if trace and layer_of(m["name"]) not in raw["layers"]:
                print("  %-44s not exercised by this workload" % m["name"])
                metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
                continue
            raise SystemExit("perfbench: %s reported no %s" % (raw["workload"], m["name"]))
        if got["unit"] != m["unit"]:
            raise SystemExit("perfbench: %s unit %s, BENCHMARK.json says %s"
                             % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def run_workload(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = build(["perfbench"])
    results = os.path.join(build_dir(), "perfbench-results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))

    env = environment(out)
    env["loadavg_before"] = read("/proc/loadavg").strip()
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", stem + ".spans.jsonl"]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    env["loadavg_after"] = read("/proc/loadavg").strip()
    env["wall_s"] = time.monotonic() - started

    lines = proc.stdout.splitlines()
    records = [l for l in lines if l.startswith("RESULT ")]
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    if not records:
        raise SystemExit("perfbench exited %d without a result" % proc.returncode)
    raw = json.loads(records[-1][len("RESULT "):])
    result = result_line(spec, raw, args.trace)
    print("env " + json.dumps(env, sort_keys=True))
    with open(stem + ".json", "w") as f:
        json.dump({"seed": args.seed, "env": env, "perfbench": raw, "result": result},
                  f, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return proc.returncode


def run_tests():
    out = build(["perfbench", "perfbench_selftest"])
    return subprocess.run(["ctest", "--output-on-failure"], cwd=out).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--test", action="store_true")
    args = p.parse_args()
    try:
        if args.test:
            return run_tests()
        if not args.workload:
            p.error("--workload is required")
        return run_workload(args)
    except (OSError, subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
