#!/usr/bin/env python3
"""Run one workload of the PARC benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the benchmark and the
libraries it links into .bench_build/ (CMake, RelWithDebInfo, the repo's
default build type); later runs reuse that build. The benchmark binary
generates its inputs from --seed, checks every output and prints its
measurements; this script adds the host fingerprint (nproc, compiler, build
type, PARC_TRACE, and the /proc/stat steal ticks spent during the run),
checks the metric names against BENCHMARK.json, and prints the result as the
last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
and writes the run's spans to .bench_build/traces/<workload>.csv. The exit
code is 0 only when every check passed.
"""

import argparse
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
BUILD_DIR = Path(".bench_build")
RUN_TIMEOUT_S = 170.0  # the binary's own limit; a run must end within 180 s

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def spec_errors(spec):
    """Every way `spec` (a parsed BENCHMARK.json) breaks the format."""
    errs = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        return [f"keys must be exactly {sorted(keys)}"]
    cmd = spec["command"]
    if (not isinstance(cmd, list) or not 1 <= len(cmd) <= 32
            or not all(isinstance(c, str) and 0 < len(c) <= 200 for c in cmd)):
        errs.append("command: 1 to 32 strings of at most 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        errs.append("command: no absolute paths and no '..'")
    paths = spec["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        errs.append("paths: 1 to 16 directories")
    else:
        for p in paths:
            if (not isinstance(p, str) or not PATH_RE.match(p)
                    or p.startswith("/") or ".." in p.split("/")):
                errs.append(f"paths: bad path {p!r}")
    rs = spec["run_seconds"]
    if not isinstance(rs, int) or isinstance(rs, bool) or not 1 <= rs <= 60:
        errs.append("run_seconds: a whole number from 1 to 60")

    names = []

    def check_name(where, name):
        if not isinstance(name, str) or not NAME_RE.match(name):
            errs.append(f"{where}: bad name {name!r}")
        names.append(name)

    wl = spec["workloads"]
    if not isinstance(wl, list) or not 2 <= len(wl) <= 8:
        errs.append("workloads: 2 to 8")
    else:
        for w in wl:
            if not isinstance(w, dict) or set(w) != {"name", "why"}:
                errs.append(f"workloads: {w!r} needs exactly name and why")
                continue
            check_name("workloads", w["name"])
            why = w["why"]
            if not isinstance(why, str) or not 0 < len(why) <= 200 or "\n" in why:
                errs.append(f"workloads: why of {w['name']!r} must be one line")
    for section, lo, hi, bounded in (("end_to_end", 1, 16, True),
                                     ("per_layer", 1, 128, False)):
        ms = spec[section]
        if not isinstance(ms, list) or not lo <= len(ms) <= hi:
            errs.append(f"{section}: {lo} to {hi} metrics")
            continue
        want = {"name", "unit", "better"} | ({"bound"} if bounded else set())
        for m in ms:
            if not isinstance(m, dict) or set(m) != want:
                errs.append(f"{section}: {m!r} needs exactly {sorted(want)}")
                continue
            check_name(section, m["name"])
            if not isinstance(m["unit"], str) or not UNIT_RE.match(m["unit"]):
                errs.append(f"{section}: bad unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                errs.append(f"{section}: better must be lower or higher")
            if bounded:
                b = m["bound"]
                if (not isinstance(b, (int, float)) or isinstance(b, bool)
                        or not 0 < b <= 0.25):
                    errs.append(f"{section}: bound of {m['name']!r} in (0, 0.25]")
        if section == "end_to_end" and not any(
                isinstance(m, dict) and m.get("name") == "setup_s"
                and m.get("unit") == "s" and m.get("better") == "lower"
                for m in ms):
            errs.append("end_to_end: needs setup_s in s, lower is better")
    dup = sorted({n for n in names if names.count(n) > 1})
    if dup:
        errs.append(f"names used more than once: {dup}")
    if len(json.dumps(spec)) > 64 * 1024:
        errs.append("larger than 64 KiB")
    return errs


def result_errors(result, expected, positive):
    """Ways the binary's metrics differ from the `expected` {name: unit}."""
    errs = []
    metrics = result.get("metrics", {})
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing:
        errs.append(f"metrics missing: {missing}")
    if extra:
        errs.append(f"metrics not in BENCHMARK.json: {extra}")
    for name, m in metrics.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errs.append(f"{name}: value {v!r} is not a finite number")
        elif positive and v <= 0:
            errs.append(f"{name}: value {v!r} must be above 0")
        if name in expected and m.get("unit") != expected[name]:
            errs.append(f"{name}: unit {m.get('unit')!r}, "
                        f"BENCHMARK.json says {expected[name]!r}")
    return errs


def steal_ticks():
    """Total steal ticks of all CPUs (0 where /proc/stat has none)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0
    except OSError:
        return 0


def fail(msg, code):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(deadline):
    """Configure once, then bring the benchmark binary up to date."""
    if not (REPO / "CMakeLists.txt").is_file() or not (REPO / "src").is_dir():
        fail(f"no PARC sources next to {BENCH_DIR.name}/; run from a checkout",
             2)
    build_dir = BUILD_DIR / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j4",
                  "--target", "parc_perfbench"])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(1.0, deadline - time.monotonic())
                                    ).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail), 3)
    return build_dir / "parc_perfbench"


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = REPO / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found", 2)
    spec = json.loads(spec_path.read_text())
    errs = spec_errors(spec)
    if errs:
        fail("BENCHMARK.json: " + "; ".join(errs), 2)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}", 2)

    # The first run in a checkout builds; it may take up to 900 s.
    binary = build(start + 880.0)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}.csv")]
    steal0 = steal_ticks()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the benchmark binary ran out of time", 4)
    steal = steal_ticks() - steal0

    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"the benchmark binary printed nothing (exit {proc.returncode})",
             5)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"unparsable result line: {lines[-1][:200]}", 5)

    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}
    errs = result_errors(result, expected, positive=not args.trace)
    correct = bool(result.get("correct")) and proc.returncode == 0 and not errs
    for e in errs:
        print(f"ERROR: {e}")

    host = dict(result.get("host", {}))
    host["steal_ticks"] = steal
    host["workload"] = args.workload
    host["seed"] = args.seed
    host["trace"] = args.trace
    print("host " + json.dumps(host, sort_keys=True))
    for name, m in result.get("notes", {}).items():
        print(f"note {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result.get("attempted", 0)),
        "failed": int(result.get("failed", 0)),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in result.get("metrics", {}).items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
