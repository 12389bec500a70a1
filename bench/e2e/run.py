#!/usr/bin/env python3
"""Builds and runs Rainbow's end-to-end benchmark (rainbow_bench.cc).

Run from the repository root:

  python3 bench/e2e/run.py --workload classroom --seed 1 --seconds 25 --trace 0
  python3 bench/e2e/run.py                  # every workload, one process each
  python3 bench/e2e/run.py --smoke          # 1/100 size, every check
  python3 bench/e2e/run.py --compare PARENT.log CHANGE.log

The first run builds the benchmark from source into .bench_build/e2e.
With --workload, the last line of standard output is the JSON result of
that workload; a failed correctness check makes the exit code non-zero.
--compare reads the saved standard output of repeated runs of two
commits and judges every metric against its bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = ROOT / "BENCHMARK.json"
BUILD = ROOT / ".bench_build" / "e2e"
WORKLOADS = ("classroom", "contention", "bigdata", "topo512")
CHILD_TIMEOUT_S = 170
SMOKE_SCALE = 0.01
# Set-up takes milliseconds on most workloads, where a relative bound
# alone flags scheduler noise: setup_s may also worsen by this much.
ABS_FLOOR = {"setup_s": 0.02}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    if not SPEC.is_file():
        fail(f"{SPEC} is missing")
    with open(SPEC) as f:
        return json.load(f)


def metric_units(spec, trace):
    """Name -> unit of the metrics a run with this --trace must print."""
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Rainbow sources at {ROOT / 'src'}; run from a full checkout")

    def step(cmd):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            fail("build step failed: " + " ".join(cmd))

    if not (BUILD / "CMakeCache.txt").is_file():
        step(["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", str(BUILD), "--target", "rainbow_bench",
          "-j", jobs])
    return BUILD / "rainbow_bench"


def run_once(binary, workload, seed, seconds, trace, scale=None, spans=None):
    """Runs one workload in its own process; returns (exit code, report
    lines, parsed result or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        # On timeout, run() kills the child and waits for it.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if isinstance(result, dict):
        lines = lines[:-1]
    else:
        result = None
    return proc.returncode, lines, result


def check_result(result, units):
    """Problems with a result line: its keys, metric names and units."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        problems.append("failed must be a whole number")
    metrics = result["metrics"]
    missing = [n for n in units if n not in metrics]
    if missing and result["correct"]:
        problems.append("missing metrics: " + ", ".join(missing))
    problems += [f"{n} has unit {metrics[n].get('unit')}, not {u}"
                 for n, u in units.items()
                 if n in metrics and metrics[n].get("unit") != u]
    return problems


def run_workload(binary, spec, args):
    code, report, result = run_once(binary, args.workload, args.seed,
                                    args.seconds, args.trace,
                                    spans=args.spans)
    for line in report:
        print(line)
    if result is None:
        fail(f"rainbow_bench printed no result (exit code {code})")
    problems = check_result(result, metric_units(spec, args.trace))
    if problems:
        fail("; ".join(problems))
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


def smoke(binary, spec):
    """Every workload at 1/100 size, untraced and traced, with all checks;
    fails on a check, a missing metric, or an unreadable spans file."""
    spans = Path(binary).resolve().parent / "smoke_spans.json"
    bad = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, report, result = run_once(
                binary, workload, 1, 1, trace, scale=SMOKE_SCALE,
                spans=spans if trace else None)
            what = f"{workload} --trace {trace}"
            if result is None or code != 0 or not result["correct"]:
                bad.append(f"{what}: exit {code}")
                print("\n".join(report), file=sys.stderr)
                continue
            bad += [f"{what}: {p}"
                    for p in check_result(result, metric_units(spec, trace))]
            if trace:
                try:
                    with open(spans) as f:
                        events = json.load(f)["traceEvents"]
                    if not events or any(e["ph"] != "X" for e in events):
                        bad.append(f"{what}: spans are not complete events")
                except (OSError, ValueError, KeyError) as e:
                    bad.append(f"{what}: spans file unreadable: {e}")
            print(f"smoke {what}: ok ({result['attempted']} transactions)")
    for line in bad:
        print("SMOKE FAILED: " + line)
    return 1 if bad else 0


# --- comparing two commits -------------------------------------------------

def read_runs(path):
    """Result lines and machine fingerprints from saved benchmark output."""
    results, fingerprints = [], set()
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("fingerprint "):
                fingerprints.add(line[len("fingerprint "):])
            elif line.startswith('{"correct"'):
                results.append(json.loads(line))
    return results, fingerprints


def quartiles(values):
    """(first quartile, median, third quartile), as statistics.quantiles
    gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, parent, change, comparable=True):
    """Judges one metric from paired runs of the parent and the change.

    REGRESSED when the change's median is worse than the parent's by more
    than the bound (or the absolute floor); better when the change wins
    at least nine tenths of the pairs and the medians differ by more than
    the parent's quartile spread; unresolved when that spread is wider
    than the bound; otherwise same. Host-time verdicts between different
    machines are advisory."""
    lower = metric["better"] == "lower"
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    allowed = max(metric["bound"] * abs(pm), ABS_FLOOR.get(metric["name"], 0))
    worse = cm - pm if lower else pm - cm
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    if worse > allowed:
        label = "REGRESSED"
    elif pairs and wins >= 0.9 * len(pairs) and -worse > p3 - p1:
        label = "better"
    elif p3 - p1 > allowed and not (
            max(change) < min(parent) if lower else min(change) > max(parent)):
        label = "unresolved"
    else:
        label = "same"
    if not comparable and label in ("REGRESSED", "better"):
        label += " (advisory: different machines)"
    return label, wins, len(pairs)


def compare(spec, parent_path, change_path):
    parent, pfp = read_runs(parent_path)
    change, cfp = read_runs(change_path)
    if not parent or not change:
        fail("no result lines to compare")
    comparable = pfp == cfp and len(pfp) == 1
    regressed = False
    print(f"{'metric':28} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>7}  verdict")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        name = metric["name"]
        p, c = ([r["metrics"][name]["value"] for r in runs
                 if name in r["metrics"]] for runs in (parent, change))
        if not p or not c:
            continue
        if "bound" not in metric:
            label, wins, n = "", 0, 0
        else:
            label, wins, n = verdict(metric, p, c, comparable)
            regressed |= label == "REGRESSED"
        left, right = (f"{q[1]:.6g} [{q[0]:.4g}, {q[2]:.4g}]"
                       for q in (quartiles(p), quartiles(c)))
        print(f"{name:28} {left:>34} {right:>34} {wins:>3}/{n:<3}  {label}")
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write host-time spans here "
                        "(Chrome trace JSON)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--binary", help="use this rainbow_bench instead of "
                        "building one")
    args = parser.parse_args()

    spec = load_spec()
    if args.compare:
        return compare(spec, *args.compare)
    binary = args.binary or build()
    if args.smoke:
        return smoke(binary, spec)
    if args.workload:
        return run_workload(binary, spec, args)
    status = 0
    for workload in WORKLOADS:
        args.workload = workload
        status |= run_workload(binary, spec, args)
    return status


if __name__ == "__main__":
    sys.exit(main())
