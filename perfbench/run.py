#!/usr/bin/env python3
"""Repository benchmark for the leader-election service.

Builds perfbench/ (the election service compiled from src/ plus the
omega_perfbench workload runner) in Release mode and runs one workload:

    python3 perfbench/run.py --workload sim_steady_300 --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end metrics BENCHMARK.json lists; with `--trace 1` they are
its per-layer metrics. A traced run executes the workload twice with the
same seed, untraced and then traced: on the simulated workloads both runs
must agree exactly on every virtual-time result (the profiler sits outside
the virtual timeline, so any difference is a bug), and the pair prices the
tracing itself as `bench.trace_overhead_frac`.

Steadiness mode runs each listed workload on two sets of k consecutive
seeds and prints every end-to-end metric's median and quartiles against its
bound, and how much worse the second set's median is than the first's:

    python3 perfbench/run.py --workload sim_steady_300,live_udp_256 --steadiness 10

It exits 1 if a run is incorrect, a spread other than setup_s's exceeds its
bound, or a median (setup_s's too) got worse by more than its bound.

perfbench/layers.json maps each layer's metrics to the end-to-end metrics
they should move.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
under the current directory).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 170
# Host CPU figures omega_perfbench reports; per-layer only (see layers.json).
HOST_CPU = ("cpu_us_per_node_s", "cpu_us_per_msg")
# setup_s is a few seconds of wall time per run, so it follows the speed of
# the host, which on a shared VM swings by up to 2x in spells of 5-15 s
# (back-to-back sim_churn_120 set-ups measured 0.25 s and 0.47 s within one
# minute); a run's median cannot average that out. Its spread is shown, and,
# as for every metric, its median may not get worse between sets by more
# than its bound; its spread alone does not fail the check.
SPREAD_NOT_GATED = ("setup_s",)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build():
    """Configures (once) and builds omega_perfbench; returns its path."""
    out = build_dir()
    source = ROOT / "perfbench"
    cache = out / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={source}" not in cache.read_text():
        shutil.rmtree(out)  # configured from another checkout
    if not cache.exists():
        cmd = ["cmake", "-S", str(source), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs], stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return out / "omega_perfbench"


def run_once(binary, workload, seed, seconds, traced):
    """One workload run; returns omega_perfbench's record (a dict)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def select(record, names, units):
    """The named metrics with their units; a missing one is an error."""
    metrics = {}
    for name in names:
        value = record["metrics"].get(name)
        if value is None:
            record["errors"].append(f"metric {name} missing")
            record["correct"] = False
            continue
        metrics[name] = {"value": value, "unit": units[name]}
    return metrics


def run_workload(binary, workload, seed, seconds, traced):
    """The contract's result object for one (workload, seed, trace) run, and
    the full omega_perfbench record behind it."""
    if not traced:
        rec = run_once(binary, workload, seed, seconds, False)
        names = [m["name"] for m in SPEC["end_to_end"]]
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    else:
        plain = run_once(binary, workload, seed, seconds, False)
        rec = run_once(binary, workload, seed, seconds, True)
        rec["errors"] += plain["errors"]
        rec["correct"] = rec["correct"] and plain["correct"]
        if rec["clock"] == "virtual":
            for key in sorted(set(plain["fingerprint"]) | set(rec["fingerprint"])):
                a, b = plain["fingerprint"].get(key), rec["fingerprint"].get(key)
                if a != b:
                    rec["correct"] = False
                    rec["errors"].append(f"determinism: {key} untraced={a} traced={b}")
        # Host CPU is reported from the untraced run of the pair, so the
        # tracing itself never inflates it. A half that died before
        # measuring leaves these out; select() then reports them missing.
        for name in HOST_CPU:
            if name in plain["metrics"]:
                rec["metrics"]["bench." + name] = plain["metrics"][name]
        cost = rec["main_cost_metric"]
        if plain["metrics"].get(cost) and cost in rec["metrics"]:
            rec["metrics"]["bench.trace_overhead_frac"] = (
                rec["metrics"][cost] / plain["metrics"][cost] - 1.0)
        names = [m["name"] for m in SPEC["per_layer"]]
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    if rec["attempted"] < 1:  # the run died in set-up: that is its one failure
        rec["attempted"], rec["failed"], rec["correct"] = 1, 1, False
    for err in rec["errors"]:
        log(f"perfbench: {workload}: {err}")
    metrics = select(rec, names, units)
    return {"correct": bool(rec["correct"]), "attempted": int(rec["attempted"]),
            "failed": int(rec["failed"]), "metrics": metrics}, rec


def run_set(binary, workload, seeds, seconds):
    """One untraced run per seed; each end-to-end metric's values (and host
    CPU, per-layer, for reference) and whether every run was correct."""
    values = {m["name"]: [] for m in SPEC["end_to_end"]}
    values.update({n: [] for n in HOST_CPU})
    correct = True
    for seed in seeds:
        t0 = time.time()
        res, raw = run_workload(binary, workload, seed, seconds, False)
        correct = correct and res["correct"] and res["failed"] == 0
        for name, m in res["metrics"].items():
            values[name].append(m["value"])
        for name in HOST_CPU:
            if name in raw["metrics"]:
                values[name].append(raw["metrics"][name])
        log(f"{workload} seed {seed}: {time.time() - t0:.1f} s, correct={res['correct']}")
    return values, correct


def quartiles(vals):
    if not vals:
        return float("nan"), float("nan"), float("nan")
    return tuple(statistics.quantiles(vals, n=4)) if len(vals) > 1 else (vals[0],) * 3


def steadiness(binary, workloads, seed, seconds, k, sets):
    """`sets` sets of k seeds per workload. Every end-to-end metric's spread
    (q3 - q1 over the median) but setup_s's must stay within its bound in
    each set, and each later set's median may not be worse than the first
    set's by more than the bound. Host CPU (per-layer, no bound) is shown
    for reference."""
    report = {}
    steady = True
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    for workload in workloads:
        report[workload] = []
        first = None
        for i in range(sets):
            seeds = range(seed + i * k, seed + (i + 1) * k)
            values, correct = run_set(binary, workload, seeds, seconds)
            steady = steady and correct
            print(f"\n{workload} set {i + 1} ({k} seeds from {seeds[0]}, {seconds} s, correct={correct})")
            print(f"  {'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}"
                  f"{'vs set 1':>10}  verdict")
            rows = {}
            for name, vals in values.items():
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
                m = bounds.get(name)
                if m is None:
                    print(f"  {name:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
                          f"{'-':>7}{'-':>10}  per-layer")
                    continue
                # Relative change against the first set, signed so that
                # positive is worse.
                shift, shown = 0.0, "-"
                if first is not None and first[name]["median"]:
                    shift = med / first[name]["median"] - 1.0
                    if m["better"] == "higher":
                        shift = -shift
                    rows[name]["worse_than_set1"] = shift
                    shown = f"{shift:.4f}"
                tight = spread <= m["bound"] or name in SPREAD_NOT_GATED
                ok = bool(vals) and tight and shift <= m["bound"]
                steady = steady and ok
                if not ok:
                    verdict = "TOO WIDE" if not tight or not vals else "MEDIAN MOVED"
                elif spread > m["bound"]:
                    verdict = "wide, median-gated"
                else:
                    verdict = "ok" if spread <= m["bound"] / 3 else "within bound"
                print(f"  {name:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
                      f"{m['bound']:>7}{shown:>10}  {verdict}")
            if first is None:
                first = rows
            report[workload].append({"correct": correct, "metrics": rows})
    print(json.dumps({"steady": steady, "workloads": report}))
    return 0 if steady else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name; a comma-separated list in steadiness mode")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="K",
                        help="run each workload K times on seeds seed..seed+K-1")
    parser.add_argument("--sets", type=int, default=2,
                        help="steadiness mode: sets of K fresh seeds to compare")
    args = parser.parse_args()

    known = [w["name"] for w in SPEC["workloads"]]
    workloads = args.workload.split(",")
    for w in workloads:
        if w not in known:
            sys.exit(f"perfbench: unknown workload {w!r} (known: {', '.join(known)})")
    seconds = int(args.seconds) if float(args.seconds).is_integer() else args.seconds

    binary = build()
    if args.steadiness > 0:
        return steadiness(binary, workloads, args.seed, seconds, args.steadiness,
                          max(1, args.sets))
    if len(workloads) != 1:
        sys.exit("perfbench: one workload per run outside steadiness mode")
    result, _ = run_workload(binary, workloads[0], args.seed, seconds, args.trace == 1)
    for name, m in result["metrics"].items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
