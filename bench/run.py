"""imnomarc benchmark: one workload per invocation, every iteration in a
fresh worker process.

    python3 bench/run.py --workload ber_2u_bpsk --seed 0 --seconds 40 --trace 0

Untraced runs (``--trace 0``) repeat the workload, each iteration with its
own seeded inputs, until ``--seconds`` would be exceeded, and report the
medians of the end-to-end metrics. A traced run (``--trace 1``) makes one
untraced and one traced iteration on the same inputs and reports the
per-layer metrics; the difference of the two is the tracing overhead. The
metric names and units are those of BENCHMARK.json. Human-readable lines
come first; the last line of standard output is one JSON object. Workload
definitions are in workloads.py and the metrics are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from checks import snr_grid
from workloads import REFERENCE_SEED, WORKLOADS, ber_ini, iteration_seeds, make_plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0  # a run, every worker included, ends within this


def metric_units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment() -> dict:
    env = {"python": platform.python_version(), "nproc": os.cpu_count()}
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = "missing"
    env["cpu"] = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        env["git"] = git.stdout.strip() if git.returncode == 0 else "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        env["git"] = "git unavailable"
    env["threads"] = {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("OMP_") or k.endswith("_NUM_THREADS")
                      or k == "VECLIB_MAXIMUM_THREADS"}
    return env


def n_ops(plan: dict) -> int:
    """Operations in one iteration: one per SNR point of each sweep, or one
    per bound call."""
    if plan["kind"] == "ber":
        return len(plan["detectors"]) * len(snr_grid(plan["sweep"]["snr_db"]))
    return sum(len(p["calls"]) for p in plan["parts"].values())


def run_iteration(name, master_seed, index, trace, tiny, corrupt, deadline):
    """Run one worker; returns (plan, its result or None if it failed)."""
    out = OUT / name / f"iter{index}{'_traced' if trace else ''}"
    out.mkdir(parents=True)
    plan = make_plan(name, master_seed, tiny)
    plan.update(trace=trace, corrupt=corrupt, out=str(out),
                reference_seed=REFERENCE_SEED)
    if plan["kind"] == "ber":
        ini = out / "workload.ini"
        ini.write_text(ber_ini(name, tiny))
        plan.update(ini=str(ini), reference=str(BENCH / "reference" / f"{name}.csv"))
    (out / "plan.json").write_text(json.dumps(plan, indent=1))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(out / "plan.json"), repr(t_spawn)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        print(f"# {name}: worker timed out", file=sys.stderr)
        return plan, None
    wall = time.monotonic() - t_spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"# {name}: worker exited with {proc.returncode}", file=sys.stderr)
        return plan, None
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return plan, result


def run_workload(name, seed, seconds, trace, tiny=False, corrupt=False) -> dict:
    """Run one workload; returns the report with the final JSON under "line"."""
    shutil.rmtree(OUT / name, ignore_errors=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    seeds = iteration_seeds(seed)
    runs = []
    if trace:
        master = next(seeds)
        runs.append(run_iteration(name, master, 0, False, tiny, corrupt, deadline))
        if runs[-1][1] is not None:
            runs.append(run_iteration(name, master, 0, True, tiny, corrupt, deadline))
    else:
        for index, master in enumerate(seeds):
            runs.append(run_iteration(name, master, index, False, tiny, corrupt, deadline))
            if runs[-1][1] is None:
                break
            longest = max(r["wall_s"] for _, r in runs)
            if time.monotonic() - start + longest > seconds:
                break

    attempted = sum(n_ops(plan) for plan, _ in runs)
    failures, failed = [], 0
    for plan, res in runs:
        if res is None:
            bad = [("worker", "crashed or timed out")]
            failed += n_ops(plan)
        else:
            bad = [(op, why) for op, why in res["ops"] if why]
            failed += len(bad)
        failures += [(plan["seed"], op, why) for op, why in bad]
    done = [res for _, res in runs if res is not None]
    if not done or (trace and len(done) < 2):
        return {"workload": name, "failures": failures, "line": None}

    e2e_units, layer_units = metric_units()
    untraced = [res for (plan, res) in runs if res is not None and not plan["trace"]]

    def med(get):
        return statistics.median(get(r) for r in untraced)

    if trace:
        base, traced = untraced[0], done[-1]
        values = dict(traced["layers"])
        values.update({f"process.{k}": v for k, v in base["process"].items()})
        values["trace.overhead_s"] = traced["result_s"] - base["result_s"]
        units = layer_units
    else:
        values = {"setup_s": med(lambda r: r["setup_s"]),
                  "result_s": med(lambda r: r["result_s"]),
                  "items_per_s": med(lambda r: r["items"] / r["result_s"]),
                  "peak_rss_mb": med(lambda r: r["peak_rss_mb"])}
        units = e2e_units
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    metrics = {k: {"value": int(values[k]) if units[k] in ("count", "flop", "B")
                   else float(values[k]), "unit": units[k]} for k in units}
    parts = sorted({k for r in untraced for k in r["parts"]})
    return {
        "workload": name, "seed": seed, "trace": bool(trace),
        "iterations": [{"seed": plan["seed"], "traced": plan["trace"], **(res or {})}
                       for plan, res in runs],
        "parts": {k: statistics.median(r["parts"][k] for r in untraced if k in r["parts"])
                  for k in parts},
        "process": {k: med(lambda r: r["process"][k]) for k in untraced[0]["process"]},
        "identical": [r["identical"] for r in untraced if r["identical"] is not None],
        "failures": failures,
        "line": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                 "metrics": metrics},
    }


def print_report(report: dict, env: dict) -> None:
    line = report["line"]
    print(f"# env python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} cpu={env['cpu']!r} git={env['git']!r} "
          f"threads={env['threads']}")
    runs = report["iterations"]
    print(f"# {report['workload']} seed={report['seed']} trace={int(report['trace'])}: "
          f"{len(runs)} iterations, master seeds {[r['seed'] for r in runs]}")
    for k, v in report["parts"].items():
        print(f"  {k:<32} {v:14.6g} {'1/s' if k.endswith('_per_s') else 's'}")
    for k, m in line["metrics"].items():
        print(f"  {k:<32} {m['value']:14.6g} {m['unit']}")
    for k, v in ({} if report["trace"] else report["process"]).items():
        print(f"  process.{k:<24} {v:14.6g} {'count' if k == 'minflt' else 's'}")
    print(f"  {'fail_ratio':<32} {line['failed'] / line['attempted']:14.6g} ratio "
          f"({line['failed']}/{line['attempted']})")
    if report["identical"]:
        same = "yes" if all(report["identical"]) else "no"
        print(f"# results.csv byte-identical to reference at seed {REFERENCE_SEED}: {same}")
    if report["trace"]:
        m = {k: v["value"] for k, v in line["metrics"].items()}
        if m["harness.run_sweep.s"]:
            gap = m["harness.run_sweep.s"] - m["harness.run_point.s"]
            print(f"# run_point spans cover {m['harness.run_point.s']:.4g} s of "
                  f"{m['harness.run_sweep.s']:.4g} s traced sweep time; gap {gap:.3g} s, "
                  f"trace overhead {m['trace.overhead_s']:.3g} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "imnomarc" / "__init__.py").is_file():
        print(f"imnomarc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for seed, op, why in report["failures"]:
        print(f"# FAILED seed={seed} {op}: {why}")
    if report["line"] is None:
        print("no iteration completed; no result", file=sys.stderr)
        return 2
    print_report(report, env)
    (OUT / args.workload / "report.json").write_text(
        json.dumps({"env": env, **report}, indent=1))
    print(json.dumps(report["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
