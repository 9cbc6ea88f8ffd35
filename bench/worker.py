"""One benchmark iteration in a fresh interpreter.

Usage: python3 worker.py PLAN_JSON SPAWN_TIME

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` runs from a fresh interpreter to the first timed call.
Nothing is allocated or warmed up before the timed section beyond what the
program needs (the import and, for the bound, the config and alphabet build):
the allocator state a user's fresh CLI run starts from is part of what is
measured. The output checks run after the timed section. The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def prepare_ber(plan, imnomarc, tracer):
    """Return the timed callable and the state its check reads; ``parts``
    collects seconds per sweep."""
    from imnomarc import cli, harness

    if plan["corrupt"]:
        ml_block = harness.ml_block

        def flipped(y, h, alphabet):  # flips every decided bit
            idx, metric = ml_block(y, h, alphabet)
            return idx ^ (len(alphabet) - 1), metric

        harness.ml_block = flipped

    sweeps = {}
    run_sweep = getattr(cli, "run_sweep", None)

    def timed_sweep(spec):
        t = time.perf_counter()
        try:
            return run_sweep(spec)
        finally:
            sweeps[f"{spec.detector}_sweep_s"] = time.perf_counter() - t

    if run_sweep:  # without it the sweeps are not timed one by one
        cli.run_sweep = timed_sweep
    main = tracer.wrap("cli.main", cli.main) if tracer else cli.main
    argv = ["ber", "--config", plan["ini"], "--out", plan["out"],
            "--seed", str(plan["seed"])]
    for det in plan["detectors"]:
        argv += ["--detector", det]

    def timed():
        code = main(argv)
        if code != 0:
            print(f"imnomarc ber exited with {code}", file=sys.stderr)

    return timed, {"parts": sweeps}


def check_ber(plan, state):
    import checks

    parts = state["parts"]
    results = Path(plan["out"]) / "results.csv"
    ops = checks.check_ber(plan, results, plan["reference"])
    items = {}
    if results.is_file():
        counts = checks.read_counts(results)
        for det in plan["detectors"]:
            bits = sum(n for (d, u, _), (n, _) in counts.items() if d == det and u == "1")
            items[det] = bits // plan["bits_per_symbol"]
    for det, n in items.items():
        if parts.get(f"{det}_sweep_s"):
            parts[f"{det}_subcarriers_per_s"] = n / parts[f"{det}_sweep_s"]
    identical = None
    if plan["seed"] == plan["reference_seed"] and not plan["tiny"] and results.is_file():
        identical = results.read_bytes() == Path(plan["reference"]).read_bytes()
    return ops, sum(items.values()), identical


def prepare_bound(plan, imnomarc, tracer):
    from imnomarc import SystemConfig, build_super_alphabet, noise_variance

    union_bound_ber = imnomarc.union_bound_ber  # the traced one when tracing
    work = {}
    for label, part in plan["parts"].items():
        cfg = SystemConfig(**part["system"])
        alphabet = build_super_alphabet(cfg)
        calls = [(noise_variance(snr, cfg.total_power), user) for snr, user in part["calls"]]
        work[label] = (alphabet, calls)
    parts, values = {}, []

    def timed():
        for label, (alphabet, calls) in work.items():
            t = time.perf_counter()
            for sigma2, user in calls:
                try:
                    values.append(union_bound_ber(alphabet, sigma2, user=user))
                except Exception:
                    traceback.print_exc()
                    values.append(None)
            parts[f"bound_{label}_s"] = time.perf_counter() - t

    return timed, {"parts": parts, "work": work, "values": values}


def check_bound(plan, state):
    import checks

    work, values = state["work"], state["values"]
    if plan["corrupt"]:
        values = [None if v is None else v * (1 + 1e-3) for v in values]
    ops, items, found = [], 0, iter(values)
    for label, (alphabet, calls) in work.items():
        for sigma2, user in calls:
            oracle = checks.bound_oracle(alphabet, sigma2, user)
            ops.append((f"{label}:user={user}:sigma2={sigma2:.4g}",
                        checks.check_bound(next(found, None), oracle)))
            items += len(alphabet) * (len(alphabet) - 1)
    return ops, items, None


KINDS = {"ber": (prepare_ber, check_ber), "bound": (prepare_bound, check_bound)}


def main() -> None:
    plan = json.loads(Path(sys.argv[1]).read_text())
    t_spawn = float(sys.argv[2])
    t = time.monotonic()
    import imnomarc
    import_s = time.monotonic() - t

    tracer = None
    if plan["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(imnomarc)
    prepare, check = KINDS[plan["kind"]]
    timed, state = prepare(plan, imnomarc, tracer)

    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.monotonic()
    try:
        timed()
    except Exception:
        traceback.print_exc()
    t1 = time.monotonic()
    r1 = resource.getrusage(resource.RUSAGE_SELF)

    ops, items, identical = check(plan, state)
    out = {
        "setup_s": t0 - t_spawn,
        "result_s": t1 - t0,
        "items": items,
        "peak_rss_mb": r1.ru_maxrss / 1024,
        "parts": state["parts"],
        "process": {"import_s": import_s,
                    "user_cpu_s": r1.ru_utime - r0.ru_utime,
                    "sys_cpu_s": r1.ru_stime - r0.ru_stime,
                    "minflt": r1.ru_minflt - r0.ru_minflt},
        "ops": ops,
        "identical": identical,
    }
    if tracer:
        from spans import layer_metrics
        out["layers"] = layer_metrics(tracer.summary())
        tracer.write(Path(plan["out"]) / "spans.jsonl")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
