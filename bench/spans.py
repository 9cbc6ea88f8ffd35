"""Span tracing from outside the program.

The tracer replaces the module attributes that imnomarc's own callers look
up (``imnomarc.harness.ml_block`` and so on) with wrappers that record one
span per call: name, start, end and the id of the enclosing span. Spans stay
in memory until the run ends. A span's self time is its duration minus the
part its child spans cover; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent id, extra]
        self._stack: list[int] = []

    def wrap(self, name, fn, extra=None, faults=False):
        """Return ``fn`` recording a span per call. ``extra(args, result)``
        adds counts to the span; ``faults`` records the minor-fault delta."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if faults else 0
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            counts = extra(args, out) if extra else {}
            if faults:
                counts["minflt"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt
            rec[4] = counts or None
            return out

        return traced

    def install(self, imnomarc):
        """Wrap every layer boundary the benchmark reports on."""
        from imnomarc import analysis, cli, harness
        from imnomarc.detectors import flops_ml, flops_sic

        def ml_counts(args, out):
            y, alphabet = args[0], args[2]
            n = len(y)
            return {"subcarriers": n, "ops": flops_ml(alphabet.cfg) * n,
                    "bytes": n * len(alphabet.x) * 16}

        def sic_counts(args, out):
            y, cfg, user = args[0], args[2], args[3]
            n = len(y)
            # The virtual user N+1 runs every stage, as user N does.
            return {"subcarriers": n,
                    "ops": flops_sic(cfg, min(user, cfg.n_users)) * n}

        def point_counts(args, out):
            spec = args[0]
            return {"blocks": out[0].bits_sent
                    // (spec.n_subcarriers * spec.cfg.bits_per_symbol)}

        def bound_counts(args, out):
            a = len(args[0].x)
            return {"pairs": a * (a - 1)}

        for mod, attr, name, extra, faults in [
            (harness, "run_point", "harness.run_point", point_counts, False),
            (harness, "build_super_alphabet", "superposition.build_super_alphabet", None, False),
            (harness, "draw_channel", "channel.draw_channel", None, False),
            (harness, "apply_channel", "channel.apply_channel", None, False),
            (harness, "ml_block", "detectors.ml_block", ml_counts, True),
            (harness, "sic_block", "detectors.sic_block", sic_counts, False),
            (cli, "run_sweep", "harness.run_sweep", None, False),
            (cli, "persist", "harness.persist", None, False),
            (analysis, "pep_rayleigh", "analysis.pep_rayleigh", None, False),
        ]:
            if not hasattr(mod, attr):  # a layer boundary that has moved reports 0
                print(f"spans: {mod.__name__}.{attr} not found", file=sys.stderr)
                continue
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), extra, faults))
        bound = self.wrap("analysis.union_bound_ber", analysis.union_bound_ber,
                          bound_counts)
        analysis.union_bound_ber = imnomarc.union_bound_ber = bound

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds and summed counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for sid, (name, start, end, _, counts) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child[sid]
            for key, value in (counts or {}).items():
                agg[key] += value
        return {name: dict(agg) for name, agg in out.items()}

    def write(self, path):
        """Spans as JSON lines; times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for sid, (name, start, end, parent, counts) in enumerate(self.spans):
                f.write(json.dumps([sid, name, round((start - t0) * 1e6, 1),
                                    round((end - t0) * 1e6, 1), parent, counts]))
                f.write("\n")


# (span name, aggregates reported) for every traced layer boundary.
LAYER_FIELDS = [
    ("cli.main", ("self_s",)),
    ("harness.run_sweep", ("s", "self_s")),
    ("harness.run_point", ("calls", "s", "self_s")),
    ("harness.persist", ("s",)),
    ("superposition.build_super_alphabet", ("calls", "s")),
    ("channel.draw_channel", ("calls", "s")),
    ("channel.apply_channel", ("calls", "s")),
    ("detectors.ml_block", ("calls", "s", "subcarriers", "ops", "bytes", "minflt")),
    ("detectors.sic_block", ("calls", "s", "subcarriers", "ops")),
    ("analysis.union_bound_ber", ("calls", "s", "self_s")),
    ("analysis.pep_rayleigh", ("calls", "s")),
]


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics from ``Tracer.summary()``; a layer the workload does
    not reach reports zero."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    out = {f"{name}.{key}": get(name, key) for name, keys in LAYER_FIELDS for key in keys}
    blocks = get("harness.run_point", "blocks")
    pairs = get("analysis.union_bound_ber", "pairs")
    out["harness.blocks"] = blocks
    out["harness.self_us_per_block"] = (
        get("harness.run_point", "self_s") / blocks * 1e6 if blocks else 0.0)
    out["analysis.pairs"] = pairs
    out["analysis.pep_per_pair"] = (
        get("analysis.pep_rayleigh", "calls") / pairs if pairs else 0.0)
    return out
