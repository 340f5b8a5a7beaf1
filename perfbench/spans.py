"""Spans around finsat's public calls, and the per-layer metrics made from them.

``Tracer.install`` replaces each traced function, in every loaded finsat
module that refers to it, with a wrapper that records a span: name, parent
span, start, end and a few counts read from the arguments and result.  Calls
made inside finsat are therefore traced too (``decide`` calling
``find_model``, ``pipeline_verify`` calling everything).  ``evaluate`` is
wrapped everywhere but in ``finsat.logic`` itself, so the spans show calls
into the logic layer, not its internal use by the typed engine's tables.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time

TRACED = {
    "parsing": ("parse_formula",),
    "normal_forms": ("to_transitive_nf", "to_standard_nf", "to_basic"),
    "solver": ("decide", "find_model"),
    "logic": ("evaluate",),
    "resolution": ("to_spread", "eliminate_binaries", "reconstruct_model"),
    "cliques": ("cliquify", "bound_cliques", "abstract_model", "expand_model"),
    "factorization": ("factorize_for", "thin"),
    "cuts": ("shrink_block_count",),
    "subblocks": ("shrink_blocks",),
    "verify": ("pipeline_verify",),
}

LOGICS = ("l2-1po-u", "l2-1po", "l2-1t")
SIZES = range(2, 8)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


def _label(name: str, args, kwargs) -> str:
    if name == "solver.find_model":
        return f"k{_arg(args, kwargs, 2, 'size')}"
    if name == "verify.pipeline_verify":
        return _arg(args, kwargs, 2, "logic")
    return ""


def _info(name: str, args, result) -> dict:
    """Counts of one call that returned, read through public fields only."""
    if name == "solver.find_model":
        return {"sat": result is not None}
    if name == "verify.pipeline_verify":
        statuses = [s.status for s in result.stages]
        return {
            "verify.stages_passed": statuses.count("pass"),
            "verify.stages_skipped": statuses.count("skipped"),
        }
    if name == "normal_forms.to_transitive_nf":
        return {"normal_forms.multiplicity": result[0].multiplicity}
    if name == "normal_forms.to_basic":
        return {"normal_forms.basic_formulas": len(result[0])}
    if name == "resolution.eliminate_binaries":
        return {"resolution.sig_prime_unary": len(result.sig_prime.unary)}
    if name == "cliques.cliquify":
        return {
            "cliques.sig_hat_unary": len(result.sig_hat.unary),
            "cliques.sig_hat_binary": len(result.sig_hat.binary),
            "cliques.diatoms": result.table.n_diatoms,
        }
    if name == "factorization.factorize_for":
        return {"factorization.blocks": result.n_blocks}
    if name == "cuts.shrink_block_count":
        return {"cuts.blocks_removed": args[0].n_blocks - result.n_blocks}
    if name == "subblocks.shrink_blocks":
        return {"subblocks.elements_removed": args[0].tpo.size - result.tpo.size}
    return {}


class Tracer:
    def __init__(self) -> None:
        # [name, parent index, start, end, counts, label]; counts stay
        # empty when the call raised.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, {}, _label(name, args, kwargs)]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            span[4] = _info(name, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "finsat" or key.startswith("finsat.")]
        for mod_name, fns in TRACED.items():
            home = importlib.import_module(f"finsat.{mod_name}")
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for m in modules:
                    if fn_name == "evaluate" and m is home:
                        continue
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def take(self) -> list[list]:
        """The spans recorded since the last call."""
        out = self.spans[:]
        self.spans.clear()
        return out


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[3] - span[2] for span in spans]
    for _, parent, start, end, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# Spans whose self time is reported under another name.
RENAMED = {
    "solver.decide": "solver.decide_self",
    "cliques.abstract_model": "cliques.round_trip",
    "cliques.expand_model": "cliques.round_trip",
    "verify.pipeline_verify": "verify.pipeline_verify_self",
}
TIME_METRICS = tuple(
    dict.fromkeys(
        [f"{RENAMED.get(f'{m}.{f}', f'{m}.{f}')}_pct" for m, fns in TRACED.items() for f in fns]
        + [f"solver.find_model.k{k}_pct" for k in SIZES]
        + ["solver.find_model.sat_pct", "solver.find_model.nomodel_pct"]
        + [f"verify.pipeline_verify.{tag}_pct" for tag in LOGICS]
        + ["bench.untraced_pct"]
    )
)
COUNT_METRICS = (
    "solver.find_model_calls",
    "normal_forms.multiplicity",
    "normal_forms.basic_formulas",
    "resolution.sig_prime_unary",
    "cliques.sig_hat_unary",
    "cliques.sig_hat_binary",
    "cliques.diatoms",
    "factorization.blocks",
    "cuts.blocks_removed",
    "subblocks.elements_removed",
    "verify.stages_passed",
    "verify.stages_skipped",
    "trace.spans",
)
RUN_METRICS = ("setup.parse_formula_pct", "trace.pass_s", "trace.overhead_pct")


def layer_metrics(spans: list[list], wall: float) -> dict:
    """Per-layer metrics of one traced pass.

    Times are each layer's self time as a share of the pass's wall time, so
    that a layer a workload never calls reads 0 without posing as a time;
    the seconds are that share of ``trace.pass_s``.  Pipeline verification
    per logic is the inclusive time of its calls; ``bench.untraced_pct`` is
    the time outside every span.  Counts are summed over the pass.
    """
    share = dict.fromkeys(TIME_METRICS, 0.0)
    counts = dict.fromkeys(COUNT_METRICS, 0)
    for (name, parent, start, end, info, label), own in zip(spans, self_times(spans)):
        share[f"{RENAMED.get(name, name)}_pct"] += own
        if name == "solver.find_model":
            counts["solver.find_model_calls"] += 1
            share[f"solver.find_model.{label}_pct"] += own
            share[f"solver.find_model.{'sat' if info.get('sat') else 'nomodel'}_pct"] += own
        if name == "verify.pipeline_verify":
            share[f"verify.pipeline_verify.{label}_pct"] += end - start
        if parent < 0:
            share["bench.untraced_pct"] -= end - start
        for k, v in info.items():
            if k in counts:
                counts[k] += v
    share["bench.untraced_pct"] += wall
    counts["trace.spans"] = len(spans)
    return {**{k: 100.0 * v / wall for k, v in share.items()}, **counts}


def run_metrics(setup_spans, setup_wall, traced, untraced) -> dict:
    """The per-layer metrics of a traced run.

    ``traced`` holds (spans, elapsed wall, scaled pass time) per traced
    pass and ``untraced`` the scaled times of the untraced passes (see
    speed.py).  Shares are medians over the traced passes; counts come from
    the first, since they repeat.
    """
    per_pass = [layer_metrics(spans, elapsed) for spans, elapsed, _ in traced]
    out = {k: statistics.median(p[k] for p in per_pass) for k in TIME_METRICS}
    out.update((k, per_pass[0][k]) for k in COUNT_METRICS)
    parse = sum(
        own for span, own in zip(setup_spans, self_times(setup_spans)) if span[0] == "parsing.parse_formula"
    )
    out["setup.parse_formula_pct"] = 100.0 * parse / setup_wall
    traced_pass = statistics.median(scaled for _, _, scaled in traced)
    out["trace.pass_s"] = traced_pass
    out["trace.overhead_pct"] = 100.0 * (traced_pass / statistics.median(untraced) - 1.0)
    return out
