"""Per-layer spans and counters for the traced benchmark run.

Spans are recorded only here, by wrappers around the calls into each
photonstat module.  Modules import names directly (``from .ensemble import
random_cloud``), so every wrapper is installed at the place the name is looked
up, for example ``figures.random_cloud`` and ``quantum.structure_factor``.
The contraction is timed at ``kernels.accumulate_product``: the per-atom
factor generator of ``multilinear_G`` runs lazily inside
``squarefree_top_coefficient``, so timing that function would count factor
building as contraction.

A span's self time is its duration minus the part of it that child spans
cover.  Spans opened by worker threads with no open span of their own are
children of the innermost span open on the main thread, which is the
``figures`` call waiting on the pool.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); class attributes are given as "Class.method".
SITES = [
    ("figures", "random_cloud", "ensemble.random_cloud"),
    ("ensemble", "random_cloud", "ensemble.random_cloud"),
    ("quantum", "structure_factor", "ensemble.structure_factor"),
    ("gmt", "structure_factor", "ensemble.structure_factor"),
    ("ensemble", "structure_factor", "ensemble.structure_factor"),
    ("quantum", "phase_matrix", "ensemble.phase_matrix"),
    ("classical", "phase_matrix", "ensemble.phase_matrix"),
    ("figures", "pulse_state", "states"),
    ("figures", "driven_steady_state", "states"),
    ("figures", "pulse_area_for_ratio", "states"),
    ("figures", "state_from_config", "states"),
    ("figures", "classical_model_from_config", "states"),
    ("figures", "classical_model_for_ratio", "states"),
    ("states", "SingleAtomState.coherence_zeroed", "states"),
    ("quantum", "multilinear_G", "quantum.multilinear_G"),
    ("gmt", "correlate", "quantum.correlate"),
    ("figures", "correlate", "quantum.correlate"),
    ("quantum", "intensity", "quantum.intensity"),
    ("figures", "intensity", "quantum.intensity"),
    ("quantum", "forward_G_equal", "quantum.closed_form"),
    ("quantum", "forward_G_unequal", "quantum.closed_form"),
    ("quantum", "forward_intensity", "quantum.closed_form"),
    ("figures", "forward_g_equal_ratio", "quantum.closed_form"),
    ("figures", "forward_g_unequal_ratio_abs", "quantum.closed_form"),
    ("figures", "deviation_coh_forward_ratio", "quantum.closed_form"),
    ("gmt", "deviation_coh_forward_ratio", "quantum.closed_form"),
    ("kernels", "accumulate_product", "kernels.accumulate_product"),
    ("figures", "classical_mc_G", "classical.mc_G"),
    ("figures", "classical_exact_G", "classical.exact_G"),
    ("figures", "classical_forward_g", "classical.closed_form"),
    ("figures", "classical_forward_g_unequal", "classical.closed_form"),
    ("figures", "classical_intensity", "classical.closed_form"),
    ("figures", "classical_intensity_at", "classical.closed_form"),
    ("figures", "deviation", "gmt.deviation"),
    ("gmt", "gmt_predict", "gmt.gmt_predict"),
    ("figures", "deviation_coh_equal_directions", "gmt.deviation_coh_equal_directions"),
    ("gmt", "check_conditions", "gmt.check_conditions"),
    ("figures", "check_conditions", "gmt.check_conditions"),
    ("gmt", "enumerate_pair_partitions", "combinatorics"),
    ("gmt", "falling_factorial", "combinatorics"),
    ("classical", "classical_count_C", "combinatorics"),
    ("cli", "run_figure", "figures"),
    ("cli", "run_deviation", "figures"),
    ("cli", "run_classical", "figures"),
    ("cli", "run_conditions", "figures"),
    ("cli", "run_correlate", "figures"),
    ("figures", "fig3_deviation_matrix", "figures"),
    ("figures", "_parallel_map", "figures"),
    ("config", "ResultTable.write_csv", "config.csv"),
    ("cli", "write_sidecar", "config.sidecar"),
]

# Metric name -> (unit, source).  A source is ("s" | "self_s" | "calls", span)
# or ("count", counter).
PER_LAYER = {
    "ensemble.random_cloud.s": ("s", ("s", "ensemble.random_cloud")),
    "ensemble.random_cloud.calls": ("count", ("calls", "ensemble.random_cloud")),
    "ensemble.random_cloud.distinct_ratio": ("ratio", ("ratio", "cloud")),
    "ensemble.structure_factor.s": ("s", ("s", "ensemble.structure_factor")),
    "ensemble.structure_factor.calls": ("count", ("calls", "ensemble.structure_factor")),
    "ensemble.structure_factor.atom_evals": ("count", ("count", "sf_atom_evals")),
    "ensemble.structure_factor.distinct_ratio": ("ratio", ("ratio", "sf")),
    "ensemble.phase_matrix.s": ("s", ("s", "ensemble.phase_matrix")),
    "states.s": ("s", ("s", "states")),
    "states.calls": ("count", ("calls", "states")),
    "quantum.multilinear_G.self_s": ("s", ("self_s", "quantum.multilinear_G")),
    "quantum.multilinear_G.calls": ("count", ("calls", "quantum.multilinear_G")),
    "quantum.correlate.calls": ("count", ("calls", "quantum.correlate")),
    "quantum.intensity.self_s": ("s", ("self_s", "quantum.intensity")),
    "quantum.closed_form.s": ("s", ("s", "quantum.closed_form")),
    "quantum.closed_form.calls": ("count", ("calls", "quantum.closed_form")),
    "kernels.accumulate_product.s": ("s", ("s", "kernels.accumulate_product")),
    "kernels.accumulate_product.calls": ("count", ("calls", "kernels.accumulate_product")),
    "kernels.factor_rows": ("count", ("count", "factor_rows")),
    "kernels.factor_bytes": ("bytes", ("count", "factor_bytes")),
    "kernels.submask_ops": ("count", ("count", "submask_ops")),
    "classical.mc_G.s": ("s", ("s", "classical.mc_G")),
    "classical.mc_G.sample_atom_evals": ("count", ("count", "mc_sample_atom_evals")),
    "classical.exact_G.self_s": ("s", ("self_s", "classical.exact_G")),
    "classical.exact_G.calls": ("count", ("calls", "classical.exact_G")),
    "classical.closed_form.s": ("s", ("s", "classical.closed_form")),
    "gmt.deviation.self_s": ("s", ("self_s", "gmt.deviation")),
    "gmt.gmt_predict.self_s": ("s", ("self_s", "gmt.gmt_predict")),
    "gmt.gmt_predict.calls": ("count", ("calls", "gmt.gmt_predict")),
    "gmt.deviation_coh_equal_directions.self_s": (
        "s", ("self_s", "gmt.deviation_coh_equal_directions")),
    "gmt.check_conditions.s": ("s", ("s", "gmt.check_conditions")),
    "combinatorics.s": ("s", ("s", "combinatorics")),
    "combinatorics.calls": ("count", ("calls", "combinatorics")),
    "figures.self_s": ("s", ("self_s", "figures")),
    "figures.tasks": ("count", ("count", "tasks")),
    "config.csv.s": ("s", ("s", "config.csv")),
    "config.csv.bytes": ("bytes", ("count", "csv_bytes")),
    "config.sidecar.s": ("s", ("s", "config.sidecar")),
    "cli.main.self_s": ("s", ("self_s", "cli.main")),
}


def _fingerprint(ensemble) -> tuple:
    pos = ensemble.positions
    return (pos.shape[0], tuple(pos[0].tolist()), tuple(pos[-1].tolist()))


def _count_cloud(tracer, result, *args, **kwargs):
    prov = result.provenance
    tracer.distinct["cloud"].add(
        (result.n, prov.get("seed"), repr(prov.get("distribution")), prov.get("realization"))
    )
    tracer.counts["cloud_calls"] += 1


def _count_sf(tracer, result, ensemble, k, *args, **kwargs):
    tracer.counts["sf_atom_evals"] += ensemble.n
    tracer.counts["sf_calls"] += 1
    key = np.asarray(k, dtype=float).tolist()
    tracer.distinct["sf"].add((_fingerprint(ensemble), tuple(key)))


def _count_kernel(tracer, result, state, factors, *args, **kwargs):
    rows = factors.shape[0]
    width = state.shape[0]
    tracer.counts["factor_rows"] += rows
    tracer.counts["factor_bytes"] += rows * width * 16
    tracer.counts["submask_ops"] += rows * 3 ** (width.bit_length() - 1)


def _count_mc(tracer, result, model, ensemble, *args, **kwargs):
    tracer.counts["mc_sample_atom_evals"] += result.samples * ensemble.n


def _count_tasks(tracer, result, fn, items, *args, **kwargs):
    tracer.counts["tasks"] += len(items)


def _count_csv(tracer, result, table, path, *args, **kwargs):
    tracer.counts["csv_bytes"] += os.path.getsize(path)


COUNTERS = {
    ("figures", "random_cloud"): _count_cloud,
    ("ensemble", "random_cloud"): _count_cloud,
    ("quantum", "structure_factor"): _count_sf,
    ("gmt", "structure_factor"): _count_sf,
    ("ensemble", "structure_factor"): _count_sf,
    ("kernels", "accumulate_product"): _count_kernel,
    ("figures", "classical_mc_G"): _count_mc,
    ("figures", "_parallel_map"): _count_tasks,
    ("config", "ResultTable.write_csv"): _count_csv,
}
GENERATORS = {("gmt", "enumerate_pair_partitions")}
RATIO_CALLS = {"cloud": "cloud_calls", "sf": "sf_calls"}


def _union_length(intervals, lo: float, hi: float) -> float:
    covered = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            covered += stop - start
            end = stop
    return covered


class Tracer:
    """Spans and counters from wrappers installed at photonstat's lookup sites."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: defaultdict = defaultdict(float)
        self.distinct: defaultdict = defaultdict(set)
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._patched: list[tuple] = []
        self._totals: defaultdict = defaultdict(float)
        self._rounds = 0

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else 0
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stop = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, parent, start, stop))
            if counter is not None:
                counter(tracer, result, *args, **kwargs)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn):
        step = self.wrap(name, next)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            done = object()
            while (item := step(items, done)) is not done:
                yield item

        return wrapper

    def install(self, package: dict) -> None:
        """Wrap every site; ``package`` maps short module names to modules."""
        for mod_name, attr, span in SITES:
            owner = package[mod_name]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            key = (mod_name, attr)
            if key in GENERATORS:
                wrapped = self.wrap_generator(span, original)
            else:
                wrapped = self.wrap(span, original, COUNTERS.get(key))
            setattr(owner, path[-1], wrapped)
            self._patched.append((owner, path[-1], original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def end_round(self) -> None:
        """Fold the round's spans and counters into the running totals."""
        children = defaultdict(list)
        for _sid, _name, parent, start, stop in self.spans:
            children[parent].append((start, stop))
        for sid, name, _parent, start, stop in self.spans:
            self._totals[("s", name)] += stop - start
            self._totals[("self_s", name)] += stop - start - _union_length(
                children.get(sid, ()), start, stop
            )
            self._totals[("calls", name)] += 1
        for key, value in self.counts.items():
            self._totals[("count", key)] += value
        for key, seen in self.distinct.items():
            self._totals[("distinct", key)] += len(seen)
        self.spans.clear()
        self.counts.clear()
        self.distinct.clear()
        self._rounds += 1

    def metrics(self) -> dict:
        """Every per-layer metric, as a mean per round of the workload."""
        rounds = max(self._rounds, 1)
        out = {}
        for metric, (unit, (kind, key)) in PER_LAYER.items():
            if kind == "ratio":
                calls = self._totals[("count", RATIO_CALLS[key])]
                value = self._totals[("distinct", key)] / calls if calls else 0.0
            else:
                value = self._totals[(kind, key)] / rounds
            out[metric] = (value, unit)
        return out
