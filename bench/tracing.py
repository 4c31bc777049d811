"""Spans around calls into qig's public functions, installed from outside the package.

:meth:`Tracer.install` replaces each traced function by a wrapper on its
module and on every qig module that rebound it with ``from ... import``
(``analysis.to_spherical`` is ``bloch.to_spherical``), and wraps
``ProbModel.eval``/``grad`` on the class.  A span is
``(name, start, end, parent, op, detail)``: parent is the index of the
enclosing span or -1, op is the tag of the benchmark op that caused it.
Spans stay in memory until the run ends.

``_dual`` has no public entry point of its own; its cost shows in the
spans of its callers, ``infogeo.fisher_information`` and
``estimator.mle_fit``.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import sys
import time
from collections import defaultdict

#: layer -> traced public functions; None means every function in __all__
LAYERS = {
    "cli": ("main",),
    "acceptance": ("run_all",),
    "bloch": ("to_spherical", "to_cartesian", "jacobian", "congruence_to_spherical"),
    "infogeo": ("helstrom_batch", "helstrom_cartesian", "helstrom_inverse",
                "monotone_metric", "g_function", "fisher_information"),
    "povm": ("closed_form_batch", "fisher_closed_form", "fisher_spherical_diag",
             "gm_trace_reference"),
    "analysis": ("volume_integral", "min_dominating_scalar", "ball_grid", "scan_dominance",
                 "curve_sample", "gm_trace", "scaled_curve_intersection"),
    "coding": None,
    "estimator": ("efficiency_report", "sample_counts", "mle_fit"),
}

INFOGEO_SCALAR = ("helstrom_cartesian", "helstrom_inverse", "monotone_metric", "g_function")
POVM_SCALAR = ("fisher_closed_form", "fisher_spherical_diag", "gm_trace_reference")
MODEL_KEYS = {"vidal-N2": "vidal2", "vidal-N3": "vidal3", "quadrinomial": "quad"}
#: bytes of one float64 (3, 3) matrix, the output of closed_form_batch per point
MATRIX_BYTES = 72


def _points(xyz) -> int:
    """Number of points in an (..., 3) array."""
    return math.prod(xyz.shape[:-1])


#: extra detail recorded on a span, from (args, result)
DETAIL = {
    "infogeo.helstrom_batch": lambda a, r: _points(a[0]),
    "povm.closed_form_batch": lambda a, r: (a[0], _points(a[1])),
    "analysis.volume_integral": lambda a, r: a[0],
    "analysis.min_dominating_scalar": lambda a, r: a[0],
    "analysis.curve_sample": lambda a, r: a[0],
    "estimator.efficiency_report": lambda a, r: MODEL_KEYS[a[0].model.name],
    "estimator.mle_fit": lambda a, r: (r.iterations, r.converged),
}


class Tracer:
    """Collects spans while installed; ``op`` tags every span with the current op."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        detail = DETAIL.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op,
                              detail(args, result) if detail and result is not None else None)
        return traced

    def install(self) -> None:
        """Replace every traced function by its wrapper (wrappers are built once)."""
        if not self._patches:
            self._patches = self._plan()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without leaving spans."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def _plan(self) -> list:
        from qig import infogeo

        modules = [m for k, m in sys.modules.items() if k == "qig" or k.startswith("qig.")]
        patches = []
        for layer, names in LAYERS.items():
            mod = sys.modules[f"qig.{layer}"]
            if names is None:
                names = [n for n in mod.__all__
                         if callable(getattr(mod, n)) and not isinstance(getattr(mod, n), type)]
            for fname in names:
                orig = getattr(mod, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                patches += [(m, attr, orig, wrapped) for m in modules
                            for attr, val in vars(m).items() if val is orig]
        for meth in ("eval", "grad"):
            orig = vars(infogeo.ProbModel)[meth]
            patches.append((infogeo.ProbModel, meth, orig,
                            self._wrap(f"infogeo.ProbModel.{meth}", orig)))
        return patches


def layer_metrics(spans: list, ops: set) -> dict:
    """Per-layer counts and times from the closed spans of the given ops."""
    mine = [i for i, s in enumerate(spans) if s[4] in ops]
    children = defaultdict(float)
    by_name = defaultdict(list)
    for i in mine:
        name, start, end, parent, _, _ = spans[i]
        if parent >= 0:
            children[parent] += end - start
        by_name[name].append(i)

    def group(names):
        return [i for n in names for i in by_name.get(n, ())]

    def busy(names):
        """Wall time inside the group, nested calls within the group counted once."""
        names = set(names)
        total = 0.0
        for i in group(names):
            p = spans[i][3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                total += spans[i][2] - spans[i][1]
        return total

    def dur(i):
        return spans[i][2] - spans[i][1]

    m = {}
    layer_names = {layer: [n for n in by_name if n.startswith(layer + ".")] for layer in LAYERS}
    m["cli.main_s"] = statistics.fmean([dur(i) for i in by_name["cli.main"]]) \
        if by_name["cli.main"] else 0.0
    m["acceptance.run_all_s"] = sum(dur(i) for i in by_name["acceptance.run_all"])
    m["bloch.calls"] = len(group(layer_names["bloch"]))
    m["bloch.busy_s"] = busy(layer_names["bloch"])

    hb = by_name["infogeo.helstrom_batch"]
    m["infogeo.helstrom_batch.calls"] = len(hb)
    m["infogeo.helstrom_batch.points"] = sum(spans[i][5] or 0 for i in hb)
    m["infogeo.helstrom_batch.busy_s"] = busy(["infogeo.helstrom_batch"])
    scalar = [f"infogeo.{n}" for n in INFOGEO_SCALAR]
    m["infogeo.scalar.calls"] = len(group(scalar))
    m["infogeo.scalar.busy_s"] = busy(scalar)
    m["infogeo.fisher_information.calls"] = len(by_name["infogeo.fisher_information"])
    m["infogeo.fisher_information.busy_s"] = busy(["infogeo.fisher_information"])
    pm = ["infogeo.ProbModel.eval", "infogeo.ProbModel.grad"]
    m["infogeo.ProbModel.calls"] = len(group(pm))
    m["infogeo.ProbModel.busy_s"] = busy(pm)

    cfb = by_name["povm.closed_form_batch"]
    for n in (3, 4, 5, 6):
        idx = [i for i in cfb if spans[i][5] and spans[i][5][0] == n]
        m[f"povm.closed_form_batch.n{n}.calls"] = len(idx)
        m[f"povm.closed_form_batch.n{n}.points"] = sum(spans[i][5][1] for i in idx)
        m[f"povm.closed_form_batch.n{n}.busy_s"] = sum(dur(i) for i in idx)
    m["povm.closed_form_batch.bytes_out"] = MATRIX_BYTES * sum(
        spans[i][5][1] for i in cfb if spans[i][5])
    scalar = [f"povm.{n}" for n in POVM_SCALAR]
    m["povm.scalar.calls"] = len(group(scalar))
    m["povm.scalar.busy_s"] = busy(scalar)

    for n in (2, 3, 4, 5, 6):
        m[f"analysis.volume_integral.n{n}_s"] = sum(
            dur(i) for i in by_name["analysis.volume_integral"] if spans[i][5] == n)
    mds = by_name["analysis.min_dominating_scalar"]
    for n in (3, 4, 5, 6):
        idx = [i for i in mds if spans[i][5] == n]
        m[f"analysis.min_dominating_scalar.n{n}_s"] = sum(dur(i) for i in idx)
        m[f"analysis.min_dominating_scalar.n{n}.kernel_calls"] = sum(
            1 for j in cfb if spans[j][3] in idx)
    m["analysis.ball_grid.calls"] = len(by_name["analysis.ball_grid"])
    m["analysis.ball_grid.busy_s"] = busy(["analysis.ball_grid"])
    m["analysis.scan_dominance_s"] = busy(["analysis.scan_dominance"])
    for q in ("gm_scaled", "yl_scaled", "qb_scaled", "entry11_over_N", "g_functions"):
        m[f"analysis.curve_sample.{q}_s"] = sum(
            dur(i) for i in by_name["analysis.curve_sample"] if spans[i][5] == q)
    m["analysis.gm_trace.calls"] = len(by_name["analysis.gm_trace"])
    m["analysis.gm_trace.busy_s"] = busy(["analysis.gm_trace"])
    m["analysis.scaled_curve_intersection_s"] = busy(["analysis.scaled_curve_intersection"])

    m["coding.calls"] = len(group(layer_names["coding"]))
    m["coding.busy_s"] = busy(layer_names["coding"])

    for key in MODEL_KEYS.values():
        m[f"estimator.efficiency_report.{key}_s"] = sum(
            dur(i) for i in by_name["estimator.efficiency_report"] if spans[i][5] == key)
    m["estimator.sample_counts.busy_s"] = busy(["estimator.sample_counts"])
    fits = by_name["estimator.mle_fit"]
    m["estimator.mle_fit.calls"] = len(fits)
    m["estimator.mle_fit.busy_s"] = busy(["estimator.mle_fit"])
    m["estimator.mle_fit.p50_s"] = statistics.median(dur(i) for i in fits) if fits else 0.0
    m["estimator.mle_fit.iterations"] = sum(spans[i][5][0] for i in fits if spans[i][5])
    m["estimator.mle_fit.converged_ratio"] = (
        sum(1 for i in fits if spans[i][5] and spans[i][5][1]) / len(fits) if fits else 0.0)

    self_s = defaultdict(float)
    for i in mine:
        self_s[spans[i][0].split(".", 1)[0]] += dur(i) - children[i]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    return m
