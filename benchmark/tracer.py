"""Span tracer that rebinds frametrace's public layer functions from outside.

``Tracer.install()`` replaces each function in ``TARGETS`` with a wrapper
that records a span (name, start, end, parent, job, raised).  Because
``from .x import f`` copies the binding, the wrapper is also bound under every
name in every loaded ``frametrace`` module that held the original.  The two
``InvariantProjection`` methods are wrapped on the class.  Per-element helpers
(``mul``, ``inv``, ``as_vector``, the WH ``index``/``coords``) are never
wrapped: their cost stays in the caller's self time.

A target that no longer exists is listed in ``absent`` and reports 0; it
never stops the run.  Spans are kept in memory and written once by ``dump``.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

MIB = float(1 << 20)


def _attr(module: str, name: str):
    """``frametrace.<module>.<name>``, or None when a later version dropped it."""
    try:
        return getattr(importlib.import_module(f"frametrace.{module}"), name, None)
    except ImportError:
        return None


# Counter hooks: (args, result) -> {counter: increment}, computed from
# argument shapes, never from timing.
def _calls(counter: str):
    return lambda args, result: {counter: 1}


def _rep_tensor(args, result):
    n = int(args[0].order)
    return {"groups.regular_rep_calls": 1, "groups.rep_tensor_mb": n ** 3 * 16 / MIB}


def _reduce(args, result):
    return {"commutant.reduce_in": len(args[0]), "commutant.reduce_kept": len(result)}


def _adjoint_ops(args, result):
    length, a, b = args[:3]
    return {"gabor.adjoint_ops_mb": a * b * length ** 2 * 16 / MIB}


def _read(args, result):
    return {"io.bytes_read": os.path.getsize(args[0])}


def _written(args, result):
    return {"io.bytes_written": os.path.getsize(args[1])}


#: (module, function, metric the span's self time adds to, counter hook).
TARGETS = (
    ("groups", "restrict_rep", "groups.restrict_s", None),
    ("groups", "left_regular_rep", "groups.regular_rep_s", _rep_tensor),
    ("groups", "builtin_group", "groups.build_s", None),
    ("groups", "group_from_cayley", "groups.build_s", None),
    ("groups", "convolution_operator", "groups.convolution_s", None),
    ("frames", "coefficient_operator", "frames.coef_op_s", _calls("frames.coef_op_calls")),
    ("frames", "canonical_dual", "frames.dual_s", None),
    ("frames", "tighten", "frames.dual_s", None),
    ("frames", "is_admissible_pair", "frames.admissible_s", None),
    ("frames", "projection_from_spanning", "frames.projection_s", None),
    ("commutant", "regular_commutant_basis", "commutant.basis_s", None),
    ("commutant", "commutant_basis", "commutant.basis_s", None),
    ("commutant", "reduced_commutant", "commutant.reduce_s", _reduce),
    ("commutant", "is_tracial_pair", "commutant.tracial_s", None),
    ("plancherel", "builtin_irreps", "plancherel.irreps_s", None),
    ("plancherel", "validate_irreps", "plancherel.irreps_s", None),
    ("plancherel", "plancherel_transform", "plancherel.transform_s", None),
    ("plancherel", "inverse_plancherel", "plancherel.transform_s", None),
    ("plancherel", "parseval_residual", "plancherel.transform_s", None),
    ("plancherel", "fiber_projections", "plancherel.fiber_s", None),
    ("plancherel", "fiber_admissibility_check", "plancherel.fiber_s", None),
    ("plancherel", "rank_measure", "plancherel.fiber_s", None),
    ("gabor", "wexler_raz_check", "gabor.wr_s", None),
    ("gabor", "adjoint_lattice_ops", "gabor.wr_s", _adjoint_ops),
    ("gabor", "gabor_coefficient_map", "gabor.coef_map_s", None),
    ("gabor", "gabor_frame_operator", "gabor.frame_op_s", None),
    ("gabor", "gabor_canonical_dual", "gabor.dual_s", None),
    ("gabor", "frame_bounds_ratio", "gabor.dual_s", None),
    ("gabor", "wh_group_build", "gabor.wh_build_s", _calls("gabor.wh_builds")),
    ("gabor", "wh_bridge_check", "gabor.bridge_s", None),
    ("gabor", "wh_rep", "gabor.bridge_s", None),
    ("numerics", "eig_hermitian", "numerics.eig_s", _calls("numerics.eig_calls")),
    ("numerics", "inv_psd", "numerics.eig_s", None),
    ("numerics", "inv_sqrt_psd", "numerics.eig_s", None),
    ("numerics", "orthonormal_columns", "numerics.svd_s", None),
    ("io", "load_group", "io.load_s", _read),
    ("io", "load_vector", "io.load_s", _read),
    ("io", "load_vectors", "io.load_s", _read),
    ("io", "load_window", "io.load_s", _read),
    ("io", "load_irreps", "io.load_s", _read),
    ("io", "save_vector", "io.save_s", _written),
    ("io", "save_window", "io.save_s", _written),
    ("io", "save_group", "io.save_s", _written),
    ("reporting", "report_dumps", "reporting.dumps_s", None),
)

#: (module, class, method, metric) wrapped on the class itself.
METHODS = (
    ("frames", "InvariantProjection", "validate", "frames.projection_s"),
    ("frames", "InvariantProjection", "range_basis", "frames.projection_s"),
)

#: Metric of the root span around each ``cli.main`` call.
ROOT = "cli.self_s"


class Tracer:
    """Collects spans and counters for the jobs run while installed."""

    def __init__(self):
        self.spans = []                 # [name, start, end, parent, job, raised]
        self.counts = defaultdict(Counter)
        self.hook_errors = 0
        self.absent = []
        self.metric_of = {"cli.main": ROOT}
        self.job = None
        self._stack = []
        self._restore = []

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.job, False]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                try:
                    tracer.counts[tracer.job].update(hook(args, result))
                except Exception:
                    # A changed signature must not fail the job; it shows as a count.
                    tracer.hook_errors += 1
            return result

        return traced

    def run_job(self, job: int, main, argv):
        """Call ``main(argv)`` under the root span of job ``job``."""
        self.job = job
        try:
            return self.wrap("cli.main", main)(argv)
        finally:
            self.job = None

    def install(self) -> None:
        self.absent = []
        loaded = [m for k, m in sys.modules.items() if k == "frametrace" or k.startswith("frametrace.")]
        for mod_name, attr, metric, hook in TARGETS:
            name = f"{mod_name}.{attr}"
            orig = _attr(mod_name, attr)
            if orig is None:
                self.absent.append(name)
                continue
            self.metric_of[name] = metric
            wrapper = self.wrap(name, orig, hook)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, orig))
        for mod_name, cls_name, meth, metric in METHODS:
            name = f"{mod_name}.{cls_name}.{meth}"
            cls = _attr(mod_name, cls_name)
            orig = vars(cls).get(meth) if cls is not None else None
            if orig is None:
                self.absent.append(name)
                continue
            self.metric_of[name] = metric
            setattr(cls, meth, self.wrap(name, orig))
            self._restore.append((cls, meth, orig))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    def dump(self, path: str) -> None:
        payload = {
            "fields": ["name", "start", "end", "parent", "job", "raised"],
            "spans": self.spans,
            "counts": {str(job): dict(c) for job, c in self.counts.items()},
            "metric_of": self.metric_of,
            "absent": self.absent,
            "hook_errors": self.hook_errors,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def self_times(spans) -> list:
    """Duration minus the time covered by direct children, per span."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
