"""Per-layer tracing of liftkit from outside the package.

The tracer replaces names where their callers look them up (a module
attribute or a class method) with wrappers that record a span: name, start,
end, parent span and solve id.  Spans are kept in compact in-memory columns
and written out once, when the benchmark ends.  Alongside the spans the
wrappers keep running totals, so the per-layer metrics need no second pass:

* a span's *own* time is its duration minus the time covered by spans of
  other layers beneath it; calls nested inside the same layer (a CG matvec
  inside ``metric.apply_inv``, ``ritz_factorize`` inside
  ``augmented_restart``) stay part of the enclosing call's own time;
* a layer's self time is the summed own time of its outermost spans.

Nothing here changes what liftkit computes: every wrapper passes arguments
and results through untouched, and the benchmark checks that a traced solve
reproduces its untraced twin.
"""

from __future__ import annotations

import importlib
import math
import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

ENGINE_SPANS = ("partial_svd.augmented_restart", "partial_svd.subspace_iterate")
THRESHOLD_SPANS = ("thresholding.svt", "thresholding.evt")


def _engine_result(tracer, result, args):
    tracer.counters["restarts"] += result.restarts
    tracer.counters["converged"] += bool(result.converged)


def _threshold_result(tracer, result, args):
    tracer.counters["rank_sum"] += result.rank


def _storage_bytes(tracer, result, args):
    path = args[0]
    tracer.counters["storage_bytes"] += os.path.getsize(path) + os.path.getsize(str(path) + ".json")


def _fft_batch(tracer, args):
    # one batched 2-D FFT of count x (m2 x m1) complex points, counted from
    # array sizes (5 N log2 N flops per transform; input read plus output
    # written in complex128), not measured by hardware counters
    problem = args[0]
    n = problem.m2 * problem.m1
    count = problem.masks.count
    tracer.counters["fft_flop"] += 5.0 * n * math.log2(n) * count
    tracer.counters["fft_bytes"] += 2 * 16 * n * count


# (owner, attribute, span name, hook(tracer, result, args)); the owner is
# where the caller looks the name up, so a module attribute may be listed once
# per importing module
SPAN_TARGETS = [
    ("liftkit.solver", "run_primal_dual", "solver.run", None),
    ("liftkit.phase_retrieval", "run_primal_dual", "solver.run", None),
    ("liftkit.solver", "dual_step", "solver.dual_step", None),
    ("liftkit.solver", "primal_step", "solver.primal_step", None),
    ("liftkit.solver", "reweight_step", "solver.reweight", None),
    ("liftkit.solver", "svt", "thresholding.svt", _threshold_result),
    ("liftkit.solver", "evt", "thresholding.evt", _threshold_result),
    ("liftkit.thresholding", "augmented_restart", "partial_svd.augmented_restart", _engine_result),
    ("liftkit.thresholding", "subspace_iterate", "partial_svd.subspace_iterate", _engine_result),
    # the deflation probe imports augmented_restart from partial_svd at call time
    ("liftkit.partial_svd", "augmented_restart", "partial_svd.augmented_restart", _engine_result),
    ("liftkit.solver", "augmented_restart", "partial_svd.augmented_restart", _engine_result),
    ("liftkit.partial_svd", "lanczos_bidiagonalize", "partial_svd.lanczos_bidiagonalize", None),
    ("liftkit.partial_svd", "ritz_factorize", "partial_svd.ritz_factorize", None),
    ("liftkit.partial_svd", "orthonormalize", "metric.orthonormalize", None),
    ("liftkit.solver", "orthonormalize", "metric.orthonormalize", None),
    ("liftkit.metric:EuclideanMetric", "apply", "metric.apply", None),
    ("liftkit.metric:EuclideanMetric", "apply_inv", "metric.apply_inv", None),
    ("liftkit.metric:SobolevMetric", "apply", "metric.apply", None),
    ("liftkit.metric:SobolevMetric", "apply_inv", "metric.apply_inv", None),
    ("liftkit.metric:ReweightedMetric", "apply", "metric.apply", None),
    ("liftkit.metric:ReweightedMetric", "apply_inv", "metric.apply_inv", None),
    ("liftkit.metric:ReweightedMetric", "transform", "metric.transform", None),
    ("liftkit.lowrank:FactoredTensor", "right_action", "lowrank.action", None),
    ("liftkit.lowrank:FactoredTensor", "left_action", "lowrank.action", None),
    ("liftkit.lowrank:HermitianFactored", "action", "lowrank.action", None),
    ("liftkit.solver", "composed_right_action", "operators.composed_action", None),
    ("liftkit.solver", "composed_left_action", "operators.composed_action", None),
    ("liftkit.solver", "composed_hermitian_action", "operators.composed_action", None),
    ("liftkit.solver", "reweighted_composed_right", "operators.composed_action", None),
    ("liftkit.solver", "reweighted_composed_left", "operators.composed_action", None),
    ("liftkit.solver", "reweighted_composed_hermitian", "operators.composed_action", None),
    ("liftkit.solver", "lifted_apply", "operators.lifted_apply", None),
    ("liftkit.solver", "lifted_apply_quadratic", "operators.lifted_apply", None),
    ("liftkit.solver", "operator_norm", "operators.operator_norm", None),
    ("liftkit.phase_retrieval:MaskedFourierMap", "apply", "phase_retrieval.forward", None),
    ("liftkit.phase_retrieval:MaskedFourierMap", "sym_adjoint_action", "phase_retrieval.adjoint", None),
    ("liftkit.storage", "write_images", "storage.write", _storage_bytes),
    ("liftkit.storage", "write_data", "storage.write", _storage_bytes),
    ("liftkit.storage", "read_images", "storage.read", _storage_bytes),
    ("liftkit.storage", "read_data", "storage.read", _storage_bytes),
    ("liftkit.cli", "main", "cli.main", None),
]


def _oracle_action(tracer, args):
    tracer.counters["oracle_actions"] += 1


# (owner, attribute, hook(tracer, args)): counted at the boundary, no span
COUNT_TARGETS = [
    ("liftkit.partial_svd:ActionOracle", "right", _oracle_action),
    ("liftkit.partial_svd:ActionOracle", "left", _oracle_action),
    ("liftkit.phase_retrieval", "_masked_spectra", _fft_batch),
    # _sandwich adds the inverse transform to the forward one it requests
    ("liftkit.phase_retrieval", "_sandwich", _fft_batch),
]


def _resolve(owner):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Records spans and per-name totals while installed."""

    def __init__(self):
        self.names = []
        self.layer_of = []
        self._ids = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_solve = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.solve_id = -1
        self.missing = []
        self._patches = []
        self.n_all = Counter()
        self.n_outer = Counter()
        self.own_all = Counter()
        self.own_outer = Counter()
        self.incl_all = Counter()
        self.layer_self = Counter()
        self.pairs = Counter()
        self.counters = Counter()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(name.split(".", 1)[0])
        return self._ids[name]

    # -- recording -----------------------------------------------------

    def span(self, name, fn, hook=None):
        """Wrap ``fn`` so each call records a span called ``name``."""
        nid = self._id(name)
        layer = self.layer_of[nid]
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(parent[3] if parent is not None else -1)
            tracer.span_solve.append(tracer.solve_id)
            frame = [layer, 0.0, nid, idx]
            stack.append(frame)
            t0 = perf_counter()
            tracer.span_start.append(t0)
            tracer.span_end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.span_end[idx] = t1
                tracer._close(frame, parent, t1 - t0)
            if hook is not None:
                hook(tracer, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, parent, duration):
        layer, foreign, nid, _ = frame
        own = duration - foreign
        self.n_all[nid] += 1
        self.own_all[nid] += own
        self.incl_all[nid] += duration
        if parent is not None and parent[0] == layer:
            parent[1] += foreign
            self.pairs[nid, parent[2]] += 1
            return
        if parent is not None:
            parent[1] += duration
            self.pairs[nid, parent[2]] += 1
        self.n_outer[nid] += 1
        self.own_outer[nid] += own
        self.layer_self[layer] += own

    def count(self, fn, hook):
        tracer = self

        def counted(*args, **kwargs):
            hook(tracer, args)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation --------------------------------------------------

    def _patch(self, owner_name, attr, make):
        try:
            owner = _resolve(owner_name)
        except (ImportError, AttributeError):
            self.missing.append(f"{owner_name}.{attr}")
            return
        raw = owner.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{owner_name}.{attr}")
            return
        setattr(owner, attr, make(raw))
        self._patches.append((owner, attr, raw))

    def install(self):
        for owner, attr, name, hook in SPAN_TARGETS:
            self._patch(owner, attr, lambda fn, n=name, h=hook: self.span(n, fn, h))
        for owner, attr, hook in COUNT_TARGETS:
            self._patch(owner, attr, lambda fn, h=hook: self.count(fn, h))

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def root(self, name, solve_id, body):
        """Run ``body()`` as a top-level span (benchmark setup or solve)."""
        self.solve_id = solve_id
        try:
            return self.span(name, body)()
        finally:
            self.solve_id = -1

    # -- results -------------------------------------------------------

    def totals(self):
        """Per-name and per-layer totals, keyed by name."""
        named = lambda c: {self.names[k]: v for k, v in c.items()}
        return {
            "n_all": named(self.n_all),
            "n_outer": named(self.n_outer),
            "own_all": named(self.own_all),
            "own_outer": named(self.own_outer),
            "incl_all": named(self.incl_all),
            "layer_self": dict(self.layer_self),
            "pairs": {(self.names[a], self.names[b]): v for (a, b), v in self.pairs.items()},
            "counters": dict(self.counters),
            "spans": len(self.span_start),
        }

    def write(self, path):
        """Write every recorded span as compressed numpy columns."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            solve=np.frombuffer(self.span_solve, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def layer_metrics(totals, solves, iterations):
    """Per-layer metrics averaged over ``solves`` traced solves.

    ``iterations`` is the total iteration count over those solves.  Times are
    own times in ms (see the module docstring) except ``operator_norm_ms``
    and ``reweight_ms``, which are inclusive wall times of those phases.
    """
    n_all, n_outer = totals["n_all"], totals["n_outer"]
    own_all, own_outer = totals["own_all"], totals["own_outer"]
    incl, layer_self = totals["incl_all"], totals["layer_self"]
    pairs, counters = totals["pairs"], totals["counters"]

    def per(x):
        return x / solves

    def ratio(num, den):
        return num / den if den else 0.0

    ms = 1e3
    engine_calls = sum(n_outer.get(n, 0) for n in ENGINE_SPANS)
    threshold_calls = sum(n_outer.get(n, 0) for n in THRESHOLD_SPANS)
    engine_in_threshold = sum(pairs.get((e, t), 0) for e in ENGINE_SPANS for t in THRESHOLD_SPANS)
    fft_seconds = own_outer.get("phase_retrieval.adjoint", 0.0) + own_outer.get(
        "phase_retrieval.forward", 0.0
    )
    flop = counters.get("fft_flop", 0.0)
    return {
        "phase_retrieval.adjoint_calls": per(n_outer.get("phase_retrieval.adjoint", 0)),
        "phase_retrieval.adjoint_ms": per(own_outer.get("phase_retrieval.adjoint", 0.0) * ms),
        "phase_retrieval.forward_calls": per(n_outer.get("phase_retrieval.forward", 0)),
        "phase_retrieval.forward_ms": per(own_outer.get("phase_retrieval.forward", 0.0) * ms),
        "phase_retrieval.fft_gflop_computed": per(flop / 1e9),
        "phase_retrieval.bytes_computed": per(counters.get("fft_bytes", 0) / 1e6),
        "phase_retrieval.gflops_achieved": ratio(flop / 1e9, fft_seconds),
        "metric.apply_calls": per(n_outer.get("metric.apply", 0)),
        "metric.apply_ms": per(own_outer.get("metric.apply", 0.0) * ms),
        "metric.apply_inv_calls": per(n_outer.get("metric.apply_inv", 0)),
        "metric.apply_inv_ms": per(own_outer.get("metric.apply_inv", 0.0) * ms),
        "metric.apply_per_inv": ratio(
            pairs.get(("metric.apply", "metric.apply_inv"), 0),
            n_outer.get("metric.apply_inv", 0),
        ),
        "metric.orthonormalize_ms": per(own_outer.get("metric.orthonormalize", 0.0) * ms),
        "partial_svd.engine_calls": per(engine_calls),
        "partial_svd.self_ms": per(layer_self.get("partial_svd", 0.0) * ms),
        "partial_svd.oracle_actions": per(counters.get("oracle_actions", 0)),
        "partial_svd.actions_per_iteration": ratio(counters.get("oracle_actions", 0), iterations),
        "partial_svd.restarts_per_call": ratio(counters.get("restarts", 0), engine_calls),
        "partial_svd.converged_ratio": ratio(counters.get("converged", 0), engine_calls),
        "partial_svd.ritz_ms": per(own_all.get("partial_svd.ritz_factorize", 0.0) * ms),
        "thresholding.calls": per(threshold_calls),
        "thresholding.self_ms": per(layer_self.get("thresholding", 0.0) * ms),
        "thresholding.engine_calls_per_threshold": ratio(engine_in_threshold, threshold_calls),
        "thresholding.rank_mean": ratio(counters.get("rank_sum", 0), threshold_calls),
        "lowrank.action_calls": per(n_outer.get("lowrank.action", 0)),
        "lowrank.action_ms": per(own_outer.get("lowrank.action", 0.0) * ms),
        "operators.composed_action_calls": per(n_outer.get("operators.composed_action", 0)),
        "operators.composed_action_ms": per(own_outer.get("operators.composed_action", 0.0) * ms),
        "operators.lifted_apply_calls": per(n_outer.get("operators.lifted_apply", 0)),
        "operators.lifted_apply_ms": per(own_outer.get("operators.lifted_apply", 0.0) * ms),
        "operators.operator_norm_ms": per(incl.get("operators.operator_norm", 0.0) * ms),
        "solver.self_ms": per(layer_self.get("solver", 0.0) * ms),
        "solver.dual_step_ms": per(own_all.get("solver.dual_step", 0.0) * ms),
        "solver.reweight_calls": per(n_all.get("solver.reweight", 0)),
        "solver.reweight_ms": per(incl.get("solver.reweight", 0.0) * ms),
        "storage.write_ms": per(own_outer.get("storage.write", 0.0) * ms),
        "storage.read_ms": per(own_outer.get("storage.read", 0.0) * ms),
        "storage.bytes": per(counters.get("storage_bytes", 0)),
        "cli.self_ms": per(layer_self.get("cli", 0.0) * ms),
        "bench.unattributed_ms": per(own_all.get("bench.solve", 0.0) * ms),
        "tracing.spans": per(totals["spans"]),
    }
