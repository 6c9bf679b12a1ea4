"""The benchmark tracer must find every liftkit name it wraps, and its
counts must agree with the ones liftkit reports itself.

``perfbench/tracer.py`` patches liftkit internals by owner and attribute
name; a rename in liftkit that leaves a target behind silently drops that
layer from the per-layer metrics.  This reads the tracer and changes
nothing under ``perfbench/``.
"""

import sys
from pathlib import Path

from liftkit.metric import EuclideanMetric
from liftkit.phase_retrieval import (
    PRProblem,
    forward,
    make_rademacher_masks,
    recover,
    synthetic_image,
)
from liftkit.solver import SolverConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


def test_every_tracer_target_resolves():
    with load_tracer().Tracer() as installed:
        assert installed.missing == []


def traced_recover():
    # ell == rank_cap, so no deflation probe runs and every engine call is
    # the one evt makes
    shape = (8, 8)
    image = synthetic_image(shape, seed=3)
    masks = make_rademacher_masks(shape, 4, seed=5)
    problem = PRProblem(masks=masks, m2=16, m1=16, metric=EuclideanMetric(64))
    problem.g = forward(problem, image)
    cfg = SolverConfig(ell=5, k=10, rank_cap=5, max_iter=8, seed=0)
    with load_tracer().Tracer() as traced:
        _, result = recover(problem, cfg)
    return traced.totals(), result


def test_traced_actions_agree_with_the_iteration_records():
    totals, result = traced_recover()
    assert len(result.log) == 8
    assert totals["counters"]["oracle_actions"] == sum(rec.actions for rec in result.log) > 0
    calls = totals["n_all"]
    assert calls["partial_svd.augmented_restart"] == calls["thresholding.evt"] == 8


def test_metric_applies_per_oracle_action():
    # a Hermitian Lanczos column applies the metric once, for its
    # continuation's norm and image, which the next column carries.  The
    # thresholded iterate and its Ritz pairs carry the images their pass
    # rotated, so neither the composed action on the iterate nor the next
    # call's start applies the metric again; only the first call's random
    # start and the rare column whose projection removes most of its vector
    # add one.  The step-size estimate's applies are set-up and not counted.
    totals, result = traced_recover()
    actions = totals["counters"]["oracle_actions"]
    applies = totals["n_outer"]["metric.apply"]
    setup = totals["pairs"][("metric.apply", "operators.operator_norm")]
    assert applies - setup <= 1.1 * actions
