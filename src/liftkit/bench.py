"""Timing benchmark comparing threshold-engine settings on a fixed problem."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .metric import EuclideanMetric
from .phase_retrieval import PRProblem, forward, make_rademacher_masks, recover, synthetic_image
from .solver import ReweightSettings, SolverConfig

DEFAULT_SETTINGS = (
    ("dense", None, None, False),
    ("subspace", 5, None, False),
    ("lanczos", 50, 100, False),
    ("lanczos", 25, 50, False),
    ("lanczos", 10, 20, False),
    ("lanczos", 5, 10, False),
    ("lanczos", 5, 10, True),
)


@dataclass(frozen=True)
class BenchRow:
    label: str
    engine: str
    ell: int | None
    k: int | None
    reweighted: bool
    seconds: float
    avg_restarts: float
    avg_actions: float
    final_rank: int
    final_fidelity: float


def _label(engine, ell, k, reweighted):
    if engine == "dense":
        return "dense"
    if engine == "subspace":
        return "subspace"
    base = f"lanczos k={k} l={ell}"
    return base + " +rw" if reweighted else base


def benchmark_problem(size=16, mask_count=8, seed=7, image_seed=42):
    shape = (size, size)
    image = synthetic_image(shape, seed=image_seed)
    masks = make_rademacher_masks(shape, mask_count, seed=seed)
    problem = PRProblem(
        masks=masks, m2=2 * size, m1=2 * size, metric=EuclideanMetric(size * size)
    )
    problem.g = forward(problem, image)
    problem.truth = image
    return problem


def run_benchmark(iterations=1000, size=16, mask_count=8, seed=7, settings=DEFAULT_SETTINGS):
    """Solve the fixed problem once per engine setting, timing each run.

    Every run performs exactly ``iterations`` iterations (no early stop) so
    wall times are comparable.
    """
    problem = benchmark_problem(size=size, mask_count=mask_count, seed=seed)
    rows = []
    for engine, ell, k, reweighted in settings:
        cfg = SolverConfig(
            engine=engine,
            ell=ell if ell is not None else 5,
            k=k if k is not None else 10,
            rank_cap=ell if ell is not None else 5,
            reweight=ReweightSettings(
                enabled=reweighted, weight=0.5, period=10, max_promoted=5
            ),
            max_iter=iterations,
            tol=0.0,
            seed=0,
        )
        start = time.perf_counter()
        _, result = recover(problem, cfg)
        elapsed = time.perf_counter() - start
        restarts = float(np.mean([r.restarts for r in result.log]))
        actions = float(np.mean([r.actions for r in result.log]))
        rows.append(
            BenchRow(
                label=_label(engine, ell, k, reweighted),
                engine=engine,
                ell=ell,
                k=k,
                reweighted=reweighted,
                seconds=elapsed,
                avg_restarts=restarts,
                avg_actions=actions,
                final_rank=result.log[-1].rank,
                final_fidelity=result.log[-1].fidelity,
            )
        )
    return rows


def format_table(rows):
    header = (
        f"{'setting':<22}{'time (s)':>10}{'avg restarts':>14}{'avg actions':>13}"
        f"{'rank':>6}{'fidelity':>12}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        restarts = "-" if row.engine in ("dense", "subspace") else f"{row.avg_restarts:.2f}"
        lines.append(
            f"{row.label:<22}{row.seconds:>10.2f}{restarts:>14}{row.avg_actions:>13.2f}"
            f"{row.final_rank:>6}{row.final_fidelity:>12.2e}"
        )
    return "\n".join(lines)
