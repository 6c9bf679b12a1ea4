"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``) and the smoke check fails when
the two disagree, so the file and the code cannot drift apart.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 55

# name -> one-line reason (kept within 200 characters); the longer rationale
# and the layer -> metric map live in perfbench/README.md
WORKLOADS = {
    "pr16_exact": (
        "headline time-to-accuracy: 16x16, 8 masks, exact fidelity to tol 1e-4; "
        "overhead- and restart-bound (Lanczos restarts, PR adjoints); metric layer "
        "bypassed (Euclidean)"
    ),
    "pr32_sobolev_cli": (
        "noisy 32x32, 4 masks, Tikhonov, Sobolev metric, solved via liftkit.cli from "
        "liftkit.storage files; CG metric inverse dominates; the only load on metric, "
        "storage and cli"
    ),
}

# (name, unit, better, bound)
END_TO_END = [
    ("solve_s", "s", "lower", 0.25),
    ("iter_ms_p50", "ms", "lower", 0.25),
    ("iter_ms_tail", "ms", "lower", 0.25),
    ("iterations", "count", "lower", 0.1),
    ("rel_error", "ratio", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better); every value is per traced solve unless the name says
# otherwise
PER_LAYER = [
    ("phase_retrieval.adjoint_calls", "count", "lower"),
    ("phase_retrieval.adjoint_ms", "ms", "lower"),
    ("phase_retrieval.forward_calls", "count", "lower"),
    ("phase_retrieval.forward_ms", "ms", "lower"),
    ("phase_retrieval.fft_gflop_computed", "Gflop", "lower"),
    ("phase_retrieval.bytes_computed", "MB", "lower"),
    ("phase_retrieval.gflops_achieved", "Gflop/s", "higher"),
    ("metric.apply_calls", "count", "lower"),
    ("metric.apply_ms", "ms", "lower"),
    ("metric.apply_inv_calls", "count", "lower"),
    ("metric.apply_inv_ms", "ms", "lower"),
    ("metric.apply_per_inv", "count", "lower"),
    ("metric.orthonormalize_ms", "ms", "lower"),
    ("partial_svd.engine_calls", "count", "lower"),
    ("partial_svd.self_ms", "ms", "lower"),
    ("partial_svd.oracle_actions", "count", "lower"),
    ("partial_svd.actions_per_iteration", "count", "lower"),
    ("partial_svd.restarts_per_call", "count", "lower"),
    ("partial_svd.converged_ratio", "ratio", "higher"),
    ("partial_svd.ritz_ms", "ms", "lower"),
    ("thresholding.calls", "count", "lower"),
    ("thresholding.self_ms", "ms", "lower"),
    ("thresholding.engine_calls_per_threshold", "ratio", "lower"),
    ("thresholding.rank_mean", "count", "lower"),
    ("lowrank.action_calls", "count", "lower"),
    ("lowrank.action_ms", "ms", "lower"),
    ("operators.composed_action_calls", "count", "lower"),
    ("operators.composed_action_ms", "ms", "lower"),
    ("operators.lifted_apply_calls", "count", "lower"),
    ("operators.lifted_apply_ms", "ms", "lower"),
    ("operators.operator_norm_ms", "ms", "lower"),
    ("solver.self_ms", "ms", "lower"),
    ("solver.dual_step_ms", "ms", "lower"),
    ("solver.reweight_calls", "count", "lower"),
    ("solver.reweight_ms", "ms", "lower"),
    ("storage.write_ms", "ms", "lower"),
    ("storage.read_ms", "ms", "lower"),
    ("storage.bytes", "bytes", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("bench.unattributed_ms", "ms", "lower"),
    ("tracing.spans", "count", "lower"),
    ("tracing.traced_solve_s", "s", "lower"),
    ("tracing.overhead_s", "s", "lower"),
]

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def benchmark_document():
    """The contents of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def render():
    return json.dumps(benchmark_document(), indent=2) + "\n"
