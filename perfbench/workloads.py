"""The benchmark's workloads: seeded inputs, set-up, one solve, correctness gate.

Every workload is a family of masked Fourier phase-retrieval instances.
Instance ``i`` of a run with seed ``s`` draws its image, masks and noise from
``numpy.random.SeedSequence([s, i, stream])``, so the same seed always gives
the same inputs.  liftkit receives only those inputs (image, masks, data);
the solves call liftkit through module attributes looked up at call time, so
the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import liftkit
from liftkit import cli, phase_retrieval, storage

# Accuracy gate of the fixed-budget workload, set from seed runs (seeds 1-5,
# 13 to 20 instances each) with headroom: pr32_sobolev_cli reached relative
# errors 0.045-0.087.  A solve above this bound counts as failed.
PR32_SOBOLEV_REL_ERROR_BOUND = 0.2
PR16_REL_ERROR_BOUND = 1e-3
RANK_CAP = 5


def derived_seed(seed, instance, stream, attempt=0):
    """Integer seed of one input stream of one instance."""
    state = np.random.SeedSequence([seed, instance, stream, attempt]).generate_state(1)
    return int(state[0])


@dataclass
class Instance:
    """Inputs of one solve, as liftkit will see them."""

    truth: np.ndarray
    problem: object = None  # PRProblem built from the files
    paths: dict = field(default_factory=dict)
    out_dir: str = ""


@dataclass
class Solved:
    """What one solve produced, reduced to what the gates and metrics need."""

    image: np.ndarray
    iterations: int
    rank: int
    fidelity: float
    converged: bool
    values: np.ndarray
    exit_code: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple
    mask_count: int
    noise: float
    budget: int  # iteration budget of a measured solve
    tol: float
    min_solves: int  # solves per run even when the time is up
    tail_pct: float  # fixed so that a run always has >= 10 samples beyond it
    full_coverage: bool  # redraw masks until every pixel is seen by one

    @property
    def dft(self):
        return (2 * self.shape[0], 2 * self.shape[1])

    def solver_config(self, budget):
        return liftkit.SolverConfig(
            reweight=liftkit.ReweightSettings(enabled=True, weight=0.5, period=10),
            fidelity=liftkit.Fidelity.tikhonov() if self.noise else liftkit.Fidelity.exact(),
            ell=5,
            k=10,
            rank_cap=RANK_CAP,
            max_iter=budget,
            tol=self.tol,
            seed=0,
        )

    # -- set-up -----------------------------------------------------------

    def make_inputs(self, seed, instance):
        truth = liftkit.synthetic_image(self.shape, seed=derived_seed(seed, instance, 0))
        attempt = 0
        while True:
            masks = liftkit.make_rademacher_masks(
                self.shape, self.mask_count, seed=derived_seed(seed, instance, 1, attempt)
            )
            # a pixel no mask sees cannot be recovered by any method, so the
            # exact-recovery family keeps only mask sets that see every pixel
            if not self.full_coverage or np.all(liftkit.coverage_map(masks) > 0):
                break
            attempt += 1
        n = self.shape[0] * self.shape[1]
        plain = liftkit.PRProblem(
            masks=masks, m2=self.dft[0], m1=self.dft[1], metric=liftkit.EuclideanMetric(n)
        )
        g = liftkit.forward(plain, truth)
        if self.noise:
            g = liftkit.add_noise(g, self.noise, seed=derived_seed(seed, instance, 2))
        return truth, masks, g

    def setup(self, seed, instance, work_dir):
        """Generate the inputs, write them with liftkit.storage and, unless the
        CLI reads them itself, read them back into a problem."""
        truth, masks, g = self.make_inputs(seed, instance)
        inst_dir = os.path.join(work_dir, f"{self.name}-{instance}")
        os.makedirs(inst_dir, exist_ok=True)
        paths = {k: os.path.join(inst_dir, k) for k in ("truth", "masks", "data")}
        storage.write_images(paths["truth"], truth)
        storage.write_images(paths["masks"], masks.array)
        storage.write_data(paths["data"], g, (masks.count, *self.dft))
        inst = Instance(truth=truth, paths=paths, out_dir=os.path.join(inst_dir, "solve"))
        if self.name != "pr32_sobolev_cli":
            mask_array = storage.read_images(paths["masks"])
            data, dims = storage.read_data(paths["data"])
            if not (np.array_equal(mask_array, masks.array) and np.array_equal(data, g)):
                raise RuntimeError("storage round trip changed the inputs")
            inst.problem = liftkit.PRProblem(
                masks=liftkit.MaskSet(array=mask_array, kind="custom"),
                m2=dims[1],
                m1=dims[2],
                metric=liftkit.EuclideanMetric(mask_array.shape[1] * mask_array.shape[2]),
                g=data,
            )
        return inst

    # -- solve --------------------------------------------------------------

    def solve(self, inst, sink, budget):
        """One solve from the problem in memory to the extracted image."""
        if self.name == "pr16_exact":
            cfg = self.solver_config(budget)
            image, result = phase_retrieval.recover(inst.problem, cfg, sink=sink)
            return _solved(image, result)
        return self._solve_cli(inst, sink, budget)

    def _solve_cli(self, inst, on_iteration, budget):
        argv = [
            "solve",
            "--masks", inst.paths["masks"],
            "--data", inst.paths["data"],
            "--out", inst.out_dir,
            "--metric", "sobolev",
            "--fidelity", "tikhonov",
            "--alpha", "1.0",
            "--rank-cap", str(RANK_CAP),
            "--max-iter", str(budget),
            "--tol", str(self.tol),
            "--seed", "0",
        ]
        # the CLI offers no iteration callback, so the benchmark's sink is
        # chained in front of the one the CLI passes to recover
        original = cli.recover

        def recover_with_sink(problem, cfg, sink=None):
            def both(rec):
                on_iteration(rec)
                if sink is not None:
                    sink(rec)

            return original(problem, cfg, sink=both)

        out, err = io.StringIO(), io.StringIO()
        cli.recover = recover_with_sink
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            cli.recover = original
        if code != 0:
            return Solved(np.zeros(self.shape), 0, 0, float("nan"), False, np.zeros(0), code)
        report = json.loads(out.getvalue())
        with open(os.path.join(inst.out_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        return Solved(
            image=None,  # read back by the gate, outside the timed solve
            iterations=int(report["iterations"]),
            rank=int(report["final_rank"]),
            fidelity=float(report["final_fidelity"]),
            converged=bool(report["converged"]),
            values=np.asarray(manifest["config"]["factorization"]["values"], dtype=float),
            exit_code=code,
        )

    # -- correctness ------------------------------------------------------

    def gate(self, inst, solved, smoke):
        """Return (rel_error or None, failure reason or "") for one solve.

        Smoke runs stop after a few iterations, so they check only what any
        iterate must satisfy (exit code, finiteness, rank cap), not accuracy.
        """
        if solved.exit_code != 0:
            return None, f"cli exit code {solved.exit_code}"
        if solved.image is None:
            solved.image = storage.read_images(os.path.join(inst.out_dir, "recovered"))[0]
        if not (np.all(np.isfinite(solved.image)) and np.all(np.isfinite(solved.values))):
            return None, "non-finite output"
        if solved.rank > RANK_CAP:
            return None, f"rank {solved.rank} above the cap {RANK_CAP}"
        rel_error = liftkit.error_up_to_phase(solved.image, inst.truth)
        if smoke:
            return rel_error, ""
        if self.name == "pr16_exact":
            if not solved.converged:
                return rel_error, "did not reach the tolerance"
            if solved.rank != 1:
                return rel_error, f"final rank {solved.rank}, expected 1"
            if rel_error > PR16_REL_ERROR_BOUND:
                return rel_error, f"rel_error {rel_error:.3g} above {PR16_REL_ERROR_BOUND}"
        else:
            if solved.rank != 1:
                return rel_error, f"final rank {solved.rank}, expected 1"
            if rel_error > PR32_SOBOLEV_REL_ERROR_BOUND:
                return rel_error, f"rel_error {rel_error:.3g} above {PR32_SOBOLEV_REL_ERROR_BOUND}"
        return rel_error, ""


def _solved(image, result):
    return Solved(
        image=image,
        iterations=len(result.log),
        rank=result.w.rank,
        fidelity=result.log[-1].fidelity if result.log else float("nan"),
        converged=result.converged,
        values=np.asarray(result.w.values, dtype=float),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pr16_exact",
            shape=(16, 16),
            mask_count=8,
            noise=0.0,
            budget=1000,
            tol=1e-4,
            min_solves=3,
            tail_pct=95.0,
            full_coverage=True,
        ),
        Workload(
            name="pr32_sobolev_cli",
            shape=(32, 32),
            mask_count=4,
            noise=0.05,
            budget=20,
            tol=0.0,
            min_solves=3,
            tail_pct=75.0,
            full_coverage=False,
        ),
    )
}

SMOKE_BUDGET = 3
