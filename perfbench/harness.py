"""Runs workloads, times them from outside, and turns samples into metrics."""

from __future__ import annotations

import json
import math
import resource
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import spec
from tracer import Tracer, layer_metrics
from workloads import SMOKE_BUDGET, WORKLOADS

SETUP_REPEATS = 10  # set-ups per instance; setup_s is the median of all of them
MAX_SOLVES = 50

# Host-speed probe (see "Noise on the reference machine" in README.md).  The
# reference machine's host slows every process on it by up to 1.5x, in spells
# of seconds to minutes.  An untraced solve times this fixed piece of work in
# every iteration callback, outside the timed intervals, and its times are
# scaled by REFERENCE_PROBE_MS over the solve's mean probe time: they read as
# on the host at the probe's typical speed on the reference machine.
REFERENCE_PROBE_MS = 0.6
_PROBE_RNG = np.random.default_rng(0)
_PROBE_GRID = _PROBE_RNG.standard_normal((8, 32, 32)) + 1j * _PROBE_RNG.standard_normal((8, 32, 32))
_PROBE_MASK = _PROBE_RNG.standard_normal((8, 32, 32))
_PROBE_VEC = _PROBE_RNG.standard_normal(256)


@dataclass
class Sample:
    """One timed solve and its verdict."""

    solve_s: float  # wall time, probe time excluded
    iter_ms: np.ndarray  # intervals between successive iteration callbacks
    probe_ms: float  # mean probe time, NaN when nothing was probed
    solved: object  # workloads.Solved, or None when the solve raised
    rel_error: float | None
    failure: str


def _speed_probe():
    """Seconds taken by a fixed mix of small FFTs, vector arithmetic and
    interpreted loop, the kinds of work a liftkit iteration does."""
    t0 = perf_counter()
    np.fft.ifft2(np.fft.fft2(_PROBE_GRID) * _PROBE_MASK)
    v = _PROBE_VEC
    for _ in range(20):
        v = v * 0.5 + 1.0
        float(v @ v)
    acc = 0
    for i in range(500):
        acc += i * i
    return perf_counter() - t0


def _timed_solve(wl, inst, budget, wrap=None):
    """Time one solve; the verdict is filled in by _judge.

    Untraced solves run the speed probe in each iteration callback; an
    interval runs from the end of one callback to the start of the next, and
    the probe's time is taken out of the solve time.  Traced solves are not
    probed, so the tracer's spans hold only liftkit's work.
    """
    starts, ends, probes = [], [], []

    def sink(rec):
        starts.append(perf_counter())
        if wrap is None:
            probes.append(_speed_probe())
        ends.append(perf_counter())

    def sample(elapsed, solved, failure):
        intervals = (np.array(starts[1:]) - np.array(ends[:-1])) * 1e3
        probe_ms = float(np.mean(probes)) * 1e3 if probes else float("nan")
        spent = sum(e - s for s, e in zip(starts, ends))
        return Sample(elapsed - spent, intervals, probe_ms, solved, None, failure)

    call = lambda: wl.solve(inst, sink, budget)  # noqa: E731
    t0 = perf_counter()
    try:
        solved = wrap(call) if wrap else call()
    except Exception as exc:  # a failing solve is counted, and the run goes on
        elapsed = perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return sample(elapsed, None, f"raised {type(exc).__name__}: {exc}")
    return sample(perf_counter() - t0, solved, "")


def _judge(wl, inst, sample, smoke):
    if sample.solved is not None:
        sample.rel_error, sample.failure = wl.gate(inst, sample.solved, smoke)
    return sample


def _same_result(a, b):
    """A traced solve must reproduce its untraced twin."""
    if a.solved is None or b.solved is None:
        return False
    return a.solved.iterations == b.solved.iterations and np.allclose(
        a.solved.values, b.solved.values, rtol=1e-9, atol=0.0
    )


def _tail(samples, pct):
    value = float(np.percentile(samples, pct))
    return value, int(np.sum(samples > value))


def run_workload(name, seed, seconds, trace, work_dir, out_dir, smoke=False):
    """Measure one workload; returns a report with metrics and counts."""
    wl = WORKLOADS[name]
    budget = SMOKE_BUDGET if smoke else wl.budget
    tracer = Tracer() if trace else None
    setup_s, untraced, traced = [], [], []
    _speed_probe()  # its first call plans the FFT; keep that out of the solves
    start = perf_counter()
    instance = 0
    while True:
        if tracer is None:
            for _ in range(SETUP_REPEATS):
                t0 = perf_counter()
                inst = wl.setup(seed, instance, work_dir)
                setup_s.append(perf_counter() - t0)
            sample = _timed_solve(wl, inst, budget)
            untraced.append(_judge(wl, inst, sample, smoke))
        else:
            with tracer:
                inst = tracer.root(
                    "bench.setup", instance, lambda: wl.setup(seed, instance, work_dir)
                )
            pair = {}
            for is_traced in (False, True) if instance % 2 == 0 else (True, False):
                if is_traced:
                    with tracer:
                        sample = _timed_solve(
                            wl, inst, budget,
                            wrap=lambda call: tracer.root("bench.solve", instance, call),
                        )
                else:
                    sample = _timed_solve(wl, inst, budget)
                pair[is_traced] = _judge(wl, inst, sample, smoke)
            if not pair[True].failure and not _same_result(pair[False], pair[True]):
                pair[True].failure = "traced solve differs from its untraced twin"
            untraced.append(pair[False])
            traced.append(pair[True])
        instance += 1
        elapsed = perf_counter() - start
        if smoke or instance >= MAX_SOLVES:
            break
        # a traced run solves each instance twice and its metrics carry no
        # bound, so one instance is enough there
        minimum = 1 if tracer else wl.min_solves
        if instance >= minimum and elapsed + elapsed / instance > seconds:
            break

    failed = set()
    for runs in (untraced, traced):
        for i, s in enumerate(runs):
            if s.failure:
                failed.add(i)
                print(f"# FAILED {name} instance {i}: {s.failure}")
    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": instance,
        "failed": len(failed),
        "correct": not failed,
        "elapsed_s": perf_counter() - start,
    }
    e2e, notes = end_to_end(wl, untraced, setup_s)
    if tracer is None:
        report["metrics"] = e2e
    else:
        iterations = sum(s.solved.iterations for s in traced if s.solved is not None)
        metrics = layer_metrics(tracer.totals(), len(traced), iterations)
        traced_s = [s.solve_s for s in traced]
        metrics["tracing.traced_solve_s"] = _median(traced_s)
        metrics["tracing.overhead_s"] = _median(
            [t.solve_s - u.solve_s for t, u in zip(traced, untraced)]
        )
        report["metrics"] = metrics
        report["untraced"] = e2e
        if tracer.missing:
            notes.append("untraced names (not found): " + ", ".join(tracer.missing))
        spans_path = out_dir / f"spans-{name}-seed{seed}.npz"
        tracer.write(spans_path)
        notes.append(f"{len(tracer.span_start)} spans written to {spans_path}")
    _print_report(report, notes)
    return report


def _median(values):
    return float(np.median(values)) if len(values) else float("nan")


def _json_number(value):
    """JSON has no NaN: a metric without samples is reported as null."""
    return value if math.isfinite(value) else None


def _speed_scales(samples):
    """Per solve, REFERENCE_PROBE_MS over its mean probe time; a solve that
    never reached an iteration callback takes the run's mean probe time."""
    probed = [s.probe_ms for s in samples if math.isfinite(s.probe_ms)]
    fallback = float(np.mean(probed)) if probed else REFERENCE_PROBE_MS
    return [REFERENCE_PROBE_MS / (s.probe_ms if math.isfinite(s.probe_ms) else fallback)
            for s in samples]


def end_to_end(wl, samples, setup_s):
    """End-to-end metrics of untraced solves, plus notes on how they were taken.

    Solve times and iteration intervals are scaled to the reference host
    speed, solve by solve (see REFERENCE_PROBE_MS); the notes give them
    unscaled as well.
    """
    ok = [s for s in samples if s.solved is not None]
    scales = _speed_scales(samples)
    iter_ms = (
        np.concatenate([s.iter_ms * k for s, k in zip(samples, scales)])
        if samples else np.zeros(0)
    )
    tail, beyond = _tail(iter_ms, wl.tail_pct) if iter_ms.size else (float("nan"), 0)
    solve_p50 = [float(np.median(s.iter_ms)) * k for s, k in zip(samples, scales) if s.iter_ms.size]
    metrics = {
        # means over the run's solves: a mean blends the solves of a run that
        # straddles a slow and a fast spell of the host, where a median picks
        # one of them
        "solve_s": (
            float(np.mean([s.solve_s * k for s, k in zip(samples, scales)]))
            if samples else float("nan")
        ),
        "iter_ms_p50": float(np.mean(solve_p50)) if solve_p50 else float("nan"),
        "iter_ms_tail": tail,
        "iterations": _median([s.solved.iterations for s in ok]),
        "rel_error": _median([s.rel_error for s in ok if s.rel_error is not None]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if setup_s:
        metrics["setup_s"] = _median(setup_s)
    notes = [
        f"{len(samples)} solves; iter_ms_p50 is the mean of their median intervals; "
        f"iter_ms_tail is p{wl.tail_pct:g} of {iter_ms.size} "
        f"iteration intervals, {beyond} beyond it"
        + ("" if beyond >= 10 else " (fewer than 10: tail not resolved)"),
        f"setup_s is the median of {len(setup_s)} set-ups (not scaled)",
        "unscaled: solve_s "
        + f"{np.mean([s.solve_s for s in samples]) if samples else float('nan'):.6g} s, "
        + "iter_ms_p50 "
        + f"{np.mean([np.median(s.iter_ms) for s in samples if s.iter_ms.size] or [np.nan]):.6g} ms",
    ]
    for i, (s, k) in enumerate(zip(samples, scales)):
        notes.append(
            f"solve {i}: {s.solve_s:.3f} s unscaled, probe {s.probe_ms:.4f} ms, "
            f"scale {k:.4f}, "
            + (
                f"{s.solved.iterations} iterations, rank {s.solved.rank}, "
                f"fidelity {s.solved.fidelity:.3e}, rel_error {s.rel_error:.3e}"
                if s.solved is not None and s.rel_error is not None
                else "no result"
            )
            + (f" FAILED: {s.failure}" if s.failure else "")
        )
    return metrics, notes


def _print_report(report, notes):
    name = report["workload"]
    print(
        f"# workload {name} seed {report['seed']} trace {report['trace']}: "
        f"attempted {report['attempted']}, failed {report['failed']}, "
        f"fail_ratio {report['failed'] / max(report['attempted'], 1):.3f}, "
        f"{report['elapsed_s']:.1f} s"
    )
    for note in notes:
        print(f"#   {note}")
    units = {**spec.END_TO_END_UNITS, **spec.PER_LAYER_UNITS}
    for label, metrics in (("untraced", report.get("untraced", {})), ("metric", report["metrics"])):
        for key, value in metrics.items():
            print(f"# {label} {name} {key} = {value:.6g} {units[key]}")


def combine(reports):
    """The final JSON line; metrics are prefixed by workload when there are several."""
    units = {**spec.END_TO_END_UNITS, **spec.PER_LAYER_UNITS}
    metrics = {}
    for r in reports:
        prefix = "" if len(reports) == 1 else r["workload"] + "."
        for key, value in r["metrics"].items():
            metrics[prefix + key] = {"value": _json_number(value), "unit": units[key]}
    return {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }


def smoke(work_dir, out_dir):
    """Every workload with a tiny iteration budget, untraced and traced.

    Checks the plumbing, not performance: the committed BENCHMARK.json
    matches spec.py, every solve passes the structural gate, a traced solve
    reproduces its untraced twin, and both modes report exactly the metric
    names BENCHMARK.json lists, each finite.  The benchmark drives the CLI
    in-process through liftkit.cli.main and never the ``liftkit`` console
    script, which is only on PATH when the package is installed (the
    repository's own test_console_script_help fails where it is not).
    """
    problems = []
    bench_json = out_dir.parent / "BENCHMARK.json"
    if not bench_json.is_file() or bench_json.read_text(encoding="utf-8") != spec.render():
        problems.append("BENCHMARK.json is missing or differs from perfbench/spec.py")
    reports = []
    for name in WORKLOADS:
        for trace, expected in ((0, spec.END_TO_END_UNITS), (1, spec.PER_LAYER_UNITS)):
            report = run_workload(name, 0, 0.0, trace, work_dir, out_dir, smoke=True)
            reports.append(report)
            if not report["correct"]:
                problems.append(f"{name} trace {trace}: a solve failed")
            if set(report["metrics"]) != set(expected):
                problems.append(f"{name} trace {trace}: metric names differ from the spec")
            bad = [k for k, v in report["metrics"].items() if not math.isfinite(v)]
            if bad:
                problems.append(f"{name} trace {trace}: non-finite {bad}")
    for p in problems:
        print(f"# smoke problem: {p}")
    print("# smoke " + ("FAILED" if problems else "ok"))
    print(json.dumps(combine(reports)))
    return 1 if problems else 0
