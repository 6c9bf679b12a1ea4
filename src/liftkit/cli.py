"""Command-line driver: problem generation, recovery, evaluation, benchmark.

Every command is deterministic under a fixed seed and writes a manifest with
the resolved configuration, its hash, and checksums of all produced files.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from typing import NamedTuple

import jsonschema
import numpy as np

from . import storage
from .bench import format_table, run_benchmark
from .errors import ConfigError, NumericalError
from .metric import EuclideanMetric
from .phase_retrieval import (
    MASK_MAKERS,
    METRIC_KINDS,
    SOBOLEV_DEFAULT_MU,
    PRProblem,
    add_noise,
    coverage_map,
    default_metric,
    error_up_to_phase,
    forward,
    make_rademacher_masks,
    MaskSet,
    recover,
    synthetic_image,
)
from .solver import FIDELITY_KINDS, Fidelity, ReweightSettings, SolverConfig
from .thresholding import ENGINES


class Setting(NamedTuple):
    """A solve setting: its default, its run-config schema fragment, its flag
    and the flag's argparse keywords."""

    default: object
    schema: dict
    flag: str
    keywords: dict


# One row per solve setting, in manifest order.  The schema holds types, enums
# and shapes only: the bounds belong to SolverConfig, ThresholdConfig,
# ReweightSettings, Fidelity and SobolevMetric, which the solve builds before
# it reads any file.  The defaults are read from those owners, except the
# CLI's own choices: reweighting on, the exact fidelity, eps 0, the Euclidean
# metric and step sizes from the operator norm.
_SOLVER, _REWEIGHT = SolverConfig(), ReweightSettings()
_NUMBER, _INTEGER, _STEP = {"type": "number"}, {"type": "integer"}, {"type": ["number", "null"]}
_FLOAT, _INT = {"type": float}, {"type": int}
SOLVER_SETTINGS = {
    "tau": Setting(None, _STEP, "--tau", _FLOAT),
    "sigma": Setting(None, _STEP, "--sigma", _FLOAT),
    "theta": Setting(_SOLVER.theta, _NUMBER, "--theta", _FLOAT),
    "fidelity": Setting("exact", {"enum": list(FIDELITY_KINDS)}, "--fidelity",
                        {"choices": FIDELITY_KINDS}),
    "alpha": Setting(_SOLVER.alpha_reg, _NUMBER, "--alpha",
                     {"type": float, "help": "regularization weight"}),
    "eps": Setting(0.0, _NUMBER, "--eps",
                   {"type": float, "help": "norm-ball radius"}),
    "reweight": {
        "enabled": Setting(True, {"type": "boolean"}, "--no-reweight",
                           {"action": "store_const", "const": False}),
        "weight": Setting(_REWEIGHT.weight, _NUMBER, "--reweight-weight", _FLOAT),
        "period": Setting(_REWEIGHT.period, _INTEGER, "--reweight-period", _INT),
        "max_promoted": Setting(_REWEIGHT.max_promoted, _INTEGER, "--max-promoted", _INT),
    },
    "engine": Setting(_SOLVER.engine, {"enum": list(ENGINES)}, "--engine", {"choices": ENGINES}),
    "ell": Setting(_SOLVER.ell, _INTEGER, "--ell", _INT),
    "k": Setting(_SOLVER.k, _INTEGER, "--k", {
        "type": int,
        "help": "most columns per Lanczos pass, one oracle action each (the recovery's "
                "tensor is Hermitian); a pass stops at its first certified column",
    }),
    "delta": Setting(_SOLVER.delta, _NUMBER, "--delta", _FLOAT),
    "rank_cap": Setting(_SOLVER.rank_cap, _INTEGER, "--rank-cap", _INT),
    "max_iter": Setting(_SOLVER.max_iter, _INTEGER, "--max-iter", _INT),
    "tol": Setting(_SOLVER.tol, _NUMBER, "--tol", _FLOAT),
    "metric": Setting("euclidean", {"enum": list(METRIC_KINDS)}, "--metric",
                      {"choices": METRIC_KINDS}),
    "mu": Setting(
        SOBOLEV_DEFAULT_MU,
        {"type": "array", "items": _NUMBER, "minItems": 3, "maxItems": 3},
        "--mu",
        {"type": float, "nargs": 3, "metavar": ("MU_I", "MU_D1", "MU_D2")},
    ),
}


def _rows(table=SOLVER_SETTINGS, group=None):
    """(group, key, setting) for every setting; group is None outside the reweight group."""
    for key, row in table.items():
        if isinstance(row, dict):
            yield from _rows(row, key)
        else:
            yield group, key, row


def _nested(table, leaf, wrap):
    """The table's shape with leaf(setting) for each setting and wrap(dict)
    for the table and each group in it."""
    return wrap({
        key: _nested(row, leaf, wrap) if isinstance(row, dict) else leaf(row)
        for key, row in table.items()
    })


def _solver_defaults():
    return _nested(SOLVER_SETTINGS, lambda setting: setting.default, dict)


def _closed(properties):
    """A JSON-schema object that rejects unknown keys."""
    return {"type": "object", "additionalProperties": False, "properties": properties}


RUN_CONFIG_SCHEMA = _closed({
    "mode": {"enum": ["generate-masks", "generate-data", "solve", "evaluate", "demo", "bench-svt"]},
    "seed": {"type": "integer", "minimum": 0},
    "out": {"type": "string"},
    "paths": _closed({name: {"type": "string"} for name in ("image", "masks", "data")}),
    "solver": _nested(SOLVER_SETTINGS, lambda setting: setting.schema, _closed),
})

CSV_HEADER = ["n", "rank", "fidelity", "sigma0", "sigma1", "sigma2", "restarts", "ms"]


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _artifact_sha256(path):
    """SHA-256 of a written file.  For ``iterations.csv`` it covers every
    column but the wall-clock ``ms``, so that two runs of one seeded solve
    write the same manifest."""
    if os.path.basename(path) != "iterations.csv":
        return _sha256(path)
    timed = CSV_HEADER.index("ms")
    digest = hashlib.sha256()
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            digest.update((",".join(row[:timed] + row[timed + 1:]) + "\n").encode())
    return digest.hexdigest()


def _config_sha256(config):
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_manifest(out_dir, command, config, seed, artifacts):
    manifest = {
        "command": command,
        "config": config,
        "config_sha256": _config_sha256(config),
        "seed": seed,
        "artifacts": {
            name: _artifact_sha256(os.path.join(out_dir, name)) for name in sorted(artifacts)
        },
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")
    return path


def _load_run_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        jsonschema.validate(doc, RUN_CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"invalid config {path}: {exc.message}") from exc
    return doc


def _merge_solver_settings(config_doc, args):
    """Defaults, then the config file, then explicit command-line flags."""
    merged = _solver_defaults()
    from_file = (config_doc or {}).get("solver", {})
    for group, key, setting in _rows():
        into = merged[group] if group else merged
        source = from_file.get(group, {}) if group else from_file
        # argparse's dest: the flag without its dashes
        flag_value = getattr(args, setting.flag[2:].replace("-", "_"))
        for value in (source.get(key), flag_value):
            if value is not None:
                into[key] = value
    return merged


def _build_solver_config(settings, seed):
    own = ("tau", "sigma", "theta", "ell", "k", "delta", "engine", "rank_cap", "max_iter", "tol")
    return SolverConfig(
        fidelity=Fidelity(kind=settings["fidelity"], eps=settings["eps"]),
        alpha_reg=settings["alpha"],
        reweight=ReweightSettings(**settings["reweight"]),
        seed=seed,
        **{key: settings[key] for key in own},
    )


def _parse_shape(text):
    try:
        parts = text.lower().split("x")
        n2, n1 = int(parts[0]), int(parts[1])
        if n2 < 1 or n1 < 1 or len(parts) != 2:
            raise ValueError
        return n2, n1
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"invalid shape {text!r}, expected HxW") from exc


def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _coverage_summary(masks):
    cov = coverage_map(masks)
    zero = float(np.mean(cov == 0))
    return {
        "pixels": int(cov.size),
        "zero_coverage_fraction": zero,
        "min_coverage": int(cov.min()),
        "max_coverage": int(cov.max()),
    }


def cmd_gen_masks(args):
    shape = _parse_shape(args.shape)
    out_dir = _ensure_dir(args.out)
    masks = MASK_MAKERS[args.kind](shape, args.count, seed=args.seed)
    storage.write_images(os.path.join(out_dir, "masks"), masks.array)
    summary = _coverage_summary(masks)
    config = {
        "kind": args.kind,
        "shape": list(shape),
        "count": args.count,
        "coverage": summary,
    }
    _write_manifest(out_dir, "gen-masks", config, args.seed, ["masks", "masks.json"])
    print(json.dumps({"masks": os.path.join(out_dir, "masks"), **summary}, indent=2))
    return 0


def _read_image(path):
    """The one image a file holds; a stack of several is rejected."""
    stack = storage.read_images(path)
    if stack.shape[0] != 1:
        raise ConfigError(f"{path} holds {stack.shape[0]} images, expected one")
    return stack[0]


def _write_data(out_dir, image, masks, noise, seed, m2=None, m1=None):
    """Measure the image through the masks, add noise and write the data file.

    The DFT sizes default to twice the image; returns the problem with its data.
    """
    n2, n1 = image.shape
    problem = PRProblem(
        masks=masks,
        m2=2 * n2 if m2 is None else m2,
        m1=2 * n1 if m1 is None else m1,
        metric=EuclideanMetric(n2 * n1),
    )
    problem.g = add_noise(forward(problem, image), noise, seed=seed)
    dims = (masks.count, problem.m2, problem.m1)
    storage.write_data(os.path.join(out_dir, "data"), problem.g, dims)
    return problem


def cmd_gen_data(args):
    out_dir = _ensure_dir(args.out)
    image = _read_image(args.image)
    if not np.all(np.isfinite(image)):
        raise ConfigError(f"image {args.image} has non-finite pixels")
    mask_array = storage.read_images(args.masks)
    if mask_array.shape[1:] != image.shape:
        raise ConfigError("image and masks have different shapes")
    masks = MaskSet(array=mask_array, kind="custom")
    problem = _write_data(out_dir, image, masks, args.noise, args.seed, args.m2, args.m1)
    config = {
        "image": os.path.abspath(args.image),
        "masks": os.path.abspath(args.masks),
        "m2": problem.m2,
        "m1": problem.m1,
        "noise": args.noise,
    }
    _write_manifest(out_dir, "gen-data", config, args.seed, ["data", "data.json"])
    length = int(problem.g.size)
    print(json.dumps({"data": os.path.join(out_dir, "data"), "length": length}, indent=2))
    return 0


def _solve_problem(masks_path, data_path, settings, seed, out_dir):
    """Recover the image and write the run's files; returns the image, the
    run summary and the artifact names."""
    cfg = _build_solver_config(settings, seed)
    mask_array = storage.read_images(masks_path)
    g, (count, m2, m1) = storage.read_data(data_path)
    if not np.all(np.isfinite(g)):
        raise ConfigError(f"data vector {data_path} has non-finite entries")
    if count != mask_array.shape[0]:
        raise ConfigError("data vector and mask stack disagree on the mask count")
    masks = MaskSet(array=mask_array, kind="custom")
    metric = default_metric(masks.shape, settings["metric"], settings["mu"])
    problem = PRProblem(masks=masks, m2=m2, m1=m1, metric=metric, g=g)
    image, result = recover(problem, cfg)

    storage.write_images(os.path.join(out_dir, "recovered"), image)
    artifacts = ["recovered", "recovered.json"]
    factor_values = []
    if result.w.rank:
        factors = result.w.factors.T.reshape(result.w.rank, *masks.shape)
        storage.write_images(os.path.join(out_dir, "factors"), factors)
        artifacts += ["factors", "factors.json"]
        factor_values = [float(v) for v in result.w.values]

    csv_path = os.path.join(out_dir, "iterations.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in result.log:
            vals = list(rec.values[:3]) + [0.0] * (3 - min(3, len(rec.values)))
            writer.writerow(
                [rec.n, rec.rank, f"{rec.fidelity:.16e}"]
                + [f"{v:.16e}" for v in vals]
                + [rec.restarts, f"{rec.ms:.3f}"]
            )
    artifacts.append("iterations.csv")
    log = result.log
    summary = {
        "factorization": {"values": factor_values},
        "converged": result.converged,
        "iterations": len(log),
        "final_rank": log[-1].rank if log else 0,
        "final_fidelity": log[-1].fidelity if log else 0.0,
    }
    return image, summary, artifacts


def cmd_solve(args):
    out_dir = _ensure_dir(args.out)
    config_doc = _load_run_config(args.config) if args.config else None
    if config_doc and config_doc.get("mode") not in (None, "solve"):
        raise ConfigError(f"config mode {config_doc.get('mode')!r} does not match 'solve'")
    settings = _merge_solver_settings(config_doc, args)
    masks_path = args.masks or (config_doc or {}).get("paths", {}).get("masks")
    data_path = args.data or (config_doc or {}).get("paths", {}).get("data")
    if not masks_path or not data_path:
        raise ConfigError("solve requires --masks and --data (or config paths)")
    seed = args.seed if args.seed is not None else (config_doc or {}).get("seed", 0)

    _, summary, artifacts = _solve_problem(masks_path, data_path, settings, seed, out_dir)
    paths = {"masks": os.path.abspath(masks_path), "data": os.path.abspath(data_path)}
    config = {"solver": settings, "paths": paths, **summary}
    _write_manifest(out_dir, "solve", config, seed, artifacts)
    report = {key: summary[key] for key in ("iterations", "final_rank", "final_fidelity",
                                            "converged")}
    print(json.dumps({"recovered": os.path.join(out_dir, "recovered"), **report}, indent=2))
    return 0


def cmd_eval(args):
    recovered = _read_image(args.recovered)
    reference = _read_image(args.reference)
    if recovered.shape != reference.shape:
        raise ConfigError("recovered and reference images have different shapes")
    report = {
        "recovered": os.path.abspath(args.recovered),
        "reference": os.path.abspath(args.reference),
        "relative_error_up_to_phase": error_up_to_phase(recovered, reference),
    }
    if args.masks:
        mask_array = storage.read_images(args.masks)
        if mask_array.shape[1:] != reference.shape:
            raise ConfigError("masks and images have different shapes")
        masks = MaskSet(array=mask_array, kind="custom")
        cov = coverage_map(masks)
        holes = cov == 0
        if np.any(holes):
            corr = np.vdot(reference.ravel(), recovered.ravel())
            phase = np.exp(-1j * np.angle(corr)) if corr != 0 else 1.0
            aligned = phase * recovered
            ref_mag = np.linalg.norm(reference[holes])
            report["uncovered_pixels"] = int(holes.sum())
            report["uncovered_relative_error"] = (
                float(np.linalg.norm((aligned - reference)[holes]) / ref_mag)
                if ref_mag > 0
                else 0.0
            )
        else:
            report["uncovered_pixels"] = 0
    print(json.dumps(report, indent=2))
    return 0


def cmd_bench_svt(args):
    rows = run_benchmark(
        iterations=args.iterations, size=args.size, mask_count=args.count, seed=args.seed
    )
    print(format_table(rows))
    if args.json:
        config = {"iterations": args.iterations, "size": args.size, "count": args.count}
        payload = {
            "config": config,
            "config_sha256": _config_sha256(config),
            "seed": args.seed,
            "rows": [row.__dict__ for row in rows],
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0


def cmd_demo(args):
    out_dir = _ensure_dir(args.out)
    shape = _parse_shape(args.shape)
    image = synthetic_image(shape, seed=args.seed)
    storage.write_images(os.path.join(out_dir, "truth"), image)
    masks = make_rademacher_masks(shape, args.count, seed=args.seed + 1)
    storage.write_images(os.path.join(out_dir, "masks"), masks.array)
    _write_data(out_dir, image, masks, args.noise, args.seed + 2)

    settings = _solver_defaults()
    settings["max_iter"] = args.iterations
    if args.noise > 0:
        settings["fidelity"] = "tikhonov"
        settings["alpha"] = args.alpha
    recovered, summary, artifacts = _solve_problem(
        os.path.join(out_dir, "masks"), os.path.join(out_dir, "data"), settings, args.seed, out_dir
    )
    err = error_up_to_phase(recovered, image)
    config = {
        "shape": list(shape),
        "count": args.count,
        "noise": args.noise,
        "solver": settings,
        "error_up_to_phase": err,
        "final_rank": summary["final_rank"],
    }
    inputs = ["truth", "truth.json", "masks", "masks.json", "data", "data.json"]
    _write_manifest(out_dir, "demo", config, args.seed, artifacts + inputs)
    report = {"out": out_dir, "error_up_to_phase": err, "final_rank": summary["final_rank"],
              "iterations": summary["iterations"]}
    print(json.dumps(report, indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="liftkit",
        description="Matrix-free lifted solvers for masked Fourier phase retrieval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-masks", help="generate a random mask stack")
    p.add_argument("--kind", choices=list(MASK_MAKERS), required=True)
    p.add_argument("--shape", required=True, help="image shape HxW, e.g. 16x16")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_masks)

    p = sub.add_parser("gen-data", help="compute measurements for an image")
    p.add_argument("--image", required=True)
    p.add_argument("--masks", required=True)
    p.add_argument("--m2", type=int, default=None, help="DFT rows (default 2x image)")
    p.add_argument("--m1", type=int, default=None, help="DFT columns (default 2x image)")
    p.add_argument("--noise", type=float, default=0.0, help="relative noise level")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("solve", help="run the recovery")
    p.add_argument("--config", default=None, help="JSON run configuration")
    p.add_argument("--masks", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--out", required=True)
    for _, _, setting in _rows():
        p.add_argument(setting.flag, default=None, **setting.keywords)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="compare a recovery against a reference")
    p.add_argument("--recovered", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--masks", default=None, help="mask stack for uncovered-pixel analysis")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench-svt", help="time the threshold engines on a fixed problem")
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--json", default=None, help="also write rows to this JSON file")
    p.set_defaults(func=cmd_bench_svt)

    p = sub.add_parser("demo", help="generate, solve, and evaluate a small problem")
    p.add_argument("--out", default="liftkit-demo")
    p.add_argument("--shape", default="16x16")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=1.0, help="Tikhonov weight for noisy demos")
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_demo)

    return parser


def _check_args(args):
    """Reject what numpy or the benchmark would only fail on deep inside a command."""
    if getattr(args, "seed", None) is not None and args.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {args.seed}")
    if getattr(args, "size", 1) < 1:
        raise ConfigError(f"size must be positive, got {args.size}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
