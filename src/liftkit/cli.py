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

import jsonschema
import numpy as np

from . import storage
from .bench import format_table, run_benchmark
from .errors import ConfigError, NumericalError
from .metric import EuclideanMetric
from .phase_retrieval import (
    PRProblem,
    add_noise,
    coverage_map,
    default_metric,
    error_up_to_phase,
    forward,
    make_gaussian_masks,
    make_rademacher_masks,
    MaskSet,
    recover,
    synthetic_image,
)
from .solver import FIDELITY_KINDS, Fidelity, ReweightSettings, SolverConfig
from .thresholding import ENGINES

SOLVER_DEFAULTS = {
    "tau": None,
    "sigma": None,
    "theta": 1.0,
    "fidelity": "exact",
    "alpha": 1.0,
    "eps": 0.0,
    "reweight": {"enabled": True, "weight": 0.5, "period": 10, "max_promoted": 5},
    "engine": "lanczos",
    "ell": 5,
    "k": 10,
    "delta": 1e-8,
    "rank_cap": 5,
    "max_iter": 1000,
    "tol": 1e-10,
    "metric": "euclidean",
    "mu": [0.25, 1.0, 1.0],
}

RUN_CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "mode": {
            "enum": ["generate-masks", "generate-data", "solve", "evaluate", "demo", "bench-svt"]
        },
        "seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string"},
        "paths": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "image": {"type": "string"},
                "masks": {"type": "string"},
                "data": {"type": "string"},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tau": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "sigma": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "theta": {"type": "number", "minimum": 0, "maximum": 1},
                "fidelity": {"enum": list(FIDELITY_KINDS)},
                "alpha": {"type": "number", "minimum": 0},
                "eps": {"type": "number", "minimum": 0},
                "reweight": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "enabled": {"type": "boolean"},
                        "weight": {"type": "number", "minimum": 0, "maximum": 1},
                        "period": {"type": "integer", "minimum": 1},
                        "max_promoted": {"type": "integer", "minimum": 1},
                    },
                },
                "engine": {"enum": list(ENGINES)},
                "ell": {"type": "integer", "minimum": 1},
                "k": {"type": "integer", "minimum": 2},
                "delta": {"type": "number", "exclusiveMinimum": 0},
                "rank_cap": {"type": "integer", "minimum": 1},
                "max_iter": {"type": "integer", "minimum": 1},
                "tol": {"type": "number", "minimum": 0},
                "metric": {"enum": ["euclidean", "sobolev"]},
                "mu": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 3,
                    "maxItems": 3,
                },
            },
        },
    },
}

CSV_HEADER = ["n", "rank", "fidelity", "sigma0", "sigma1", "sigma2", "restarts", "ms"]


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir, command, config, seed, artifacts):
    canonical = json.dumps(config, sort_keys=True, default=str)
    manifest = {
        "command": command,
        "config": config,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": seed,
        "artifacts": {
            name: _sha256(os.path.join(out_dir, name)) for name in sorted(artifacts)
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
    merged = json.loads(json.dumps(SOLVER_DEFAULTS))
    if config_doc and "solver" in config_doc:
        for key, value in config_doc["solver"].items():
            if key == "reweight":
                merged["reweight"].update(value)
            else:
                merged[key] = value
    # every setting but the reweight group has a flag of the same name
    for key in SOLVER_DEFAULTS:
        value = getattr(args, key, None)
        if value is not None and key != "reweight":
            merged[key] = value
    if getattr(args, "no_reweight", False):
        merged["reweight"]["enabled"] = False
    for attr, key in (
        ("reweight_weight", "weight"),
        ("reweight_period", "period"),
        ("max_promoted", "max_promoted"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            merged["reweight"][key] = value
    return merged


def _build_solver_config(settings, seed):
    fid_kind = settings["fidelity"]
    fidelity = Fidelity(kind=fid_kind, eps=settings["eps"] if fid_kind == "epsball" else 0.0)
    rw = settings["reweight"]
    return SolverConfig(
        tau=settings["tau"],
        sigma=settings["sigma"],
        theta=settings["theta"],
        fidelity=fidelity,
        alpha_reg=settings["alpha"],
        reweight=ReweightSettings(
            enabled=rw["enabled"],
            weight=rw["weight"],
            period=rw["period"],
            max_promoted=rw["max_promoted"],
        ),
        ell=settings["ell"],
        k=settings["k"],
        delta=settings["delta"],
        engine=settings["engine"],
        rank_cap=settings["rank_cap"],
        max_iter=settings["max_iter"],
        tol=settings["tol"],
        seed=seed,
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
    if args.kind == "rademacher":
        masks = make_rademacher_masks(shape, args.count, seed=args.seed)
    elif args.kind == "gaussian":
        masks = make_gaussian_masks(shape, args.count, seed=args.seed)
    else:
        raise ConfigError(f"unknown mask kind {args.kind!r}")
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


def cmd_gen_data(args):
    out_dir = _ensure_dir(args.out)
    image = storage.read_images(args.image)[0]
    if not np.all(np.isfinite(image)):
        raise ConfigError(f"image {args.image} has non-finite pixels")
    mask_array = storage.read_images(args.masks)
    if mask_array.shape[1:] != image.shape:
        raise ConfigError("image and masks have different shapes")
    masks = MaskSet(array=mask_array, kind="custom")
    n2, n1 = image.shape
    m2 = args.m2 or 2 * n2
    m1 = args.m1 or 2 * n1
    problem = PRProblem(masks=masks, m2=m2, m1=m1, metric=EuclideanMetric(n2 * n1))
    g = add_noise(forward(problem, image), args.noise, seed=args.seed)
    storage.write_data(os.path.join(out_dir, "data"), g, (masks.count, m2, m1))
    config = {
        "image": os.path.abspath(args.image),
        "masks": os.path.abspath(args.masks),
        "m2": m2,
        "m1": m1,
        "noise": args.noise,
    }
    _write_manifest(out_dir, "gen-data", config, args.seed, ["data", "data.json"])
    print(json.dumps({"data": os.path.join(out_dir, "data"), "length": int(g.size)}, indent=2))
    return 0


def _solve_problem(masks_path, data_path, settings, seed, out_dir, sink=None):
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

    rows = []

    def collect(rec):
        rows.append(rec)
        if sink is not None:
            sink(rec)

    image, result = recover(problem, cfg, sink=collect)

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
        for rec in rows:
            vals = list(rec.values[:3]) + [0.0] * (3 - min(3, len(rec.values)))
            writer.writerow(
                [rec.n, rec.rank, f"{rec.fidelity:.16e}"]
                + [f"{v:.16e}" for v in vals]
                + [rec.restarts, f"{rec.ms:.3f}"]
            )
    artifacts.append("iterations.csv")
    return image, result, factor_values, artifacts


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

    image, result, factor_values, artifacts = _solve_problem(
        masks_path, data_path, settings, seed, out_dir
    )
    config = {
        "solver": settings,
        "paths": {"masks": os.path.abspath(masks_path), "data": os.path.abspath(data_path)},
        "factorization": {"values": factor_values},
        "converged": result.converged,
        "iterations": len(result.log),
        "final_rank": result.log[-1].rank if result.log else 0,
        "final_fidelity": result.log[-1].fidelity if result.log else 0.0,
    }
    _write_manifest(out_dir, "solve", config, seed, artifacts)
    print(
        json.dumps(
            {
                "recovered": os.path.join(out_dir, "recovered"),
                "iterations": len(result.log),
                "final_rank": config["final_rank"],
                "final_fidelity": config["final_fidelity"],
                "converged": result.converged,
            },
            indent=2,
        )
    )
    return 0


def cmd_eval(args):
    recovered = storage.read_images(args.recovered)[0]
    reference = storage.read_images(args.reference)[0]
    if recovered.shape != reference.shape:
        raise ConfigError("recovered and reference images have different shapes")
    report = {
        "recovered": os.path.abspath(args.recovered),
        "reference": os.path.abspath(args.reference),
        "relative_error_up_to_phase": error_up_to_phase(recovered, reference),
    }
    if args.masks:
        mask_array = storage.read_images(args.masks)
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
        config = {
            "iterations": args.iterations,
            "size": args.size,
            "count": args.count,
        }
        canonical = json.dumps(config, sort_keys=True)
        payload = {
            "config": config,
            "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
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
    problem = PRProblem(
        masks=masks,
        m2=2 * shape[0],
        m1=2 * shape[1],
        metric=EuclideanMetric(shape[0] * shape[1]),
    )
    g = add_noise(forward(problem, image), args.noise, seed=args.seed + 2)
    storage.write_data(os.path.join(out_dir, "data"), g, (masks.count, problem.m2, problem.m1))

    settings = json.loads(json.dumps(SOLVER_DEFAULTS))
    settings["max_iter"] = args.iterations
    if args.noise > 0:
        settings["fidelity"] = "tikhonov"
        settings["alpha"] = args.alpha
    recovered, result, factor_values, artifacts = _solve_problem(
        os.path.join(out_dir, "masks"),
        os.path.join(out_dir, "data"),
        settings,
        args.seed,
        out_dir,
    )
    err = error_up_to_phase(recovered, image)
    config = {
        "shape": list(shape),
        "count": args.count,
        "noise": args.noise,
        "solver": settings,
        "error_up_to_phase": err,
        "final_rank": result.log[-1].rank if result.log else 0,
    }
    _write_manifest(
        out_dir, "demo", config, args.seed, artifacts + ["truth", "truth.json", "masks", "masks.json", "data", "data.json"]
    )
    print(
        json.dumps(
            {
                "out": out_dir,
                "error_up_to_phase": err,
                "final_rank": config["final_rank"],
                "iterations": len(result.log),
            },
            indent=2,
        )
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="liftkit",
        description="Matrix-free lifted solvers for masked Fourier phase retrieval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-masks", help="generate a random mask stack")
    p.add_argument("--kind", choices=["rademacher", "gaussian"], required=True)
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
    p.add_argument("--metric", choices=["euclidean", "sobolev"], default=None)
    p.add_argument("--mu", type=float, nargs=3, default=None, metavar=("MU_I", "MU_D1", "MU_D2"))
    p.add_argument("--fidelity", choices=FIDELITY_KINDS, default=None)
    p.add_argument("--alpha", type=float, default=None, help="regularization weight")
    p.add_argument("--eps", type=float, default=None, help="norm-ball radius")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--engine", choices=ENGINES, default=None)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--k", type=int, default=None,
                   help="most columns per Lanczos pass; a pass stops at its first certified column")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--rank-cap", dest="rank_cap", type=int, default=None)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--no-reweight", dest="no_reweight", action="store_true")
    p.add_argument("--reweight-weight", dest="reweight_weight", type=float, default=None)
    p.add_argument("--reweight-period", dest="reweight_period", type=int, default=None)
    p.add_argument("--max-promoted", dest="max_promoted", type=int, default=None)
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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
