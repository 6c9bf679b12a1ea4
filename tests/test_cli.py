import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import liftkit
from liftkit import cli, storage
from liftkit.cli import _artifact_sha256, build_parser, main
from liftkit.phase_retrieval import SINGLE_PRECISION_DELTA, synthetic_image
from liftkit.solver import SolverConfig


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def console_script_run(args):
    """Run the `liftkit` console script with `args`.

    An installed script on PATH is run as is. Without one, the entry point
    that pyproject.toml declares is run in a fresh interpreter, the way the
    wrapper that pip generates for it would run it, with the imported
    liftkit package first on PYTHONPATH.
    """
    script = shutil.which("liftkit")
    if script is not None:
        return subprocess.run([script, *args], capture_output=True, text=True)
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        entry_point = tomllib.load(fh)["project"]["scripts"]["liftkit"]
    module, attr = entry_point.split(":")
    code = f"import sys; sys.argv[0] = 'liftkit'; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ)
    package_parent = str(Path(liftkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)


class TestGenMasks:
    def test_rademacher_generation(self, tmp_path, capsys):
        out_dir = tmp_path / "m"
        code, out = run(
            ["gen-masks", "--kind", "rademacher", "--shape", "16x16", "--count", "8",
             "--seed", "7", "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        stack = storage.read_images(out_dir / "masks")
        assert stack.shape == (8, 16, 16)
        report = json.loads(out)
        assert 0 <= report["zero_coverage_fraction"] < 1

    def test_gaussian_generation(self, tmp_path, capsys):
        code, _ = run(
            ["gen-masks", "--kind", "gaussian", "--shape", "8x8", "--count", "8",
             "--seed", "1", "--out", str(tmp_path / "g")],
            capsys,
        )
        assert code == 0
        stack = storage.read_images(tmp_path / "g" / "masks")
        assert stack.shape == (8, 8, 8)

    def test_seed_reproducibility_binary(self, tmp_path, capsys):
        for name in ("a", "b"):
            code, _ = run(
                ["gen-masks", "--kind", "rademacher", "--shape", "8x8", "--count", "4",
                 "--seed", "3", "--out", str(tmp_path / name)],
                capsys,
            )
            assert code == 0
        assert (tmp_path / "a" / "masks").read_bytes() == (tmp_path / "b" / "masks").read_bytes()

    def test_manifest_written(self, tmp_path, capsys):
        code, _ = run(
            ["gen-masks", "--kind", "rademacher", "--shape", "4x4", "--count", "2",
             "--seed", "0", "--out", str(tmp_path / "m")],
            capsys,
        )
        assert code == 0
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["command"] == "gen-masks"
        assert "masks" in manifest["artifacts"]
        assert len(manifest["config_sha256"]) == 64


class TestGenData:
    def make_inputs(self, tmp_path, capsys, shape="16x16", count=8):
        img = synthetic_image((16, 16), seed=5)
        storage.write_images(tmp_path / "truth", img)
        run(
            ["gen-masks", "--kind", "rademacher", "--shape", shape, "--count", str(count),
             "--seed", "2", "--out", str(tmp_path)],
            capsys,
        )
        return tmp_path / "truth", tmp_path / "masks"

    def test_expected_length(self, tmp_path, capsys):
        image, masks = self.make_inputs(tmp_path, capsys)
        code, out = run(
            ["gen-data", "--image", str(image), "--masks", str(masks),
             "--out", str(tmp_path / "d")],
            capsys,
        )
        assert code == 0
        g, dims = storage.read_data(tmp_path / "d" / "data")
        assert dims == (8, 32, 32)
        assert g.size == 8 * 32 * 32
        assert json.loads(out)["length"] == 8192

    def test_zero_noise_matches_forward(self, tmp_path, capsys):
        image, masks = self.make_inputs(tmp_path, capsys)
        run(
            ["gen-data", "--image", str(image), "--masks", str(masks),
             "--out", str(tmp_path / "d0")],
            capsys,
        )
        from liftkit.metric import EuclideanMetric
        from liftkit.phase_retrieval import MaskSet, PRProblem, forward

        img = storage.read_images(image)[0]
        stack = storage.read_images(masks)
        problem = PRProblem(
            masks=MaskSet(array=stack), m2=32, m1=32, metric=EuclideanMetric(256)
        )
        g, _ = storage.read_data(tmp_path / "d0" / "data")
        assert np.allclose(g, forward(problem, img))

    def test_noise_ratio_exact(self, tmp_path, capsys):
        image, masks = self.make_inputs(tmp_path, capsys)
        run(
            ["gen-data", "--image", str(image), "--masks", str(masks),
             "--out", str(tmp_path / "dc")],
            capsys,
        )
        run(
            ["gen-data", "--image", str(image), "--masks", str(masks), "--noise", "0.05",
             "--seed", "9", "--out", str(tmp_path / "dn")],
            capsys,
        )
        clean, _ = storage.read_data(tmp_path / "dc" / "data")
        noisy, _ = storage.read_data(tmp_path / "dn" / "data")
        ratio = np.linalg.norm(noisy - clean) / np.linalg.norm(clean)
        assert ratio == pytest.approx(0.05, abs=1e-12)

    def test_nan_pixel_exit_two(self, tmp_path, capsys):
        image, masks = self.make_inputs(tmp_path, capsys)
        img = storage.read_images(image)[0]
        img[3, 4] = np.nan
        storage.write_images(image, img)
        code = main(["gen-data", "--image", str(image), "--masks", str(masks),
                     "--out", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and str(image) in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "d" / "data").exists()


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("solve")
    img = synthetic_image((8, 8), seed=3)
    storage.write_images(tmp_path / "truth", img)
    main(["gen-masks", "--kind", "rademacher", "--shape", "8x8", "--count", "6",
          "--seed", "5", "--out", str(tmp_path)])
    main(["gen-data", "--image", str(tmp_path / "truth"), "--masks",
          str(tmp_path / "masks"), "--out", str(tmp_path)])
    code = main(["solve", "--masks", str(tmp_path / "masks"), "--data",
                 str(tmp_path / "data"), "--out", str(tmp_path / "run"),
                 "--max-iter", "250", "--seed", "0"])
    assert code == 0
    return tmp_path


class TestSolveAndEval:
    def test_outputs_exist(self, solved):
        run_dir = solved / "run"
        for name in ("recovered", "recovered.json", "iterations.csv", "manifest.json"):
            assert (run_dir / name).exists()

    def test_iterations_csv_schema(self, solved):
        import csv as csvmod

        with open(solved / "run" / "iterations.csv", newline="") as fh:
            reader = csvmod.reader(fh)
            header = next(reader)
            assert header == ["n", "rank", "fidelity", "sigma0", "sigma1", "sigma2",
                              "restarts", "ms", "delta", "single"]
            rows = list(reader)
        assert rows
        assert all(len(r) == 10 for r in rows)
        ns = [int(r[0]) for r in rows]
        assert ns == list(range(1, len(rows) + 1))
        # the loose first call runs its adjoints in single precision, and no
        # call below the switch does
        single = [int(r[9]) for r in rows]
        assert set(single) == {0, 1} and single[0] == 1
        switch = SINGLE_PRECISION_DELTA
        assert all(not flag for flag, r in zip(single, rows) if float(r[8]) < switch)

    def test_recovery_quality(self, solved):
        from liftkit.phase_retrieval import error_up_to_phase

        rec = storage.read_images(solved / "run" / "recovered")[0]
        truth = storage.read_images(solved / "truth")[0]
        assert error_up_to_phase(rec, truth) < 1e-2

    def test_eval_identical_and_rotated(self, solved, capsys, tmp_path):
        truth = storage.read_images(solved / "truth")[0]
        storage.write_images(tmp_path / "rot", np.exp(1j * 0.8) * truth)
        code, out = run(
            ["eval", "--recovered", str(tmp_path / "rot"), "--reference",
             str(solved / "truth")],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["relative_error_up_to_phase"] < 1e-12

    def test_eval_with_masks_reports_holes(self, solved, capsys):
        code, out = run(
            ["eval", "--recovered", str(solved / "run" / "recovered"), "--reference",
             str(solved / "truth"), "--masks", str(solved / "masks")],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert "uncovered_pixels" in report

    def test_eval_with_masks_reports_the_error_on_holes(self, solved, capsys, tmp_path):
        # the first two rows seen by no mask, and a recovery off the truth
        # by a global phase and a perturbation
        masks = storage.read_images(solved / "masks")
        masks[:, :2, :] = 0
        storage.write_images(tmp_path / "masks", masks)
        truth = storage.read_images(solved / "truth")[0]
        rng = np.random.default_rng(9)
        recovered = np.exp(0.7j) * truth + 0.05 * rng.standard_normal(truth.shape)
        storage.write_images(tmp_path / "recovered", recovered)
        code, out = run(
            ["eval", "--recovered", str(tmp_path / "recovered"), "--reference",
             str(solved / "truth"), "--masks", str(tmp_path / "masks")],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["uncovered_pixels"] == 16
        corr = np.vdot(truth, recovered)
        aligned = recovered * np.conj(corr) / abs(corr)
        expected = np.linalg.norm((aligned - truth)[:2]) / np.linalg.norm(truth[:2])
        assert report["uncovered_relative_error"] == pytest.approx(expected, rel=1e-12)

    def test_numerical_failure_exit_three(self, solved, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise liftkit.NumericalError("dual vector became non-finite at iteration 3")

        monkeypatch.setattr(cli, "recover", failing)
        code = main(["solve", "--masks", str(solved / "masks"), "--data",
                     str(solved / "data"), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical failure: ") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_eval_non_json_header_exit_two(self, solved, tmp_path, capsys):
        bad = tmp_path / "recovered"
        shutil.copy(solved / "run" / "recovered", bad)
        (tmp_path / "recovered.json").write_text("height=8 width=8\n")
        code = main(["eval", "--recovered", str(bad), "--reference", str(solved / "truth")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and str(tmp_path / "recovered.json") in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_solve_with_config_file(self, solved, tmp_path, capsys):
        cfg = {
            "mode": "solve",
            "seed": 0,
            "paths": {"masks": str(solved / "masks"), "data": str(solved / "data")},
            "solver": {"max_iter": 30, "fidelity": "tikhonov", "alpha": 20.0},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out = run(
            ["solve", "--config", str(cfg_path), "--out", str(tmp_path / "run2")],
            capsys,
        )
        assert code == 0
        manifest = json.loads((tmp_path / "run2" / "manifest.json").read_text())
        assert manifest["config"]["solver"]["fidelity"] == "tikhonov"
        assert manifest["config"]["solver"]["max_iter"] == 30

    def test_unknown_config_keys_rejected(self, solved, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"solver": {"bogus_knob": 1}}))
        code = main(["solve", "--config", str(cfg_path), "--masks", str(solved / "masks"),
                     "--data", str(solved / "data"), "--out", str(tmp_path / "r")])
        assert code == 2

    def test_inf_datum_exit_two(self, solved, tmp_path, capsys):
        g, dims = storage.read_data(solved / "data")
        g[7] = np.inf
        storage.write_data(tmp_path / "data", g, dims)
        code = main(["solve", "--masks", str(solved / "masks"), "--data",
                     str(tmp_path / "data"), "--out", str(tmp_path / "r"),
                     "--max-iter", "5", "--seed", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and str(tmp_path / "data") in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_missing_inputs_exit_two(self, tmp_path):
        code = main(["solve", "--out", str(tmp_path / "r")])
        assert code == 2

    def test_deterministic_solves(self, solved, tmp_path):
        args = ["solve", "--masks", str(solved / "masks"), "--data", str(solved / "data"),
                "--max-iter", "40", "--seed", "5"]
        assert main(args + ["--out", str(tmp_path / "r1")]) == 0
        assert main(args + ["--out", str(tmp_path / "r2")]) == 0
        # identical numerical columns; only the wall-clock column may differ
        def untimed(run):
            rows = [ln.split(",") for ln in (tmp_path / run / "iterations.csv").read_text().splitlines()]
            timed = rows[0].index("ms")
            return [row[:timed] + row[timed + 1:] for row in rows]

        assert untimed("r1") == untimed("r2")
        ra = (tmp_path / "r1" / "recovered").read_bytes()
        rb = (tmp_path / "r2" / "recovered").read_bytes()
        assert ra == rb

    def test_step_norm_reported(self, solved, tmp_path, capsys):
        # the estimate behind the step sizes, in the printed summary and the
        # manifest, so a slow set-up shows without a profiler
        code, out = run(["solve", "--masks", str(solved / "masks"), "--data",
                         str(solved / "data"), "--out", str(tmp_path / "r"),
                         "--max-iter", "3", "--seed", "0"], capsys)
        assert code == 0
        printed = json.loads(out)["step_norm"]
        assert printed["value"] > 0
        assert 1 <= printed["power_steps"] <= 30
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["config"]["step_norm"] == printed

    def test_unwritable_log_exit_two(self, solved, tmp_path, capsys):
        (tmp_path / "r" / "iterations.csv").mkdir(parents=True)
        code = main(["solve", "--masks", str(solved / "masks"), "--data", str(solved / "data"),
                     "--out", str(tmp_path / "r"), "--max-iter", "3", "--seed", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "iterations.csv" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_unwritable_output_costs_no_solve(self, solved, tmp_path, capsys, monkeypatch):
        out = tmp_path / "S"
        (out / "iterations.csv").mkdir(parents=True)
        solves = []
        monkeypatch.setattr(cli, "recover", lambda *args: solves.append(1))
        code = main(["solve", "--masks", str(solved / "masks"), "--data", str(solved / "data"),
                     "--out", str(out), "--max-iter", "50", "--seed", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and str(out / "iterations.csv") in err
        assert not solves
        assert sorted(p.name for p in out.iterdir()) == ["iterations.csv"]
        assert not any((out / "iterations.csv").iterdir())

    def test_rank_zero_solve_removes_an_earlier_runs_factors(self, solved, tmp_path, capsys):
        args = ["solve", "--masks", str(solved / "masks"), "--data", str(solved / "data"),
                "--out", str(tmp_path / "r"), "--seed", "0"]
        assert main(args + ["--max-iter", "20"]) == 0
        assert (tmp_path / "r" / "factors").exists()
        capsys.readouterr()
        assert main(args + ["--max-iter", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["final_rank"] == 0
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        on_disk = {p.name for p in (tmp_path / "r").iterdir()} - {"manifest.json"}
        assert on_disk == set(manifest["artifacts"]) == {
            "iterations.csv", "recovered", "recovered.json"}

    def test_seeded_solves_write_identical_manifests(self, solved, tmp_path):
        args = ["solve", "--masks", str(solved / "masks"), "--data", str(solved / "data"),
                "--max-iter", "40", "--seed", "5"]
        assert main(args + ["--out", str(tmp_path / "r1")]) == 0
        assert main(args + ["--out", str(tmp_path / "r2")]) == 0
        first = (tmp_path / "r1" / "manifest.json").read_bytes()
        assert first == (tmp_path / "r2" / "manifest.json").read_bytes()
        # the checksum still covers the log's numeric columns
        csv_path = tmp_path / "r2" / "iterations.csv"
        lines = csv_path.read_text().splitlines()
        row = lines[1].split(",")
        row[2] = "0.0"
        csv_path.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
        assert _artifact_sha256(str(csv_path)) != json.loads(first)["artifacts"]["iterations.csv"]


class TestParserReuse:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_successive_solves_share_no_parsed_values(self, solved, tmp_path):
        args = ["solve", "--masks", str(solved / "masks"), "--data", str(solved / "data"),
                "--max-iter", "3", "--seed", "0"]
        assert main(args + ["--rank-cap", "3", "--out", str(tmp_path / "capped")]) == 0
        assert main(args + ["--out", str(tmp_path / "default")]) == 0

        def rank_cap(run):
            manifest = json.loads((tmp_path / run / "manifest.json").read_text())
            return manifest["config"]["solver"]["rank_cap"]

        assert rank_cap("capped") == 3
        assert rank_cap("default") == SolverConfig().rank_cap != 3


SOLVE = ["solve", "--masks", "{dir}/masks", "--data", "{dir}/data", "--out", "{tmp}/r",
         "--max-iter", "5"]
GEN_DATA = ["gen-data", "--masks", "{dir}/masks", "--out", "{tmp}/d"]
BAD_INPUTS = {
    "ell-equals-k": SOLVE + ["--ell", "5", "--k", "5"],
    "ell-zero": SOLVE + ["--ell", "0"],
    "k-one": SOLVE + ["--k", "1", "--ell", "1"],
    "delta-zero": SOLVE + ["--delta", "0"],
    "rank-cap-zero": SOLVE + ["--rank-cap", "0"],
    "sobolev-mu-zero": SOLVE + ["--metric", "sobolev", "--mu", "0", "1", "1"],
    "negative-tol": SOLVE + ["--tol", "-1"],
    "gen-data-count-zero": GEN_DATA + ["--image", "{tmp}/empty"],
    "eval-count-zero": ["eval", "--recovered", "{tmp}/empty", "--reference", "{dir}/truth"],
    "negative-noise": GEN_DATA + ["--image", "{dir}/truth", "--noise", "-1"],
    "gen-masks-negative-seed": ["gen-masks", "--kind", "rademacher", "--shape", "8x8",
                                "--count", "2", "--out", "{tmp}/m", "--seed", "-1"],
    "gen-data-negative-seed": GEN_DATA + ["--image", "{dir}/truth", "--noise", "0.1",
                                          "--seed", "-1"],
    "solve-negative-seed": SOLVE + ["--seed", "-1"],
    "demo-negative-seed": ["demo", "--out", "{tmp}/demo", "--shape", "8x8", "--seed", "-1"],
    "bench-negative-seed": ["bench-svt", "--iterations", "2", "--seed", "-1"],
    "bench-size-zero": ["bench-svt", "--iterations", "2", "--size", "0"],
    "bench-size-negative": ["bench-svt", "--iterations", "2", "--size", "-2"],
    "solve-data-count-mismatch": SOLVE + ["--data", "{tmp}/four-masks"],
    "solve-dft-below-image": SOLVE + ["--data", "{tmp}/small-dft"],
    "gen-data-dft-below-image": GEN_DATA + ["--image", "{dir}/truth", "--m2", "4"],
    "gen-data-m2-zero": GEN_DATA + ["--image", "{dir}/truth", "--m2", "0"],
    "gen-data-m1-zero": GEN_DATA + ["--image", "{dir}/truth", "--m1", "0"],
    "gen-data-image-stack": GEN_DATA + ["--image", "{dir}/masks"],
    "eval-recovered-stack": ["eval", "--recovered", "{dir}/masks", "--reference", "{dir}/truth"],
    "eval-reference-stack": ["eval", "--recovered", "{dir}/truth", "--reference", "{dir}/masks"],
    "eval-masks-shape-mismatch": ["eval", "--recovered", "{dir}/run/recovered", "--reference",
                                  "{dir}/truth", "--masks", "{tmp}/masks16"],
    "tau-nan": SOLVE + ["--tau", "nan"],
    "sigma-nan": SOLVE + ["--sigma", "nan"],
    "eps-nan": SOLVE + ["--eps", "nan", "--fidelity", "epsball"],
    "eps-nan-exact": SOLVE + ["--eps", "nan"],
    "eps-negative": SOLVE + ["--eps", "-1"],
    "sobolev-mu-nan": SOLVE + ["--metric", "sobolev", "--mu", "nan", "1", "1"],
    "alpha-nan": SOLVE + ["--alpha", "nan"],
    "delta-inf": SOLVE + ["--delta", "inf"],
    "tol-inf": SOLVE + ["--tol", "inf"],
    "noise-nan": GEN_DATA + ["--image", "{dir}/truth", "--noise", "nan"],
    "gen-masks-out-is-file": ["gen-masks", "--kind", "rademacher", "--shape", "8x8",
                              "--count", "2", "--out", "{tmp}/empty"],
    "demo-out-below-file": ["demo", "--out", "{tmp}/empty/sub", "--shape", "8x8"],
    "gen-masks-masks-is-dir": ["gen-masks", "--kind", "rademacher", "--shape", "8x8",
                               "--count", "2", "--out", "{tmp}/blocked"],
    "bench-json-dir-missing": ["bench-svt", "--iterations", "2", "--json", "{tmp}/missing/x.json"],
    "eval-recovered-nan": ["eval", "--recovered", "{tmp}/nan-image", "--reference", "{dir}/truth"],
    "eval-reference-inf": ["eval", "--recovered", "{dir}/truth", "--reference", "{tmp}/inf-image"],
    "gen-masks-manifest-is-dir": ["gen-masks", "--kind", "rademacher", "--shape", "8x8",
                                  "--count", "2", "--out", "{tmp}/manifest-blocked"],
    "eval-fractional-height": ["eval", "--recovered", "{tmp}/fractional", "--reference",
                               "{dir}/truth"],
    "solve-config-out": SOLVE + ["--config", "{tmp}/config-out.json"],
    "solve-config-image-path": SOLVE + ["--config", "{tmp}/config-image.json"],
    "solve-config-demo-mode": SOLVE + ["--config", "{tmp}/config-demo.json"],
    "solve-config-not-json": SOLVE + ["--config", "{tmp}/not-json.json"],
    "gen-masks-shape-by": ["gen-masks", "--kind", "rademacher", "--shape", "8by8",
                           "--count", "2", "--out", "{tmp}/m"],
    "gen-masks-shape-zero": ["gen-masks", "--kind", "rademacher", "--shape", "0x8",
                             "--count", "2", "--out", "{tmp}/m"],
    "gen-masks-shape-three-axes": ["gen-masks", "--kind", "rademacher", "--shape", "8x8x8",
                                   "--count", "2", "--out", "{tmp}/m"],
    "gen-data-image-mask-shape-mismatch": GEN_DATA + ["--image", "{tmp}/image16"],
    "eval-shape-mismatch": ["eval", "--recovered", "{tmp}/image16", "--reference",
                            "{dir}/truth"],
}

# run-config keys that solve does not read
BAD_CONFIGS = {
    "config-out": {"out": "elsewhere"},
    "config-image": {"paths": {"image": "truth"}},
    "config-demo": {"mode": "demo"},
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exit_two(solved, tmp_path, capsys, monkeypatch, argv):
    """Bad flags, headers, images, config files and output paths end in exit
    code 2 and one error line, and a solve or benchmark is rejected before it
    runs."""
    (tmp_path / "empty").write_bytes(b"")
    (tmp_path / "empty.json").write_text('{"height": 8, "width": 8, "count": 0}')
    # data for 4 masks where the stack holds 6, and DFT sizes below the 8x8 image
    storage.write_data(tmp_path / "four-masks", np.ones(4 * 16 * 16), (4, 16, 16))
    storage.write_data(tmp_path / "small-dft", np.ones(6 * 4 * 4), (6, 4, 4))
    # masks for a 16x16 image that see no pixel, and a 16x16 image, beside
    # the 8x8 images and masks
    storage.write_images(tmp_path / "masks16", np.zeros((2, 16, 16)))
    storage.write_images(tmp_path / "image16", np.ones((16, 16), dtype=complex))
    (tmp_path / "not-json.json").write_text("{solver: {ell: 3}")
    # 8x8 images with one non-finite pixel, and a directory where gen-masks writes
    for name, bad in (("nan-image", np.nan), ("inf-image", np.inf)):
        image = np.ones((8, 8), dtype=complex)
        image[2, 5] = bad
        storage.write_images(tmp_path / name, image)
    (tmp_path / "blocked" / "masks").mkdir(parents=True)
    (tmp_path / "manifest-blocked" / "manifest.json").mkdir(parents=True)
    # an 8x8 image whose header height int() would read as 8
    storage.write_images(tmp_path / "fractional", np.ones((8, 8), dtype=complex))
    (tmp_path / "fractional.json").write_text('{"height": 8.7, "width": 8, "count": 1}')
    for name, doc in BAD_CONFIGS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))

    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran on a rejected configuration")

    monkeypatch.setattr("liftkit.cli.recover", no_solve)
    monkeypatch.setattr("liftkit.cli.run_benchmark", no_solve)
    code = main([arg.format(dir=solved, tmp=tmp_path) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "d" / "data").exists()


MANIFEST_RUNS = {
    "gen-masks": ["gen-masks", "--kind", "rademacher", "--shape", "8x8", "--count", "2",
                  "--out", "{out}"],
    "gen-data": ["gen-data", "--image", "{dir}/truth", "--masks", "{dir}/masks",
                 "--out", "{out}"],
    "solve": ["solve", "--masks", "{dir}/masks", "--data", "{dir}/data", "--out", "{out}",
              "--max-iter", "20", "--seed", "0"],
    "demo": ["demo", "--out", "{out}", "--shape", "8x8", "--count", "6", "--iterations", "20"],
}


@pytest.mark.parametrize("argv", MANIFEST_RUNS.values(), ids=MANIFEST_RUNS.keys())
def test_manifest_lists_every_written_file(solved, tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([arg.format(dir=solved, out=out) for arg in argv]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["artifacts"]) == sorted(set(os.listdir(out)) - {"manifest.json"})


class TestDemo:
    def test_demo_roundtrip(self, tmp_path, capsys):
        code, out = run(
            ["demo", "--out", str(tmp_path / "demo"), "--shape", "8x8", "--count", "6",
             "--iterations", "250", "--seed", "4"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["error_up_to_phase"] < 0.05
        assert (tmp_path / "demo" / "manifest.json").exists()


    def test_noisy_demo_records_tikhonov_and_alpha(self, tmp_path, capsys):
        code, _ = run(
            ["demo", "--out", str(tmp_path / "demo"), "--shape", "8x8", "--count", "6",
             "--iterations", "5", "--noise", "0.05", "--alpha", "0.5"],
            capsys,
        )
        assert code == 0
        manifest = json.loads((tmp_path / "demo" / "manifest.json").read_text())
        assert manifest["config"]["noise"] == 0.05
        assert manifest["config"]["solver"]["fidelity"] == "tikhonov"
        assert manifest["config"]["solver"]["alpha"] == 0.5


class TestBench:
    def test_bench_small(self, tmp_path, capsys):
        code, out = run(
            ["bench-svt", "--iterations", "5", "--size", "8", "--count", "4",
             "--json", str(tmp_path / "bench.json")],
            capsys,
        )
        assert code == 0
        assert "dense" in out and "lanczos" in out and "subspace" in out
        payload = json.loads((tmp_path / "bench.json").read_text())
        assert len(payload["rows"]) == 7
        assert payload["seed"] == 7
        assert len(payload["config_sha256"]) == 64


class TestEntryPointAndFlags:
    def test_console_script_help(self):
        proc = console_script_run(["--help"])
        assert proc.returncode == 0, proc.stderr
        for name in ("gen-masks", "gen-data", "solve", "eval", "bench-svt", "demo"):
            assert name in proc.stdout

    def test_no_reweight_flag_propagates(self, solved, tmp_path):
        code = main(["solve", "--masks", str(solved / "masks"), "--data",
                     str(solved / "data"), "--out", str(tmp_path / "plain"),
                     "--no-reweight", "--max-iter", "15", "--seed", "0"])
        assert code == 0
        manifest = json.loads((tmp_path / "plain" / "manifest.json").read_text())
        assert manifest["config"]["solver"]["reweight"]["enabled"] is False

    def test_fidelity_flag_switches_dual_step(self, solved, tmp_path):
        code = main(["solve", "--masks", str(solved / "masks"), "--data",
                     str(solved / "data"), "--out", str(tmp_path / "tik"),
                     "--fidelity", "tikhonov", "--alpha", "2.0",
                     "--max-iter", "15", "--seed", "0"])
        assert code == 0
        manifest = json.loads((tmp_path / "tik" / "manifest.json").read_text())
        assert manifest["config"]["solver"]["fidelity"] == "tikhonov"
        assert manifest["config"]["solver"]["alpha"] == 2.0


BAD_SOLVER_SETTINGS = {
    "ell-equals-k": {"ell": 5, "k": 5},
    "delta-zero": {"delta": 0},
    "rank-cap-zero": {"rank_cap": 0},
    "theta-two": {"theta": 2},
    "max-iter-zero": {"max_iter": 0},
    "reweight-weight": {"reweight": {"weight": 1.5}},
    # json reads NaN, and the schema's number type accepts it
    "tau-nan": {"tau": float("nan")},
    "eps-negative": {"eps": -1},
    # the schema's integer type accepts 3.0; the config classes do not
    "ell-float": {"ell": 3.0},
    "k-float": {"k": 10.0},
    "rank-cap-float": {"rank_cap": 4.0},
    "max-iter-float": {"max_iter": 5.0},
    "reweight-period-float": {"reweight": {"period": 5.0}},
    "max-promoted-float": {"reweight": {"max_promoted": 2.0}},
}


@pytest.mark.parametrize(
    "settings", BAD_SOLVER_SETTINGS.values(), ids=BAD_SOLVER_SETTINGS.keys()
)
def test_bad_config_file_settings_exit_two(solved, tmp_path, capsys, monkeypatch, settings):
    """The config classes own the setting bounds; a config file that breaks
    one ends like the flag would, before the solver runs."""

    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran on a rejected configuration")

    monkeypatch.setattr("liftkit.cli.recover", no_solve)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solver": settings}))
    code = main(["solve", "--config", str(cfg_path), "--masks", str(solved / "masks"),
                 "--data", str(solved / "data"), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
