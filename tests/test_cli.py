import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import liftkit
from liftkit import storage
from liftkit.cli import _artifact_sha256, main
from liftkit.phase_retrieval import synthetic_image


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
                              "restarts", "ms"]
            rows = list(reader)
        assert rows
        assert all(len(r) == 8 for r in rows)
        ns = [int(r[0]) for r in rows]
        assert ns == list(range(1, len(rows) + 1))

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
        a = [ln.rsplit(",", 1)[0] for ln in (tmp_path / "r1" / "iterations.csv").read_text().splitlines()]
        b = [ln.rsplit(",", 1)[0] for ln in (tmp_path / "r2" / "iterations.csv").read_text().splitlines()]
        assert a == b
        ra = (tmp_path / "r1" / "recovered").read_bytes()
        rb = (tmp_path / "r2" / "recovered").read_bytes()
        assert ra == rb

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
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exit_two(solved, tmp_path, capsys, monkeypatch, argv):
    """Bad flags and headers end in exit code 2 and one error line, and a
    solve is rejected before the solver runs."""
    (tmp_path / "empty").write_bytes(b"")
    (tmp_path / "empty.json").write_text('{"height": 8, "width": 8, "count": 0}')
    # data for 4 masks where the stack holds 6, and DFT sizes below the 8x8 image
    storage.write_data(tmp_path / "four-masks", np.ones(4 * 16 * 16), (4, 16, 16))
    storage.write_data(tmp_path / "small-dft", np.ones(6 * 4 * 4), (6, 4, 4))
    # masks for a 16x16 image that see no pixel, beside the 8x8 images
    storage.write_images(tmp_path / "masks16", np.zeros((2, 16, 16)))

    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran on a rejected configuration")

    monkeypatch.setattr("liftkit.cli.recover", no_solve)
    code = main([arg.format(dir=solved, tmp=tmp_path) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "d" / "data").exists()


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
