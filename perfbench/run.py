"""liftkit benchmark: time-to-accuracy of phase-retrieval solves, per layer.

Run from the repository root:

    python3 perfbench/run.py --workload pr16_exact --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --trace 1      # every workload, traced
    python3 perfbench/run.py --smoke                       # quick self-check
    python3 perfbench/run.py --write-spec                  # regenerate BENCHMARK.json

A run solves seeded instances of one workload, one after another, until
``--seconds`` is spent (at least the workload's minimum number of solves),
checks every output against the workload's correctness gate and prints one
line per metric, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
solves that raised, went non-finite or missed the gate, so ``failed /
attempted`` is the fail ratio.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` each instance is solved untraced and then
traced (order alternating), and the metrics are the per-layer ones.

liftkit is imported from ``src/`` of the checkout this file sits in, never
from anywhere else; without it the benchmark exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402  (no numpy here, so it is safe before the thread cap)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", help="workload name or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny budgets, self-check")
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.workload != "all" and args.workload not in spec.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return args


def cap_threads():
    """Set LIFTKIT_THREADS before numpy loads: 1 unless the environment asks
    for more, and never more than the usable cores.

    The BLAS work here is on vectors of at most a few thousand entries and
    gains nothing from a second thread, while an idle BLAS thread spinning on
    a shared core makes timings depend on whatever else runs there.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    requested = int(os.environ.get("LIFTKIT_THREADS", "1"))
    threads = max(1, min(requested, cores))
    os.environ["LIFTKIT_THREADS"] = str(threads)
    # liftkit only fills these in when unset; a value inherited from the
    # caller's environment would otherwise override the cap
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return cores, threads


def import_liftkit():
    """Import liftkit from this checkout's src/ only."""
    if not (SRC / "liftkit" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import liftkit

    if Path(liftkit.__file__).resolve().parent != SRC / "liftkit":
        return None
    return liftkit


def environment(cores, threads):
    import numpy as np
    import scipy

    env = {
        "nproc": cores,
        "LIFTKIT_THREADS": threads,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "fft_backend": "numpy.fft (pocketfft)",
        "cpu_model": None,
        "l2_bytes": None,
        "l3_bytes": None,
        "blas": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and level in ("2", "3"):
            env[f"l{level}_bytes"] = int(size[:-1]) * 1024 if size.endswith("K") else size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    return env


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.render(), encoding="utf-8")
        print(f"wrote {ROOT / 'BENCHMARK.json'}")
        return 0
    cores, threads = cap_threads()
    if import_liftkit() is None:
        print(f"error: liftkit sources not found under {SRC}", file=sys.stderr)
        return 2

    import harness  # imports numpy, so only after the thread cap

    print("# env " + json.dumps(environment(cores, threads)))
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        if args.smoke:
            return harness.smoke(work_dir, OUT_DIR)
        names = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
        reports = [
            harness.run_workload(name, args.seed, args.seconds, args.trace, work_dir, OUT_DIR)
            for name in names
        ]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(harness.combine(reports)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
