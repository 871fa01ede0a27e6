"""sha256 digests of solver results, for bitwise comparison of two checkouts.

    python3 tools/digests.py [--seeds 401 402]

Run it in each checkout and diff the outputs: equal lines mean bitwise-equal
results.  Each line is ``<sha256>  <name>``, in three groups:

* ``bench`` -- final averages and per-step predictor residual traces of the
  ``perfbench`` workloads stiff-o3, shock-o3 and euler-o5, per seed (the
  configs come from ``perfbench/workloads.py``, which is only read);
* ``stiff`` -- final averages of LeVeque-Yee at beta = -1000 and -10^4,
  orders 2-5, on the preset's 300 cells at CFL 0.2;
* ``csv``   -- ``csv_lines(with_cpu=False)`` of the linear, nonlinear and
  euler-smooth convergence studies at orders 2-5 on the meshes of
  acceptance criteria 1-3.

Only numpy and the standard library are needed.  BLAS runs single-threaded,
as in the benchmark.  A run that raises is digested as its exception name.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
os.environ.pop("ADERFV_THREADS", None)

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import aderfv  # noqa: E402
from aderfv.harness import build_config, convergence_study, make_case  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402

BENCH_WORKLOADS = ("stiff-o3", "shock-o3", "euler-o5")
STIFF_BETAS = (-1000.0, -10000.0)
ORDERS = (2, 3, 4, 5)
# the meshes of acceptance criteria 1-3
CSV_MESHES = {
    "linear": [8, 16, 32, 64, 128],
    "nonlinear": [32, 64, 128, 256, 512],
    "euler-smooth": [8, 16, 32, 64, 128],
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def solve(config):
    """Run a config; returns (averages digest, residual-trace digest)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = aderfv.run(config)
    except Exception as exc:       # noqa: BLE001 - an abort is a result too
        tag = sha(type(exc).__name__.encode())
        return tag, tag
    averages = np.ascontiguousarray(result.field.averages).tobytes()
    return sha(averages), sha(repr(result.predictor_residuals).encode())


def bench_lines(seeds):
    for name in BENCH_WORKLOADS:
        for seed in seeds:
            avg, trace = solve(prepare(WORKLOADS[name], seed).config)
            yield f"{avg}  {name} seed {seed} averages"
            yield f"{trace}  {name} seed {seed} residual traces"


def stiff_lines():
    for beta in STIFF_BETAS:
        case = make_case("leveque-yee", beta=beta)
        for order in ORDERS:
            avg, _ = solve(build_config(case, order=order))
            yield f"{avg}  leveque-yee beta {beta:g} order {order} averages"


def csv_lines():
    for preset, meshes in CSV_MESHES.items():
        case = make_case(preset)
        for order in ORDERS:
            report = convergence_study(case, order, meshes)
            text = "\n".join(report.csv_lines(with_cpu=False))
            yield f"{sha(text.encode())}  {preset} order {order} csv_lines"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[401, 402])
    args = parser.parse_args()
    for lines in (bench_lines(args.seeds), stiff_lines(), csv_lines()):
        for line in lines:
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
