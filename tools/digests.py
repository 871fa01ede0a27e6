"""sha256 digests of solver results, and a tolerance gate between two checkouts.

    python3 tools/digests.py [--seeds 401 402] [--save FILE.npz]
    python3 tools/digests.py --compare PARENT.npz CHANGE.npz

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

``--save`` also writes the arrays behind the digests to one ``.npz``: the
final averages, the residual traces (flattened, with the sweep count of
each step), the convergence tables (n_cells, then error and EOC per norm;
NaN marks an undefined EOC) and, for LeVeque-Yee runs, the front offset in
cells with the range of the averages.  ``--compare`` reads two such files
and prints per item the max |delta|, absolute and relative to the max
|value| of the first file, the EOC change per table row, and the front
offsets and ranges; it ends with the same report as one JSON line and exits
1 when an item is outside the tolerances below (or is missing, or aborted
in one file only).  Rounding-level changes pass; anything larger fails.

Only numpy and the standard library are needed.  BLAS runs single-threaded,
as in the benchmark.  A run that raises is digested as its exception name.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import aderfv  # noqa: E402
from aderfv.harness import build_config, convergence_study, make_case  # noqa: E402
from workloads import WORKLOADS, front_offset_cells, prepare  # noqa: E402

BENCH_WORKLOADS = ("stiff-o3", "shock-o3", "euler-o5")
STIFF_BETAS = (-1000.0, -10000.0)
ORDERS = (2, 3, 4, 5)
# the meshes of acceptance criteria 1-3
CSV_MESHES = {
    "linear": [8, 16, 32, 64, 128],
    "nonlinear": [32, 64, 128, 256, 512],
    "euler-smooth": [8, 16, 32, 64, 128],
}
# LeVeque-Yee fronts start at x = 0.3 and move at unit speed
FRONT_START = 0.3

# Tolerances of --compare.  Reordered floating-point sums move results by a
# few ulps per step; these bounds admit that growth over a run and nothing
# of the size of a changed method.
MAX_REL_DELTA = 1e-9      # max |delta| / max |value|, averages and tables
MAX_FRONT_DELTA = 1e-6    # front offset, in cells
MAX_EOC_DELTA = 1e-3      # per convergence-table entry


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Digests:
    """Digest lines, plus the arrays behind them when saving."""

    def __init__(self):
        self.arrays = {}
        self.items = []

    def solve(self, name, config, x_front=None, traces=False):
        """Run a config; yields its digest lines (averages, then the residual
        traces if asked) and keeps its arrays under keys ``"<name> <what>"``."""
        self.items.append(name)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = aderfv.run(config)
        except Exception as exc:       # noqa: BLE001 - an abort is a result too
            tag = sha(type(exc).__name__.encode())
            self.arrays[f"{name} aborted"] = np.array(type(exc).__name__)
            yield f"{tag}  {name} averages"
            if traces:
                yield f"{tag}  {name} residual traces"
            return
        averages = np.ascontiguousarray(result.field.averages)
        self.arrays[f"{name} averages"] = averages
        if x_front is not None:
            self.arrays[f"{name} front"] = np.array([
                front_offset_cells(result.field, x_front + result.t_final),
                averages.min(), averages.max()])
        yield f"{sha(averages.tobytes())}  {name} averages"
        if traces:
            steps = [rec.residuals for rec in result.steps]
            self.arrays[f"{name} residual traces"] = np.array(
                [r for step in steps for r in step])
            self.arrays[f"{name} sweeps per step"] = np.array(
                [len(step) for step in steps])
            yield f"{sha(repr(steps).encode())}  {name} residual traces"

    def bench_lines(self, seeds):
        for name in BENCH_WORKLOADS:
            for seed in seeds:
                prep = prepare(WORKLOADS[name], seed)
                x_front = FRONT_START + prep.shift \
                    if prep.workload.preset == "leveque-yee" else None
                yield from self.solve(f"{name} seed {seed}", prep.config,
                                      x_front, traces=True)

    def stiff_lines(self):
        for beta in STIFF_BETAS:
            case = make_case("leveque-yee", beta=beta)
            for order in ORDERS:
                yield from self.solve(f"leveque-yee beta {beta:g} order {order}",
                                      build_config(case, order=order),
                                      FRONT_START)

    def csv_lines(self):
        for preset, meshes in CSV_MESHES.items():
            case = make_case(preset)
            for order in ORDERS:
                report = convergence_study(case, order, meshes)
                name = f"{preset} order {order}"
                self.items.append(name)
                self.arrays[f"{name} table"] = np.array(
                    [[r.n_cells, r.linf, r.ord_linf, r.l1, r.ord_l1, r.l2,
                      r.ord_l2] for r in report.rows], dtype=float)
                text = "\n".join(report.csv_lines(with_cpu=False))
                yield f"{sha(text.encode())}  {name} csv_lines"

    def save(self, path: Path):
        np.savez(path, items=np.array(self.items), **self.arrays)


def _max_delta(a, b):
    """(max |a - b|, that relative to max |a|); NaN entries must match."""
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return float("inf"), float("inf")
    mask = ~np.isnan(a)
    if not mask.any():
        return 0.0, 0.0
    delta = float(np.max(np.abs(a[mask] - b[mask])))
    scale = float(np.max(np.abs(a[mask])))
    if scale == 0.0:
        return delta, 0.0 if delta == 0.0 else float("inf")
    return delta, delta / scale


def compare_item(a, b, name: str) -> dict:
    """Deltas of one item between two saved sets, with a pass flag."""
    aborted = [str(s[f"{name} aborted"]) if f"{name} aborted" in s.files
               else None for s in (a, b)]
    if any(aborted):
        return {"aborted": aborted, "ok": aborted[0] == aborted[1]}
    is_table = f"{name} table" in a.files
    key = f"{name} table" if is_table else f"{name} averages"
    if key not in a.files or key not in b.files:
        return {"missing": True, "ok": False}
    va, vb = a[key], b[key]
    if is_table:
        # columns: n_cells, then (error, EOC) for Linf, L1 and L2
        delta, rel = _max_delta(va[:, 1::2], vb[:, 1::2])
        eoc = [_max_delta(ra, rb)[0] for ra, rb in
               zip(va[:, 2::2], vb[:, 2::2])] if va.shape == vb.shape \
            else [float("inf")]
        item = {"max_abs": delta, "max_rel": rel, "eoc_delta_per_row": eoc,
                "ok": rel <= MAX_REL_DELTA and max(eoc) <= MAX_EOC_DELTA}
    else:
        delta, rel = _max_delta(va, vb)
        item = {"max_abs": delta, "max_rel": rel, "ok": rel <= MAX_REL_DELTA}
    if f"{name} front" in a.files:
        fa, fb = a[f"{name} front"], b[f"{name} front"]
        item["front"] = [float(fa[0]), float(fb[0])]
        item["range"] = [fa[1:].tolist(), fb[1:].tolist()]
        item["ok"] &= bool(fa[0] == fb[0] or abs(fa[0] - fb[0]) <= MAX_FRONT_DELTA)
    if f"{name} sweeps per step" in a.files:
        same = np.array_equal(a[f"{name} sweeps per step"],
                              b[f"{name} sweeps per step"])
        item["sweeps_per_step_equal"] = bool(same)
        if same:
            item["residual_max_rel"] = _max_delta(
                a[f"{name} residual traces"], b[f"{name} residual traces"])[1]
    return item


def compare(path_a: Path, path_b: Path) -> dict:
    """Per-item deltas between two saved sets, with a pass flag per item."""
    a, b = np.load(path_a), np.load(path_b)
    names = list(dict.fromkeys(list(a["items"]) + list(b["items"])))
    items = {str(name): compare_item(a, b, str(name)) for name in names}
    return {"tolerances": {"max_rel_delta": MAX_REL_DELTA,
                           "max_front_delta_cells": MAX_FRONT_DELTA,
                           "max_eoc_delta": MAX_EOC_DELTA},
            "ok": all(item["ok"] for item in items.values()),
            "items": items}


def print_report(report: dict):
    for name, item in report["items"].items():
        flag = "ok  " if item["ok"] else "FAIL"
        if "aborted" in item or "missing" in item:
            print(f"{flag} {name}: {item}")
            continue
        line = f"{flag} {name}: max|d| {item['max_abs']:.3e} rel {item['max_rel']:.3e}"
        if "eoc_delta_per_row" in item:
            line += "  EOC d/row " + " ".join(f"{d:.1e}"
                                              for d in item["eoc_delta_per_row"])
        if "front" in item:
            (fa, fb), (ra, rb) = item["front"], item["range"]
            line += (f"  front {fa:.6f} -> {fb:.6f} cells"
                     f"  range [{ra[0]:.6g}, {ra[1]:.6g}] -> [{rb[0]:.6g}, {rb[1]:.6g}]")
        if "sweeps_per_step_equal" in item:
            line += "  sweeps/step " + ("equal" if item["sweeps_per_step_equal"]
                                        else "DIFFER")
            if "residual_max_rel" in item:
                line += f" residual rel {item['residual_max_rel']:.1e}"
        print(line)
    print(json.dumps(report))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[401, 402])
    parser.add_argument("--save", type=Path, metavar="FILE.npz",
                        help="also write the arrays behind the digests")
    parser.add_argument("--compare", type=Path, nargs=2,
                        metavar=("PARENT.npz", "CHANGE.npz"),
                        help="compare two saved sets instead of running")
    args = parser.parse_args()
    if args.compare:
        report = compare(*args.compare)
        print_report(report)
        return 0 if report["ok"] else 1
    digests = Digests()
    for lines in (digests.bench_lines(args.seeds), digests.stiff_lines(),
                  digests.csv_lines()):
        for line in lines:
            print(line, flush=True)
    if args.save:
        digests.save(args.save)
    return 0


if __name__ == "__main__":
    sys.exit(main())
