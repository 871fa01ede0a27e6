"""Benchmark workloads: solver configs built from a seed, and their gates.

Each workload is one preset run through ``aderfv.run``.  The seed sets a
sub-cell translation of the initial data; the exact (or stored reference)
profile is translated by the same amount, so the correctness gates and
``l1_err`` hold on every seed.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import aderfv
from aderfv.harness import build_config, field_interpolant, make_case

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    order: int
    cells: int
    t_out: float
    cfl: Optional[float] = None
    beta: Optional[float] = None
    l1_max: float = 0.0          # gate: largest accepted l1_err
    # Timed solves run at one thread.  traced_threads is the thread count of
    # the extra traced solve that gives the thread metrics and the bitwise
    # check against one thread; 1 for none.
    traced_threads: int = 1


WORKLOADS = {
    w.name: w for w in (
        Workload("euler-o5", "euler-smooth", order=5, cells=256, t_out=0.025,
                 cfl=0.9, l1_max=1e-10),
        Workload("stiff-o3", "leveque-yee", order=3, cells=600, t_out=0.2,
                 cfl=0.2, beta=-1000.0, l1_max=5e-3),
        # Timed at one thread: two threads on the two shared cores measured
        # the host's scheduler (see README, Noise); the thread-block path is
        # traced instead.
        Workload("shock-o3", "shu-osher", order=3, cells=800, t_out=0.05,
                 l1_max=1e-2, traced_threads=2),
    )
}

# Fine-mesh reference for the shock workload: a 4x finer unshifted run.
REFERENCE_REFINEMENT = 4


def reference_paths(w: Workload):
    stem = f"{w.preset}-o{w.order}-n{w.cells * REFERENCE_REFINEMENT}-t{w.t_out:g}"
    return REFERENCE_DIR / f"{stem}.npy", REFERENCE_DIR / f"{stem}.json"


def load_reference(w: Workload) -> aderfv.CellField:
    """Stored fine-mesh averages, checked against their recorded digest."""
    data_path, meta_path = reference_paths(w)
    meta = json.loads(meta_path.read_text())
    raw = data_path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != meta["sha256"]:
        raise RuntimeError(f"{data_path.name}: sha256 {digest} does not match "
                           f"the recorded {meta['sha256']}")
    averages = np.load(data_path)
    case = make_case(w.preset, beta=w.beta)
    n = averages.shape[0]
    return aderfv.CellField(n_cells=n, dx=(case.x_right - case.x_left) / n,
                            x_left=case.x_left, averages=averages,
                            boundary=case.boundary)


@dataclasses.dataclass
class Prepared:
    """A runnable workload instance for one seed."""

    workload: Workload
    config: aderfv.RunConfig
    exact: Callable
    shift: float
    error_component: int
    make_case_s: float
    build_config_s: float


def prepare(w: Workload, seed: int, threads: int = 1) -> Prepared:
    """Build the shifted case and its RunConfig (timing the harness calls)."""
    t0 = time.perf_counter()
    case = make_case(w.preset, beta=w.beta)
    t1 = time.perf_counter()
    # sub-cell translation of the initial data, in [-dx/2, dx/2)
    dx = (case.x_right - case.x_left) / w.cells
    shift = (random.Random(seed).random() - 0.5) * dx
    if case.exact is not None:
        exact_fn = case.exact
    else:
        exact_fn = field_interpolant(load_reference(w), M=w.order - 1)

    def initial(x, _f=case.initial):
        return _f(np.asarray(x) - shift)

    def exact(x, t, _f=exact_fn):
        return _f(np.asarray(x) - shift, t)

    case = dataclasses.replace(case, initial=initial, exact=exact)
    t2 = time.perf_counter()
    config = build_config(case, order=w.order, cells=w.cells, cfl=w.cfl,
                          t_out=w.t_out,
                          n_threads=threads)
    t3 = time.perf_counter()
    return Prepared(w, config, exact, shift, case.error_component,
                    make_case_s=t1 - t0, build_config_s=t3 - t2)


def front_offset_cells(field: aderfv.CellField, x_front: float) -> float:
    """Largest distance (in cells) of a 0.5-crossing of q from x_front."""
    q = field.averages[:, 0]
    x = field.cell_centers()
    sgn = np.sign(q - 0.5)
    idx = np.where(sgn[:-1] * sgn[1:] < 0)[0]
    if len(idx) == 0:
        return float("inf")
    frac = (0.5 - q[idx]) / (q[idx + 1] - q[idx])
    return float(np.max(np.abs(x[idx] + frac * field.dx - x_front)) / field.dx)


def gate(p: Prepared, result: aderfv.RunResult, l1: float) -> list:
    """Correctness failures of one finished run (empty when it passes)."""
    w, avg = p.workload, result.field.averages
    problems = []
    if abs(result.t_final - w.t_out) > 1e-9 * max(1.0, w.t_out):
        problems.append(f"t_final {result.t_final!r} != t_out {w.t_out!r}")
    if not np.all(np.isfinite(avg)):
        problems.append("non-finite averages")
    if not l1 <= w.l1_max:
        problems.append(f"l1_err {l1:.3e} above {w.l1_max:.1e}")
    if w.preset == "leveque-yee":
        off = front_offset_cells(result.field, 0.3 + p.shift + result.t_final)
        if not off <= 3.0:
            problems.append(f"front {off:.1f} cells from x = 0.3 + t")
        if avg.min() < -1e-3 or avg.max() > 1.0 + 1e-3:
            problems.append(f"range [{avg.min():.4g}, {avg.max():.4g}] "
                            "outside [-1e-3, 1 + 1e-3]")
    if w.preset == "shu-osher":
        gamma = p.config.system.params["gamma"]
        rho = avg[:, 0]
        pressure = (gamma - 1.0) * (avg[:, 2] - 0.5 * avg[:, 1] ** 2 / rho)
        if not (np.all(rho > 0.0) and np.all(pressure > 0.0)):
            problems.append("non-positive density or pressure")
    return problems
