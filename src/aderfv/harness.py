"""Error norms, convergence studies and benchmark presets.

Errors compare the WENO reconstruction of the final cell averages against
the exact (or reference) solution, integrating cell-wise with a 5-point
Gauss rule: L1 and L2 are integral norms over the domain, Linf the maximum
over all quadrature samples.  For systems the designated component is used
(density for Euler, the first component otherwise).  Empirical orders are
log2 ratios of errors between consecutive meshes of ratio 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .nodes import gauss_legendre
from .scheme import RunConfig, run
from .systems import (HyperbolicSystem, euler_primitive_to_conserved,
                      euler_system, leveque_yee_system, linear_system,
                      nonlinear_system, shu_osher_initial)
from .weno import CellField, WenoConfig, reconstruct

PRESET_NAMES = ("linear", "nonlinear", "leveque-yee", "euler-smooth", "shu-osher")


# ----------------------------------------------------------------------------
# error norms and empirical orders
# ----------------------------------------------------------------------------

def error_norms(field_final: CellField, exact: Callable, M: int, t_end: float,
                component: int = 0,
                weno_config: Optional[WenoConfig] = None):
    """(Linf, L1, L2) of reconstruction minus exact at t_end, one component."""
    recon = reconstruct(field_final, M, weno_config)
    xi, w = gauss_legendre(5, -0.5, 0.5)
    values = recon.evaluate(xi)[component].T     # (cells, points)
    xg = field_final.cell_centers()[:, None] + xi[None, :] * field_final.dx
    exact_vals = np.asarray(exact(xg, t_end))[..., component]
    err = np.abs(values - exact_vals)
    l1 = field_final.dx * float(np.sum(err @ w))
    l2 = math.sqrt(field_final.dx * float(np.sum(err**2 @ w)))
    linf = float(np.max(err))
    return linf, l1, l2


@dataclass
class MeshResult:
    """Errors and timing for one mesh of a convergence study."""

    n_cells: int
    linf: float
    l1: float
    l2: float
    cpu_seconds: float
    ord_linf: Optional[float] = None
    ord_l1: Optional[float] = None
    ord_l2: Optional[float] = None


@dataclass
class ConvergenceReport:
    """Per-mesh errors and empirical orders for one scheme order."""

    system: str
    order: int
    rows: list = field(default_factory=list)

    def format_table(self, with_cpu: bool = True) -> str:
        head = f"Theoretical order : {self.order}\n"
        cols = f"{'Mesh':>6} {'Linf-err':>12} {'Linf-ord':>9} {'L1-err':>12} " \
               f"{'L1-ord':>9} {'L2-err':>12} {'L2-ord':>9}"
        if with_cpu:
            cols += f" {'CPU':>10}"
        lines = [head + cols]
        for r in self.rows:
            def fo(v):
                return f"{v:9.2f}" if v is not None else f"{'-':>9}"
            line = (f"{r.n_cells:>6} {r.linf:12.4e} {fo(r.ord_linf)} "
                    f"{r.l1:12.4e} {fo(r.ord_l1)} {r.l2:12.4e} {fo(r.ord_l2)}")
            if with_cpu:
                line += f" {r.cpu_seconds:10.4f}"
            lines.append(line)
        return "\n".join(lines) + "\n"

    def csv_lines(self, with_cpu: bool = True):
        head = "n_cells,linf_err,linf_ord,l1_err,l1_ord,l2_err,l2_ord"
        if with_cpu:
            head += ",cpu_seconds"
        out = [head]
        for r in self.rows:
            def fo(v):
                return f"{v:.6f}" if v is not None else ""
            line = (f"{r.n_cells},{r.linf:.10e},{fo(r.ord_linf)},"
                    f"{r.l1:.10e},{fo(r.ord_l1)},{r.l2:.10e},{fo(r.ord_l2)}")
            if with_cpu:
                line += f",{r.cpu_seconds:.4f}"
            out.append(line)
        return out


def empirical_orders(report: ConvergenceReport) -> ConvergenceReport:
    """Fill log2 error ratios between consecutive meshes of ratio 2.

    Zero (or non-finite) errors yield the undefined-order marker ``None``.
    """
    def order_of(coarse, fine):
        if coarse <= 0.0 or fine <= 0.0 or not np.isfinite(coarse / fine):
            return None
        return math.log2(coarse / fine)

    for prev, row in zip(report.rows[:-1], report.rows[1:]):
        if row.n_cells == 2 * prev.n_cells:
            row.ord_linf = order_of(prev.linf, row.linf)
            row.ord_l1 = order_of(prev.l1, row.l1)
            row.ord_l2 = order_of(prev.l2, row.l2)
    return report


# ----------------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class PresetCase:
    """A benchmark problem: system, initial data, domain and run defaults."""

    name: str
    system: HyperbolicSystem
    initial: Callable[[np.ndarray], np.ndarray]
    exact: Optional[Callable]
    x_left: float
    x_right: float
    boundary: str
    cfl: float
    t_out: float
    cells: int
    error_component: int = 0


def make_case(name: str, beta: Optional[float] = None) -> PresetCase:
    """Build one of the named benchmark cases, optionally overriding beta.

    The Euler presets have no source, so a beta for them is refused.
    """
    if beta is not None and name in ("euler-smooth", "shu-osher"):
        raise ValueError(f"preset {name!r} has no source coefficient beta")
    if name == "linear":
        system = linear_system(lam=1.0, beta=-1.0 if beta is None else beta)
        return PresetCase(name, system, lambda x: system.exact_solution(x, 0.0),
                          system.exact_solution, 0.0, 1.0, "periodic",
                          0.9, 1.0, 100)
    if name == "nonlinear":
        system = nonlinear_system(beta=-1.0 if beta is None else beta)
        return PresetCase(name, system, lambda x: system.exact_solution(x, 0.0),
                          system.exact_solution, 0.0, 1.0, "periodic",
                          0.9, 0.1, 128)
    if name == "leveque-yee":
        system = leveque_yee_system(beta=-10000.0 if beta is None else beta)
        return PresetCase(name, system, lambda x: system.exact_solution(x, 0.0),
                          system.exact_solution, 0.0, 1.0, "transmissive",
                          0.2, 0.3, 300)
    if name == "euler-smooth":
        system = euler_system()
        return PresetCase(name, system, lambda x: system.exact_solution(x, 0.0),
                          system.exact_solution, 0.0, 1.0, "periodic",
                          0.9, 1.0, 100)
    if name == "shu-osher":
        system = euler_system()

        def initial(x):
            return euler_primitive_to_conserved(shu_osher_initial(x),
                                                system.params["gamma"])

        return PresetCase(name, system, initial, None, -1.0, 1.0,
                          "transmissive", 0.5, 0.47, 300)
    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def build_config(case: PresetCase, order: int, cells: Optional[int] = None,
                 cfl: Optional[float] = None, t_out: Optional[float] = None,
                 boundary: Optional[str] = None, **kwargs) -> RunConfig:
    """RunConfig for a preset case at a given scheme order (2..5)."""
    return RunConfig(
        system=case.system,
        initial=case.initial,
        M=order - 1,
        n_cells=case.cells if cells is None else cells,
        x_left=case.x_left,
        x_right=case.x_right,
        t_out=case.t_out if t_out is None else t_out,
        cfl=case.cfl if cfl is None else cfl,
        boundary=case.boundary if boundary is None else boundary,
        **kwargs,
    )


def field_interpolant(field_final: CellField, M: int,
                      weno_config: Optional[WenoConfig] = None) -> Callable:
    """Piecewise-polynomial evaluator of a field's WENO reconstruction.

    Returns ``f(x, t=None) -> (..., m)``; used to turn a fine-mesh run into
    a reference solution for error measurement.
    """
    coeffs = reconstruct(field_final, M, weno_config).coeffs.T   # (N, M+1, m)
    x_left, dx, n = field_final.x_left, field_final.dx, field_final.n_cells

    def evaluate(x, t=None):
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        pos = (flat - x_left) / dx
        idx = np.clip(np.floor(pos).astype(int), 0, n - 1)
        xi = pos - idx - 0.5
        basis = xi[:, None] ** np.arange(M + 1)
        # a C-contiguous (points, M+1, m) gather, which fixes einsum's
        # order of summation for every m
        vals = np.einsum("pk,pkm->pm", basis, np.take(coeffs, idx, axis=0))
        return vals.reshape(x.shape + (vals.shape[-1],))

    return evaluate


_REFERENCE_CACHE: dict = {}


def shu_osher_reference(cells: int = 2000, order: int = 3) -> CellField:
    """Fine-mesh self-run used as the Shu-Osher reference profile (cached)."""
    key = (cells, order)
    if key not in _REFERENCE_CACHE:
        case = make_case("shu-osher")
        result = run(build_config(case, order=order, cells=cells))
        _REFERENCE_CACHE[key] = result.field
    return _REFERENCE_CACHE[key]


# ----------------------------------------------------------------------------
# convergence studies
# ----------------------------------------------------------------------------

def convergence_study(case: PresetCase, order: int, meshes,
                      cfl: Optional[float] = None,
                      t_out: Optional[float] = None,
                      exact: Optional[Callable] = None,
                      **config_kwargs) -> ConvergenceReport:
    """Run one preset over a sequence of meshes and tabulate errors."""
    exact_fn = exact if exact is not None else case.exact
    if exact_fn is None:
        raise ValueError(f"preset {case.name!r} has no exact solution; "
                         "pass a reference interpolant via exact=")
    report = ConvergenceReport(system=case.name, order=order)
    for n_cells in meshes:
        config = build_config(case, order, cells=n_cells, cfl=cfl,
                              t_out=t_out, **config_kwargs)
        result = run(config)
        linf, l1, l2 = error_norms(result.field, exact_fn, config.M,
                                   result.t_final,
                                   component=case.error_component,
                                   weno_config=config.weno)
        report.rows.append(MeshResult(n_cells=n_cells, linf=linf, l1=l1,
                                      l2=l2, cpu_seconds=result.seconds))
    return empirical_orders(report)
