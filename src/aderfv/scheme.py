"""One-step ADER finite-volume update and time-marching loop.

Each step: WENO-reconstruct every cell (plus one ghost cell per side so the
boundary interfaces have two predictors), solve the space-time predictor,
then update

    Qbar_i^{n+1} = Qbar_i^n - dt/dx (F_{i+1/2} - F_{i-1/2}) + dt S_i

with the interface flux a Gauss-weighted time average of Rusanov fluxes of
the predictor traces and the cell source a Newton-Cotes x Gauss quadrature
of the predictor nodes.  The time step obeys dt = C_cfl dx / lambda_abs with
lambda_abs the global maximum wave speed of the cell averages.

Scalar laws with a stiff source get one more treatment: a transition cell,
which holds a front between two stable states, is taken out of the
predictor and gets a subcell-resolved two-state space-time solution (the
neighbouring states, split by a front that conserves the cell average and
moves at the Rankine-Hugoniot speed).  Without it the implicit source undoes
the inflow of that cell each step, so the front stalls, and where dt B > 1
the predictor's implicit series diverges.  Traces, source quadrature and
update read the two-state values like any predictor values.
"""
from __future__ import annotations

import ctypes
import functools
import itertools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .nodes import (NodeGrid, SUPPORTED_M, build_grid, gauss_legendre,
                    newton_cotes_weights)
from .predictor import PredictorConfig, PredictorError, predictor_solve
from .systems import HyperbolicSystem, InadmissibleStateError
from .weno import (BOUNDARY_RULES, CellField, ReconstructionSet, WenoConfig,
                   is_int, reconstruct_padded)

MAX_STEPS = 2_000_000     # step budget of one run


class SchemeError(RuntimeError):
    """The marching loop aborted (non-finite data or step budget exhausted)."""


@dataclass
class RunConfig:
    """Complete description of one solver run."""

    system: HyperbolicSystem
    initial: Callable[[np.ndarray], np.ndarray]
    M: int
    n_cells: int
    x_left: float
    x_right: float
    t_out: float
    cfl: float = 0.9
    boundary: str = "periodic"
    weno: WenoConfig = field(default_factory=WenoConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    n_threads: int = 1

    def __post_init__(self):
        counts = (self.M, self.n_cells, self.n_threads)
        if not all(map(is_int, counts)):
            raise ValueError(f"M, n_cells, n_threads must be ints: {counts}")
        if self.M not in SUPPORTED_M:
            raise ValueError(f"unsupported order {self.M + 1} (orders 2..5)")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("CFL number must lie in (0, 1)")
        if not all(map(math.isfinite, (self.t_out, self.x_left, self.x_right))):
            raise ValueError("t_out and the domain ends must be finite")
        if self.t_out < 0.0:
            raise ValueError("t_out must be non-negative")
        if self.x_right <= self.x_left:
            raise ValueError("empty spatial domain")
        if self.n_cells < 3:
            raise ValueError("need at least 3 cells")
        if self.boundary not in BOUNDARY_RULES:
            raise ValueError(f"boundary must be one of {BOUNDARY_RULES}")
        if self.n_threads < 1:
            raise ValueError(f"need at least 1 thread, not {self.n_threads}")

    @property
    def dx(self) -> float:
        return (self.x_right - self.x_left) / self.n_cells


def rusanov_flux(q_left: np.ndarray, q_right: np.ndarray,
                 system: HyperbolicSystem) -> np.ndarray:
    """F = (F(QL) + F(QR))/2 - s (QR - QL)/2, s the largest local wave speed.

    States are component-first, (m, ...); so is the flux.
    """
    if system.admissible is not None:
        ok = system.admissible(q_left) & system.admissible(q_right)
        if not np.all(ok):
            raise InadmissibleStateError(
                f"inadmissible state at interface indices {np.argwhere(~ok)[:10].tolist()}")
    s_left = np.max(np.abs(system.eigenvalues(q_left)), axis=0)
    s_right = np.max(np.abs(system.eigenvalues(q_right)), axis=0)
    s = np.maximum(s_left, s_right)
    return 0.5 * (system.flux(q_left) + system.flux(q_right)) \
        - 0.5 * s * (q_right - q_left)


def interface_flux(left_trace: np.ndarray, right_trace: np.ndarray,
                   system: HyperbolicSystem, grid: NodeGrid) -> np.ndarray:
    """Gauss-weighted time average of Rusanov fluxes of the interface traces.

    Traces have shape (m, n_T, n_interfaces): the left cell evaluated at
    xi = +1/2 and the right cell at xi = -1/2, at every time node.  Returns
    (m, n_interfaces).
    """
    fh = rusanov_flux(left_trace, right_trace, system)
    return np.einsum("j,mjn->mn", grid.tau_weights, fh)


def cell_source(q_nodal: np.ndarray, system: HyperbolicSystem,
                grid: NodeGrid) -> np.ndarray:
    """Newton-Cotes (space) x Gauss (time) quadrature of S over the nodes.

    ``q_nodal`` has shape (m, n_S, n_T, n_cells); returns (m, n_cells).
    """
    weights = np.outer(newton_cotes_weights(grid.M + 1), grid.tau_weights)
    s_nodal = system.source(q_nodal)
    m, n_s, n_t, n = s_nodal.shape
    return np.einsum("q,mqn->mn", weights.ravel(),
                     s_nodal.reshape(m, n_s * n_t, n))


def cfl_timestep(field: CellField, system: HyperbolicSystem, cfl: float) -> float:
    """dt = C_cfl dx / lambda_abs from the cell-average wave speeds."""
    lam = float(np.max(np.abs(system.eigenvalues(field.averages.T))))
    if not np.isfinite(lam):
        raise SchemeError("non-finite wave speed in CFL estimate")
    if lam == 0.0:
        raise ValueError("no wave propagation: maximum eigenvalue is zero")
    return cfl * field.dx / lam


# A node is stiff when its source acts faster than the step: at dt*|B| > 1
# the implicit Taylor series in dt*B no longer converges, so the predictor is
# outside the envelope it was built for.
_STIFF_DT_B = 1.0
# A stiff cell whose source moves it by less than this share of the jump
# across it in one step (|S(avg)| dt < 1e-3 |q_{i+1} - q_{i-1}|) is settling
# on an equilibrium, which the predictor resolves; a front cell moves by an
# O(1) share of the jump per step.
_SETTLED_SHARE = 1.0e-3
# Jumps below sqrt(machine epsilon) of the data's range are rounding noise on
# a settled state; the ENO-SR test would pick them up as fronts.
_NOISE_SHARE = float(np.sqrt(np.finfo(float).eps))
# Ghost cells of the ENO-SR test: cell i reads the averages i-2 .. i+2, and
# the first predictor cell is ghost cell -1.
_SR_GHOST = 3


def transition_cells(field: CellField, system: HyperbolicSystem,
                     W_nodal: np.ndarray, dt: float) -> np.ndarray:
    """Flags of the predictor cells (-1 .. N) that hold a stiff moving front.

    Scalar laws only.  A cell is flagged when one of its reconstruction nodes
    is stiff and anti-dissipative (dt B(W) > 1: the implicit series amplifies
    there), or when it is stiff and passes the ENO-SR discontinuity test of
    Harten (its average lies strictly between its neighbours' and both
    one-sided differences exceed the outer ones) while its jump stands above
    rounding noise and its source still acts on the scale of that jump.
    """
    flags = np.zeros(W_nodal.shape[-1], dtype=bool)
    if system.m != 1:
        return flags
    dt_b = dt * system.source_jacobian(W_nodal)[0, 0]
    stiff = np.abs(dt_b) > _STIFF_DT_B
    if not stiff.any():
        return flags
    q = field.extended(_SR_GHOST)[:, 0]
    d = np.diff(q)
    n = len(flags)
    d_outer_l, d_l, d_r, d_outer_r = d[:n], d[1:n + 1], d[2:n + 2], d[3:n + 3]
    inside = d_l * d_r > 0.0
    eno_sr = (np.abs(d_l) > np.abs(d_outer_l)) & (np.abs(d_r) > np.abs(d_outer_r))
    avg = q[None, _SR_GHOST - 1:_SR_GHOST - 1 + n]
    jump = np.abs(d_l + d_r)
    active = (dt * np.abs(system.source(avg)[0]) > _SETTLED_SHARE * jump) \
        & (jump > _NOISE_SHARE * np.ptp(q))
    flags = (dt_b > _STIFF_DT_B).any(axis=0)
    flags |= stiff.any(axis=0) & inside & eno_sr & active
    return flags


def two_state_nodes(field: CellField, system: HyperbolicSystem,
                    flags: np.ndarray, grid: NodeGrid) -> np.ndarray:
    """Subcell-resolved space-time values of the flagged predictor cells.

    Each flagged cell holds q_L left of a front and q_R right of it, with
    q_L, q_R the averages of the nearest unflagged cells on either side.
    The front starts at xi = -1/2 + theta, theta fixed by conserving the
    cell average, and moves at the Rankine-Hugoniot speed s of the jump, so
    node (xi, tau) takes q_L where xi < -1/2 + theta + s tau dt/dx.
    Returns shape (1, n_S, n_T, n_flagged).
    """
    q = field.extended(_SR_GHOST).T
    wide = np.zeros(q.shape[1], dtype=bool)
    wide[_SR_GHOST - 1:_SR_GHOST - 1 + len(flags)] = flags
    cells = np.flatnonzero(flags) + _SR_GHOST - 1
    lo, hi = cells - 1, cells + 1
    for i in range(len(cells)):      # the outermost ghost cells are unflagged
        while wide[lo[i]]:
            lo[i] -= 1
        while wide[hi[i]]:
            hi[i] += 1
    q_l, q_r, avg = q[:, lo], q[:, hi], q[:, cells]
    flat = q_l == q_r            # no front to place: the cell keeps its average
    q_l = np.where(flat, avg, q_l)
    q_r = np.where(flat, avg, q_r)
    jump = np.where(flat, 1.0, q_r - q_l)
    speed = np.where(flat, system.eigenvalues(avg),
                     (system.flux(q_r) - system.flux(q_l)) / jump)[0]
    theta = np.clip((q_r - avg) / jump, 0.0, 1.0)[0]
    front = -0.5 + theta + speed * grid.tau[:, None] * grid.dt / grid.dx
    left = grid.xi[:, None, None] < front
    return np.where(left, q_l[:, None, None], q_r[:, None, None])


@functools.cache
def _pool(n_workers: int):
    """One worker pool per size, kept for the life of the process, so a
    step starts no threads (and maps no new thread stacks).  Imported here,
    so a one-thread run never loads ``concurrent.futures``."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=n_workers)


def _predict(config: RunConfig, W_nodal: np.ndarray, dxW: np.ndarray,
             grid: NodeGrid, cells: np.ndarray, out: np.ndarray):
    """Predictor values of the cells ``cells``, written to ``out``, with the
    cells split into consecutive blocks: the first runs on the calling
    thread, the others in the kept pool.  The per-cell solve is independent,
    so the values are bitwise identical for any thread count.  Returns the
    residual trace, per sweep the largest entry of any block that ran it,
    and the sum of the blocks' unverified cells."""
    n_threads = config.n_threads
    if cells.size < 2 * n_threads:      # too few cells to share
        n_threads = 1
    blocks = [cells[i * cells.size // n_threads:(i + 1) * cells.size // n_threads]
              for i in range(n_threads)]

    def solve(block):
        return predictor_solve(config.system, W_nodal, dxW, grid,
                               config.predictor, block, out)

    futures = [_pool(n_threads - 1).submit(solve, b) for b in blocks[1:]]
    try:
        results = [solve(blocks[0])]
    finally:    # an error is raised only once no block still runs
        for future in futures:
            future.exception()
    results += [f.result() for f in futures]
    # max per sweep over the blocks that ran it, folded in block order
    merged = [max(r for r in sweep if r is not None)
              for sweep in itertools.zip_longest(*(r for _, r, _ in results))]
    return merged, sum(unverified for _, _, unverified in results)


def nodal_solution(field: CellField, config: RunConfig, grid: NodeGrid):
    """Space-time values at the nodes of cells -1 .. N, shape (m, n_S, n_T, N+2).

    Transition cells take the two-state solution; the predictor writes every
    other cell into the same array.  Returns the values, the predictor
    residual trace and the number of unverified cells.  A ``PredictorError``
    names the mesh cell (-1 and N are the ghost cells).
    """
    M = config.M
    recon = ReconstructionSet(M, reconstruct_padded(field.extended(M + 1), M,
                                                    config.weno))
    W_nodal = recon.evaluate(grid.xi)
    dxW = recon.evaluate(grid.xi, l=1) / field.dx

    flags = transition_cells(field, config.system, W_nodal, grid.dt)
    q_nodal = np.empty(W_nodal.shape[:2] + (grid.n_time,) + W_nodal.shape[2:])
    if flags.any():
        q_nodal[..., flags] = two_state_nodes(field, config.system, flags,
                                              grid)
    try:
        residuals, unverified = _predict(config, W_nodal, dxW, grid,
                                         np.flatnonzero(~flags), q_nodal)
    except PredictorError as exc:   # index 0 of the node arrays is cell -1
        exc.nodes[:, 0] -= 1
        raise
    return q_nodal, residuals, unverified


def step(field: CellField, config: RunConfig, dt: float):
    """Advance the field by one time step of size dt.

    Returns the updated field and the step's predictor trace: the residual
    per sweep and the number of unverified cells (see ``StepStats``).

    The first call sets the process-wide allocator policy of
    :func:`_keep_heap`: freed heap up to 128 MiB is kept for reuse, so the
    memory a process holds after a run does not shrink back (peak memory is
    unchanged).
    """
    _keep_heap()
    grid = build_grid(config.M, field.dx, dt)
    q_nodal, residuals, unverified = nodal_solution(field, config, grid)

    left_trace = q_nodal[:, -1, :, :-1]     # cells -1..N-1 at xi = +1/2
    right_trace = q_nodal[:, 0, :, 1:]      # cells 0..N at xi = -1/2
    fluxes = interface_flux(left_trace, right_trace, config.system, grid)
    sources = cell_source(q_nodal[..., 1:-1], config.system, grid)

    # fluxes (m, N+1) and sources (m, N) to the (N, m) of the averages
    new_avg = field.averages \
        - (dt / field.dx) * (fluxes[:, 1:] - fluxes[:, :-1]).T \
        + dt * sources.T
    return replace(field, averages=new_avg), (residuals, unverified)


def project_initial(initial: Callable[[np.ndarray], np.ndarray],
                    n_cells: int, x_left: float, dx: float,
                    boundary: str = "periodic") -> CellField:
    """Cell averages of the initial condition by 5-point Gauss per cell."""
    nodes, wts = gauss_legendre(5, -0.5, 0.5)
    centers = x_left + (np.arange(n_cells) + 0.5) * dx
    xg = centers[:, None] + nodes[None, :] * dx
    vals = np.asarray(initial(xg), dtype=float)
    avg = np.einsum("g,ngm->nm", wts, vals)
    return CellField(n_cells=n_cells, dx=dx, x_left=x_left, averages=avg,
                     boundary=boundary)


@dataclass(frozen=True, slots=True)
class StepStats:
    """One time step: its start t, dt and lambda_abs, per predictor sweep
    the max residual of the incoming iterate over the cells it evaluated
    (largest over thread blocks), and the cells still updating after the
    last sweep, whose final iterate is unverified (transition cells: 0)."""

    t: float
    dt: float
    lam: float
    residuals: list
    unverified_cells: int


@dataclass
class RunResult:
    """Final field plus one ``StepStats`` per step."""

    field: CellField
    t_final: float
    n_steps: int
    seconds: float
    steps: list = field(default_factory=list)


@functools.cache
def _keep_heap() -> None:
    """Once per process, tell glibc malloc to keep freed heap for reuse.

    A step's node arrays (hundreds of KB each) exceed glibc's default mmap
    threshold, and its temporaries grow the heap top, which is trimmed again
    when they are freed; either way the next step faults the same pages
    back in.  Serving blocks up to 32 MiB from the heap and trimming only
    above 128 MiB keeps those pages mapped.  Both settings are needed: any
    mallopt call also stops glibc from raising the mmap threshold itself,
    so setting the trim threshold alone would leave it at 128 KiB.  Where
    ``mallopt`` does not exist (macOS, musl, Windows) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)      # M_MMAP_THRESHOLD, glibc's maximum on 64-bit
    mallopt(-1, 128 << 20)     # M_TRIM_THRESHOLD


def run(config: RunConfig) -> RunResult:
    """March from the projected initial condition to t_out.

    The final step is clipped to land exactly on t_out.  The result keeps a
    ``StepStats`` record per step.  A ``PredictorError`` names the step
    (counted from 1) and the mesh cell.  Its first step sets the
    process-wide allocator policy (see :func:`step`).
    """
    field_now = project_initial(config.initial, config.n_cells, config.x_left,
                                config.dx, config.boundary)
    t = 0.0
    steps = []
    tol = 1e-12 * max(1.0, config.t_out)
    t_start = time.perf_counter()
    while config.t_out - t > tol:
        if len(steps) == MAX_STEPS:
            raise SchemeError(f"step budget {MAX_STEPS} exhausted at t={t:g}")
        dt_cfl = cfl_timestep(field_now, config.system, config.cfl)
        dt = min(dt_cfl, config.t_out - t)
        lam = config.cfl * field_now.dx / dt_cfl
        try:
            field_now, trace = step(field_now, config, dt)
        except PredictorError as exc:
            exc.step = len(steps) + 1
            raise
        if not np.all(np.isfinite(field_now.averages)):
            bad = np.argwhere(~np.isfinite(field_now.averages))[:5]
            raise SchemeError(
                f"non-finite averages after step {len(steps) + 1} at "
                f"(cell, component) {bad.tolist()}")
        steps.append(StepStats(t, dt, lam, *trace))
        t += dt
    seconds = time.perf_counter() - t_start
    return RunResult(field=field_now, t_final=t, n_steps=len(steps),
                     seconds=seconds, steps=steps)
