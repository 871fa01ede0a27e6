"""Space-time predictor: implicit Taylor expansion at the cell node grid.

Per cell, the solution at each space-time node (xi_m, tau_j) satisfies

    Q = W(xi_m) - sum_k ((-tau)^k / k!) * G(k),      tau = tau_j * dt,

where G(k) is the k-th time derivative delivered by the recursive
Cauchy-Kowalewskaya functional.  The source part B**(k-1) S(Q) of G(k) is
kept implicit; everything else is frozen at the current iterate.  The
resulting algebraic system H(Y) = 0 is relaxed by a nested Picard iteration:
at most M outer sweeps, each refreshing the interpolated derivative stacks
and performing a single Newton step per node.  The system is local to each
cell, so a cell whose residual meets the tolerance keeps its values and every
later sweep evaluates only the cells still updating.

All arrays are component-first (see :mod:`aderfv.nodes`): W has shape
(m, n_S, n_cells), Q (m, n_S, n_T, n_cells) and a Jacobian
(m, m, n_S, n_T, n_cells).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ck import (NodeDerivativeStack, _det, _is_zero, _matmul, _matvec,
                 _solve, matrix_c, taylor_terms)
from .nodes import (CELL_AXIS, SPACE_AXIS, TIME_AXIS, NodeGrid,
                    space_derivative, time_derivative)
from .systems import HyperbolicSystem


class PredictorError(RuntimeError):
    """Newton system became singular (stiffness beyond the method's design).

    ``nodes`` holds the (cell, space node, time node) indices of the singular
    systems, the cell counted in the node arrays given to
    :func:`predictor_solve` (the scheme shifts it to the mesh cell).
    ``step`` is the 1-based time step of the run that raised it, or None
    below ``scheme.run``.
    """

    def __init__(self, nodes: np.ndarray, step: int | None = None):
        self.nodes = nodes
        self.step = step

    def __str__(self) -> str:
        where = "" if self.step is None else f" in step {self.step}"
        return (f"singular Newton system{where} at (cell, space node, time "
                f"node) indices {self.nodes[:10].tolist()}")


@dataclass(frozen=True)
class PredictorConfig:
    """Iteration controls for the nested Picard/Newton solve.

    The sweep budget is always M; a cell whose residual is at or below
    ``residual_tol`` stops updating and drops out of the later sweeps (no
    accuracy change).  A cell still above it after sweep M keeps the values
    of that sweep unchecked, and ``predictor_solve`` counts it.
    """

    residual_tol: float = 1.0e-12


def initial_guess(system: HyperbolicSystem, W_nodal: np.ndarray,
                  dxW: np.ndarray, grid: NodeGrid) -> np.ndarray:
    """Second-order implicit starting guess at every space-time node.

    Linearizing Q = W + tau(-A dxQ + S(Q)) around W gives the per-node solve

        [I - tau B(W)] Q = W - tau A(W) dxW + tau (S(W) - B(W) W),

    with tau the physical time offset.  The affine source terms vanish for
    linear sources but are essential near equilibria of nonlinear ones
    (constant data with S(W) = 0 must yield Q = W exactly).  A singular or
    amplifying matrix falls back to Q = W; a singular one also warns, whether
    it holds at some nodes or at all of them.
    """
    m = W_nodal.shape[0]
    tau = (grid.tau * grid.dt)[:, None]     # on the (n_T, cells) axes
    a_w = system.flux_jacobian(W_nodal)
    b_w = system.source_jacobian(W_nodal)
    adv = _matvec(a_w, dxW)
    if _is_zero(b_w):
        forcing = system.source(W_nodal) - adv
        return W_nodal[:, :, None] + tau * forcing[:, :, None]
    affine = system.source(W_nodal) - _matvec(b_w, W_nodal)
    rhs = W_nodal[:, :, None] + tau * (affine - adv)[:, :, None]
    mats = np.eye(m)[:, :, None, None, None] - tau * b_w[:, :, :, None]
    w_nodes = np.broadcast_to(W_nodal[:, :, None], rhs.shape)
    good = np.abs(_det(mats)) > np.finfo(float).tiny
    if good.all():
        out = _solve(mats, rhs)
    else:
        warnings.warn("stiff-initialization failure: singular [I - tau B], "
                      "falling back to Q = W at the affected nodes")
        out = w_nodes.copy()
        if good.any():
            out[:, good] = _solve(mats[:, :, good], rhs[:, good])
    # The linearized solve only stabilizes when the relaxation is
    # dissipative; near an anti-dissipative equilibrium (tau B -> 1) it
    # amplifies instead of damping, so such nodes also fall back to W.
    scale = 1.0 + np.max(np.abs(w_nodes), axis=0)
    wild = ~np.isfinite(out).all(axis=0)
    wild |= np.max(np.abs(out - w_nodes), axis=0) > 10.0 * scale
    if wild.any():
        out = np.where(wild, w_nodes, out)
    return out


def populate_stacks(system: HyperbolicSystem, Q: np.ndarray,
                    grid: NodeGrid) -> NodeDerivativeStack:
    """Evaluate A, B, S at the nodes and fill all derivative stacks.

    Spatial derivatives: Q to order M, A to M-1, B to M-2 (interpolation
    across the space nodes at fixed time node); temporal derivatives of B to
    order M-2 (interpolation across the time nodes at fixed space node).
    All physically scaled.
    """
    M = grid.M
    stack = NodeDerivativeStack(
        Q=Q,
        A=system.flux_jacobian(Q),
        B=system.source_jacobian(Q),
        S=system.source(Q),
    )
    for l in range(1, M + 1):
        stack.dxQ[l] = space_derivative(Q, l, grid, axis=SPACE_AXIS)
    for l in range(1, M):
        stack.dxA[l] = space_derivative(stack.A, l, grid, axis=SPACE_AXIS)
    if not stack.b_is_zero:
        for l in range(1, M - 1):
            stack.dxB[l] = space_derivative(stack.B, l, grid, axis=SPACE_AXIS)
            stack.dtB[l] = time_derivative(stack.B, l, grid, axis=TIME_AXIS)
    return stack


def residual_and_jacobian(stack: NodeDerivativeStack, C: dict,
                          W_nodal: np.ndarray, tau_phys: np.ndarray, M: int):
    """Algebraic system H and its Jacobian J at the iterate Y = stack.Q.

    H(Y) = Y - W + sum_k c_k dtQ[k], with c_k = (-tau)^k / k! and dtQ[k] the
    time derivatives of :func:`taylor_terms`, summed in increasing k.  Only
    the source part B**(k-1) S(Y) of dtQ[k] is kept implicit, so
    J = I + (sum_k c_k B**(k-1)) B(Y).  Where B vanishes J = I, and None is
    returned in its place.
    """
    dtq = taylor_terms(stack, C, M)
    # on the trailing (n_T, cells) axes of vectors and matrices alike
    coeffs = [((-tau_phys) ** k / math.factorial(k))[:, None]
              for k in range(1, M + 1)]
    h = stack.Q - W_nodal[:, :, None]
    for k, ck in enumerate(coeffs, 1):
        h = h + ck * dtq[k]
    if stack.b_is_zero:
        return h, None
    eye = np.eye(W_nodal.shape[0])[:, :, None, None, None]
    b_pow = np.broadcast_to(eye, stack.B.shape)
    weight = None
    for k, ck in enumerate(coeffs, 1):
        contrib = ck * b_pow
        weight = contrib if weight is None else weight + contrib
        if k < M:
            b_pow = _matmul(b_pow, stack.B)
    return h, eye + _matmul(weight, stack.B)


def newton_sweep(stack: NodeDerivativeStack, C: dict,
                 W_nodal: np.ndarray, grid: NodeGrid,
                 cells: np.ndarray | None = None):
    """One Newton step Q <- Q - delta, J delta = H, at every node.

    Returns the updated nodal values together with the per-cell max-norm of
    H at the incoming iterate.  ``cells`` names each cell of the batch in a
    ``PredictorError`` (default: its position in the batch).
    """
    tau_phys = grid.tau * grid.dt
    h, jac = residual_and_jacobian(stack, C, W_nodal, tau_phys, grid.M)
    # max over the components and nodes, which lead the cells
    cell_res = np.abs(h).reshape(-1, h.shape[CELL_AXIS]).max(0)
    if jac is None:   # B = 0: the system is affine with unit Jacobian
        return stack.Q - h, cell_res
    try:
        delta = _solve(jac, h)
    except np.linalg.LinAlgError:
        singular = ~(np.abs(_det(jac)) > np.finfo(float).tiny)
        # (cell, space node, time node) rows, sorted by cell
        nodes = np.argwhere(np.moveaxis(singular, CELL_AXIS, 0))
        if cells is not None:
            nodes[:, 0] = cells[nodes[:, 0]]
        raise PredictorError(nodes) from None
    return stack.Q - delta, cell_res


def predictor_solve(system: HyperbolicSystem, W_nodal: np.ndarray,
                    dxW: np.ndarray, grid: NodeGrid,
                    cfg: PredictorConfig | None = None,
                    cells: np.ndarray | None = None,
                    out: np.ndarray | None = None
                    ) -> tuple[np.ndarray, list, int]:
    """Run the nested Picard iteration for the cells ``cells`` (default: all)
    of the node arrays ``W_nodal`` and ``dxW``, shape (m, n_S, n_cells).

    Up to M sweeps of {populate stacks, build C matrices, Newton step at
    every node}, each over the cells still updating only; a cell whose
    incoming residual meets the tolerance keeps its values and leaves (the
    exit is per cell, so results do not depend on which cells are solved
    together).  Writes each cell's values once into ``out``, shape
    (m, n_S, n_T, n_cells) (default: a new array): a cell that leaves in
    the sweep where it leaves, the cells still updating after sweep M with
    that sweep's update.  Returns ``out``; per sweep
    the max-norm residual of the incoming iterate over the cells it
    evaluated (above ``residual_tol`` the max over all cells, since a cell
    that left holds a residual at or below it); and the number of cells
    left unverified, still updating after sweep M.  A ``PredictorError``
    names cells by their index in ``W_nodal``.
    """
    cfg = cfg or PredictorConfig()
    M = grid.M
    cells = np.arange(W_nodal.shape[CELL_AXIS]) if cells is None else cells
    if out is None:
        out = np.empty(W_nodal.shape[:2] + (grid.n_time,) + W_nodal.shape[2:])
    # np.take keeps the gathered cells C-contiguous
    w = np.take(W_nodal, cells, axis=CELL_AXIS)
    q = initial_guess(system, w, np.take(dxW, cells, axis=CELL_AXIS), grid)
    residuals = []
    for _ in range(M):
        if cells.size == 0:
            break
        stack = populate_stacks(system, q, grid)
        C = matrix_c(stack, M, grid)
        q_new, cell_res = newton_sweep(stack, C, w, grid, cells)
        residuals.append(float(cell_res.max()))
        # NaN compares false, so a NaN residual keeps its cell updating
        updating = ~(cell_res <= cfg.residual_tol)
        # a cell that meets the tolerance leaves with its incoming iterate
        out[..., cells[~updating]] = q[..., ~updating]
        keep = updating.nonzero()[0]
        cells = cells[keep]
        q = np.take(q_new, keep, axis=CELL_AXIS)
        w = np.take(w, keep, axis=CELL_AXIS)
    out[..., cells] = q
    return out, residuals, int(cells.size)
