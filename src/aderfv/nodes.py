"""Space-time node grid and interpolation-based derivative operators.

The predictor works on a per-cell grid of ``n_S = M+1`` equidistant space
nodes on the reference cell [-1/2, 1/2] and ``n_T = M`` Gauss-Legendre time
nodes on [0, 1] (a single midpoint node for M = 1).  Spatial and temporal
derivatives of nodal data are obtained by differentiating the unique
interpolating polynomial through the nodes; the stencil weights are generated
once per order by solving the interpolation (Vandermonde) conditions.

Nodal arrays are component-first: the components (and matrix columns) come
first, then the space node axis, then the time node axis, then the cells,
so each component is one contiguous slab of nodes and cells.  A
reconstruction at the space nodes is (m, n_S, N), a predictor state
(m, n_S, n_T, N) and a Jacobian (m, m, n_S, n_T, N); ``SPACE_AXIS``,
``TIME_AXIS`` and ``CELL_AXIS`` name the node and cell axes counted from the
end, so one set of names serves states and Jacobians.  A derivative
contracts its node axis with the stencil matrix as matrix products over all
cells at once: one product per component across the space nodes, one per
component and space node across the time nodes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SUPPORTED_M = (1, 2, 3, 4)

# Axis positions, from the end, of the space-time arrays (m[, m], n_S, n_T, N);
# the space-node arrays (m, n_S, N) drop the time axis and keep their cells
# on CELL_AXIS.
SPACE_AXIS = -3
TIME_AXIS = -2
CELL_AXIS = -1


def gauss_legendre(n: int, lo: float = 0.0, hi: float = 1.0):
    """Gauss-Legendre nodes and weights on [lo, hi], nodes ascending."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def space_nodes(M: int) -> np.ndarray:
    """Equidistant nodes -1/2 + (m-1)/M, m = 1..M+1, on the reference cell."""
    if M not in SUPPORTED_M:
        raise ValueError(f"unsupported polynomial degree M={M}; supported: {SUPPORTED_M}")
    return -0.5 + np.arange(M + 1) / M


def _vandermonde(nodes: np.ndarray) -> np.ndarray:
    return nodes[:, None] ** np.arange(len(nodes))


def monomial_derivatives(x: np.ndarray, degree: int, l: int) -> np.ndarray:
    """l-th derivatives of the monomials x^k, k = 0..degree, at the points
    x: shape (len(x), degree+1), with zero columns for k < l."""
    basis = np.zeros((len(x), degree + 1))
    for k in range(l, degree + 1):
        basis[:, k] = math.perm(k, l) * x ** (k - l)
    return basis


def _derivative_matrices(nodes: np.ndarray) -> list[np.ndarray]:
    """Matrices D_l mapping nodal values to the l-th derivative at the nodes.

    D_0 is the identity; the interpolant has degree len(nodes)-1, so the list
    holds orders l = 0 .. len(nodes)-1 in reference coordinates.
    """
    n = len(nodes)
    vinv = np.linalg.inv(_vandermonde(nodes))
    return [monomial_derivatives(nodes, n - 1, l) @ vinv for l in range(n)]


@lru_cache(maxsize=None)
def _space_operators(M: int):
    xi = space_nodes(M)
    return xi, _derivative_matrices(xi)


@lru_cache(maxsize=None)
def _time_operators(M: int):
    n_t = max(M, 1)
    tau, wts = gauss_legendre(n_t, 0.0, 1.0)
    return tau, wts, _derivative_matrices(tau)


@dataclass(frozen=True)
class NodeGrid:
    """Per-cell space-time node layout plus physical scales.

    ``space_diff[l]`` / ``time_diff[l]`` differentiate nodal samples l times
    in reference coordinates; physical derivatives carry the extra factors
    dx**-l / dt**-l (see :func:`space_derivative`, :func:`time_derivative`).
    """

    M: int
    xi: np.ndarray
    tau: np.ndarray
    tau_weights: np.ndarray
    dx: float
    dt: float
    space_diff: tuple
    time_diff: tuple

    @property
    def n_time(self) -> int:
        return len(self.tau)


def build_grid(M: int, dx: float, dt: float) -> NodeGrid:
    """Assemble the node grid and derivative operators for degree M."""
    if M not in SUPPORTED_M:
        raise ValueError(f"unsupported polynomial degree M={M}; supported: {SUPPORTED_M}")
    if dx <= 0.0 or dt <= 0.0:
        raise ValueError("dx and dt must be positive")
    xi, sdiff = _space_operators(M)
    tau, wts, tdiff = _time_operators(M)
    return NodeGrid(
        M=M,
        xi=xi,
        tau=tau,
        tau_weights=wts,
        dx=dx,
        dt=dt,
        space_diff=tuple(sdiff),
        time_diff=tuple(tdiff),
    )


def _apply(mat: np.ndarray, values: np.ndarray, axis: int) -> np.ndarray:
    # Contract the node axis with the stencil matrix: mat times the
    # (nodes, rest) slab of every leading index.  The node axes follow the
    # components, so the space axis is one product over all cells per
    # component and the time axis one per component and space node.  A
    # one-column slab (one cell on the time axis) would go to a
    # matrix-vector kernel that rounds differently from the matrix product;
    # doubling the column keeps a lone cell's values bitwise those it gets
    # in any batch, so results do not depend on the batching (thread
    # blocks, cells still updating).
    shape = values.shape
    axis %= len(shape)
    lead, rest = math.prod(shape[:axis]), math.prod(shape[axis + 1:])
    data = values.reshape(lead, shape[axis], rest)
    if rest == 1:
        data = np.concatenate((data, data), axis=2)
    return (mat @ data)[..., :rest].reshape(shape)


def space_derivative(values: np.ndarray, l: int, grid: NodeGrid,
                     axis: int = 0) -> np.ndarray:
    """l-th spatial derivative of nodal samples, evaluated at every node.

    ``values`` carries the n_S node samples along ``axis``; the physical
    factor dx**-l is applied.  Orders beyond the interpolation degree M are
    exactly zero.
    """
    if l < 0:
        raise ValueError("derivative order must be non-negative")
    if l > grid.M:
        return np.zeros_like(values)
    out = _apply(grid.space_diff[l], values, axis)
    if l > 0:
        out /= grid.dx**l
    return out


def time_derivative(values: np.ndarray, l: int, grid: NodeGrid,
                    axis: int = 0) -> np.ndarray:
    """l-th temporal derivative of nodal samples at every time node.

    The physical factor dt**-l is applied.  Requires M >= 2 for l >= 1 (a
    single time node carries no derivative information); orders beyond the
    interpolation degree n_T - 1 are zero.
    """
    if l < 0:
        raise ValueError("derivative order must be non-negative")
    if l == 0:
        return np.asarray(values)
    if grid.n_time < 2:
        raise ValueError("time derivatives need at least two time nodes (M >= 2)")
    if l >= grid.n_time:
        return np.zeros_like(values)
    out = _apply(grid.time_diff[l], values, axis)
    out /= grid.dt**l
    return out


@lru_cache(maxsize=None)
def newton_cotes_weights(order: int) -> np.ndarray:
    """Closed Newton-Cotes weights over the equidistant space nodes.

    Generated as exact moments of the nodal interpolant on [-1/2, 1/2]; the
    weights sum to one and integrate the interpolation space exactly
    (order 2 -> (1,1)/2, 3 -> (1,4,1)/6, 4 -> (1,3,3,1)/8,
    5 -> (7,32,12,32,7)/90).
    """
    M = order - 1
    xi = space_nodes(M)
    k = np.arange(M + 1)
    moments = (0.5 ** (k + 1) - (-0.5) ** (k + 1)) / (k + 1)
    w = moments @ np.linalg.inv(_vandermonde(xi))
    w.setflags(write=False)
    return w
