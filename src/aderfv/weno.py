"""WENO reconstruction of per-cell polynomials from cell averages.

Each cell gets a degree-M polynomial W_i(xi) on the reference cell
[-1/2, 1/2], built as a nonlinearly weighted combination of candidate
polynomials that match the cell averages over M+1-cell stencils: two
one-sided stencils for M = 1, and left-, right-biased plus a central stencil
for M >= 2.  The weights follow the standard finite-volume WENO recipe
``w_s ~ lambda_s / (sigma_s + eps)^r`` with the oscillation indicator
``sigma_s`` summing integrals of squared derivatives of the candidate.
Reconstruction is component-wise and conservative by construction.

``reconstruct_padded`` works coefficient-major: the candidates, indicators
and weights of a stencil are (k, N*m) arrays with the cells and components
flattened innermost, so each candidate set is one matrix product and each
indicator ``sum_k c_k (osc c)_k`` one more; the result is transposed once to
the component-first (m, M+1, N) of :mod:`aderfv.nodes`, which
``ReconstructionSet.evaluate`` turns into node values (m, G, N) with one
product per component.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .nodes import SUPPORTED_M, monomial_derivatives

BOUNDARY_RULES = ("periodic", "transmissive")


def is_int(value) -> bool:
    """Whether value is an integer (numpy's too); a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class WenoConfig:
    """Nonlinear weight parameters (literature defaults).

    ``eps`` regularizes the oscillation indicators; a sizeable value keeps a
    candidate whose indicator happens to vanish (a one-sided slope crossing
    zero in smooth data) from overriding the preferred central stencil.
    """

    lambda_central: float = 1.0e5
    lambda_sided: float = 1.0
    eps: float = 1.0e-6
    power: int = 8


@dataclass
class CellField:
    """Uniform 1-D mesh with per-cell conserved averages at one time level."""

    n_cells: int
    dx: float
    x_left: float
    averages: np.ndarray
    boundary: str = "periodic"

    def __post_init__(self):
        self.averages = np.atleast_2d(np.asarray(self.averages, dtype=float))
        if not is_int(self.n_cells) or self.n_cells < 3:
            raise ValueError(f"need an integer >= 3 cells: {self.n_cells!r}")
        if self.dx <= 0.0:
            raise ValueError("dx must be positive")
        if self.boundary not in BOUNDARY_RULES:
            raise ValueError(f"boundary must be one of {BOUNDARY_RULES}")
        if self.averages.shape[0] != self.n_cells:
            raise ValueError("averages must have one row per cell")

    def cell_centers(self) -> np.ndarray:
        return self.x_left + (np.arange(self.n_cells) + 0.5) * self.dx

    def extended(self, n_ghost: int) -> np.ndarray:
        """Averages padded with ghost cells per the boundary rule."""
        idx = np.arange(-n_ghost, self.n_cells + n_ghost)
        if self.boundary == "periodic":
            return self.averages[idx % self.n_cells]
        return self.averages[np.clip(idx, 0, self.n_cells - 1)]


def _cell_moment_row(d: int, degree: int) -> np.ndarray:
    k = np.arange(degree + 1)
    return ((d + 0.5) ** (k + 1) - (d - 0.5) ** (k + 1)) / (k + 1)


def _oscillation_matrix(degree: int) -> np.ndarray:
    def even_moment(a):
        return 0.0 if a % 2 else 0.5**a / (a + 1)

    n = degree + 1
    osc = np.zeros((n, n))
    for p in range(n):
        for q in range(n):
            osc[p, q] = sum(
                math.perm(p, l) * math.perm(q, l) * even_moment(p + q - 2 * l)
                for l in range(1, min(p, q) + 1)
            )
    return osc


@lru_cache(maxsize=None)
def _stencil_tables(M: int):
    """Stencil layouts for degree M: (window start, coefficient map, weight).

    Each stencil is a window of cells around cell i plus a matrix mapping the
    window averages to polynomial coefficients.  One-sided stencils of M+1
    cells match all their cell averages; the central candidate is preferred
    via ``lambda_central``.  For M = 1 the central candidate keeps the cell
    mean and takes the central slope (conservative by construction).
    """
    maps = []
    if M == 1:
        for start in (-1, 0):
            mat = np.array([_cell_moment_row(start + j, M) for j in range(2)])
            maps.append((start, np.linalg.inv(mat), False))
        maps.append((-1, np.array([[0.0, 1.0, 0.0], [-0.5, 0.0, 0.5]]), True))
    else:
        for start, is_central in ((-M, False), (0, False), (-((M + 1) // 2), True)):
            mat = np.array([_cell_moment_row(start + j, M) for j in range(M + 1)])
            maps.append((start, np.linalg.inv(mat), is_central))
    return maps, _oscillation_matrix(M)


def reconstruct_padded(avg_padded: np.ndarray, M: int,
                       config: WenoConfig | None = None) -> np.ndarray:
    """WENO coefficients for the cells of a padded average array.

    ``avg_padded`` has shape (N + 2M, m), N >= 1 and M in ``SUPPORTED_M``;
    the M leading/trailing rows feed the widest stencils of the N cells of
    interest.  Returns coefficients with shape (m, M+1, N).
    """
    cfg = config or WenoConfig()
    maps, osc = _stencil_tables(M)
    n_out = avg_padded.shape[0] - 2 * M

    # The 2M+1 shifted windows, flattened to (2M+1, N*m): a stencil's window
    # averages are then a contiguous slice of rows, and each of its products
    # is one matrix product over all cells and components at once.
    windows = np.stack([avg_padded[j: j + n_out] for j in range(2 * M + 1)])
    windows = windows.reshape(2 * M + 1, -1)
    num = 0.0
    den = 0.0
    for start, coeff_map, is_central in maps:
        width = coeff_map.shape[1]
        cand = coeff_map @ windows[M + start: M + start + width]
        sigma = np.sum(cand * (osc @ cand), axis=0)
        lam = cfg.lambda_central if is_central else cfg.lambda_sided
        w = lam / (sigma + cfg.eps) ** cfg.power
        num = num + w * cand
        den = den + w
    coeffs = (num / den).reshape(M + 1, n_out, -1)
    return np.ascontiguousarray(coeffs.transpose(2, 0, 1))


class ReconstructionSet:
    """Per-cell reconstruction polynomials sum_k c_k xi^k, xi in [-1/2, 1/2]."""

    def __init__(self, M: int, coeffs: np.ndarray):
        self.M = M
        self.coeffs = coeffs  # (m, M+1, N)

    def evaluate(self, xi, l: int = 0) -> np.ndarray:
        """Values (or l-th xi-derivatives) at reference point(s) xi.

        A 1-D array of G points gives the component-first (m, G, N), the
        layout of the predictor's node arrays; scalar xi gives (m, N).
        Derivatives are in reference coordinates (physical ones carry the
        caller-applied factor dx**-l); the caller passes l >= 0, and orders
        beyond the degree are exactly zero.
        """
        basis = monomial_derivatives(np.atleast_1d(np.asarray(xi, dtype=float)),
                                     self.M, l)
        out = basis @ self.coeffs       # one product per component
        return out[:, 0] if np.ndim(xi) == 0 else out


def reconstruct(field: CellField, M: int,
                config: WenoConfig | None = None) -> ReconstructionSet:
    """Per-cell WENO reconstruction of a field (one polynomial per cell)."""
    if not is_int(M) or M not in SUPPORTED_M:
        raise ValueError(f"unsupported polynomial degree M={M!r}")
    padded = field.extended(M)
    return ReconstructionSet(M, reconstruct_padded(padded, M, config))
