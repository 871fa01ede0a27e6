"""Recursive Cauchy-Kowalewskaya machinery for time derivatives.

Treating the flux Jacobian A and the source Jacobian B as space-time fields
(rather than state-dependent matrices) closes the Cauchy-Kowalewskaya
procedure into a recursion over two families of m-by-m matrices:

* ``matrix_d(l, k)``  -- coefficients of the expansion of the l-1-th spatial
  derivative of the time derivative in terms of pure spatial derivatives,
  built from binomial factors times spatial derivatives of A and B;
* ``matrix_c(k, l)``  -- coefficients of the k-th time derivative,
  ``dtQ[k] = sum_l C(k,l) dx^l Q + d_t^(k-2)(B dtQ)``, generated level by
  level from ``matrix_d`` and the time gradient of the previous level.

The time derivatives themselves follow the recursion
``dtQ[k] = M_k + B dtQ[k-1]`` with ``M_k`` assembled by :func:`m_vector` and
the base case ``dtQ[1] = -A dxQ + S``.  :func:`taylor_terms` evaluates it;
it is the only form of the functional.

All data is plain per-order dicts of arrays: a :class:`NodeDerivativeStack`
family maps derivative order (from 0, the field itself) to an array, C is a
dict keyed ``(k, l)`` and :func:`taylor_terms` returns the time derivatives
keyed by order.  Arrays are component-first (see :mod:`aderfv.nodes`): a
vector is (m, ...) and a matrix (m, m, ...), and the functions broadcast
over the trailing node axes, so a "node" may equally be a single state or a
whole grid of space-time nodes times cells;
:func:`matrix_c` alone needs the predictor's (m, m, n_S, n_T, cells) layout,
since it differentiates across the time nodes on ``nodes.TIME_AXIS``.

All m x m algebra of the solver goes through the batched helpers
``_matvec``, ``_matmul``, ``_solve`` and ``_det``.  ``_matvec`` sums the m
products of contiguous component slabs, ``mat[:, k] * vec[k]``, over all
nodes at once (at m = 1, scalar laws, the sum is its one product); its
temporaries are only vector-sized, so it keeps that loop.  ``_matmul`` is
one ``np.einsum`` over k, which adds the same m products in the same order
(its sum starts from +0, so an exact zero may lose its sign) but writes
straight into its output, where a slab sum would make a matrix-sized
temporary per product.  At m = 1 there is no sum to fuse, and einsum's
per-call setup would slow the scalar laws, so ``_matmul`` is the
elementwise product there.  ``_solve`` and ``_det`` divide and take the
entry at m = 1, and call ``np.linalg`` on the matrix axes moved last
otherwise.
"""
from __future__ import annotations

import math

import numpy as np

from .nodes import TIME_AXIS, NodeGrid, time_derivative


def binom(n: int, k: int) -> int:
    """Binomial coefficient with the convention C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError("binom requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Batched m x m matrix (m, m, ...) times m-vector (m, ...)."""
    out = mat[:, 0] * vec[0]
    for k in range(1, mat.shape[0]):
        out += mat[:, k] * vec[k]
    return out


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched m x m matrix product of (m, m, ...) arrays."""
    if a.shape[0] == 1:
        return a * b
    return np.einsum("ik...,kj...->ij...", a, b)


def _is_zero(a: np.ndarray) -> bool:
    """Whether every entry of a is 0, reading a broadcast (stride-0) axis
    once: a constant Jacobian given as a view is checked in O(m**2)."""
    a = np.asarray(a)
    return not a[tuple(0 if stride == 0 and n else slice(None)
                       for stride, n in zip(a.strides, a.shape))].any()


def _solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched solve of mat x = rhs for m-vectors x, (m, m, ...) and (m, ...).

    Raises ``np.linalg.LinAlgError`` when a system is exactly singular, as
    LAPACK does (a zero pivot).
    """
    if mat.shape[0] == 1:
        if not mat.all():
            raise np.linalg.LinAlgError("Singular matrix")
        return rhs / mat[0]
    x = np.linalg.solve(np.moveaxis(mat, (0, 1), (-2, -1)),
                        np.moveaxis(rhs, 0, -1)[..., None])
    return np.moveaxis(x[..., 0], -1, 0)


def _det(mat: np.ndarray) -> np.ndarray:
    """Batched determinant of (m, m, ...) matrices; at m = 1 the entry."""
    if mat.shape[0] == 1:
        return mat[0, 0]
    return np.linalg.det(np.moveaxis(mat, (0, 1), (-2, -1)))


class NodeDerivativeStack:
    """Per-node workspace of states, Jacobians and their derivative stacks.

    Every derivative family is a dict keyed by order and starts at order 0:
    ``dxQ`` holds Q and its spatial derivatives up to order M, ``dxA`` A up
    to M-1, ``dxB`` and ``dtB`` B and its spatial and time derivatives up to
    M-2 (only order 0 when B vanishes).  All arrays are physically scaled.
    ``Q``, ``A`` and ``B`` are read-only names for the order-0 entries, and
    ``b_is_zero`` is fixed when the stack is built.
    """

    def __init__(self, Q: np.ndarray, A: np.ndarray, B: np.ndarray,
                 S: np.ndarray):
        self.dxQ = {0: Q}
        self.dxA = {0: A}
        self.dxB = {0: B}
        self.dtB = {0: B}
        self.S = S
        self.b_is_zero = _is_zero(B)

    @property
    def Q(self) -> np.ndarray:
        return self.dxQ[0]

    @property
    def A(self) -> np.ndarray:
        return self.dxA[0]

    @property
    def B(self) -> np.ndarray:
        return self.dxB[0]


def matrix_d(l: int, k: int, stack: NodeDerivativeStack) -> np.ndarray:
    """Matrix D(l, k) = C(l-2, l-1-k) Bx^(l-1-k) - C(l-1, l-k) Ax^(l-k).

    The caller passes l >= 2 and 1 <= k <= l.  Vanishing binomial factors
    suppress the corresponding term entirely, so negative derivative orders
    are never touched (D(2,2) = -A, D(2,1) = B - Ax).
    """
    cb = 0 if stack.b_is_zero else binom(l - 2, l - 1 - k)
    ca = binom(l - 1, l - k)     # nonzero for 1 <= k <= l
    if cb:
        return cb * stack.dxB[l - 1 - k] - ca * stack.dxA[l - k]
    return -ca * stack.dxA[l - k]


def matrix_c(stack: NodeDerivativeStack, M: int, grid: NodeGrid) -> dict:
    """Generate C(k, l) for all nodes, level by level: a dict keyed (k, l)
    for 1 <= l <= k <= M.

    ``C(1,1) = -A``; the diagonal advances as ``C(k,k) = C(k-1,k-1) D(k,k)``
    and off-diagonal entries add the time gradient of the previous level,
    obtained by differentiating the interpolant of nodal C values across the
    time nodes (``TIME_AXIS`` of the (m, m, n_S, n_T, cells) arrays) and
    scaling by dt**-1.  The loop reads every D(p, q), 2 <= p <= M,
    1 <= q <= p, so they are all built first.  Every D(p, p) is -A, since
    its B factor binom(p-2, -1) vanishes, so they and C(1,1) are one array.
    """
    minus_a = -stack.A
    D = {(p, q): minus_a if q == p else matrix_d(p, q, stack)
         for p in range(2, M + 1) for q in range(1, p + 1)}
    C = {(1, 1): minus_a}
    for k in range(2, M + 1):
        C[k, k] = _matmul(C[k - 1, k - 1], D[k, k])
        for l in range(1, k):
            acc = time_derivative(C[k - 1, l], 1, grid, axis=TIME_AXIS)
            for m in range(max(l - 1, 1), k):
                acc += _matmul(C[k - 1, m], D[m + 1, l])
            C[k, l] = acc
    return C


def m_vector(k: int, stack: NodeDerivativeStack, C: dict,
             dtq: dict) -> np.ndarray:
    """M_k = sum_l C(k,l) dx^l Q + sum_{l<=k-2} binom(k-2,l-1) Bt^(k-1-l) dtQ[l].

    For k <= 2 the time-derivative sum is empty; for k >= 3 it reads the
    entries of ``dtq`` (time derivatives keyed by order) already produced by
    the recursion.
    """
    out = _matvec(C[k, 1], stack.dxQ[1])
    for l in range(2, k + 1):
        out = out + _matvec(C[k, l], stack.dxQ[l])
    if not stack.b_is_zero:
        for l in range(1, k - 1):
            out = out + binom(k - 2, l - 1) * _matvec(stack.dtB[k - 1 - l],
                                                      dtq[l])
    return out


def taylor_terms(stack: NodeDerivativeStack, C: dict, M: int) -> dict:
    """Time derivatives dtQ[k], keyed by order 1..M.

    ``dtQ[1] = M_1 + S`` (the source is ``stack.S``) and
    ``dtQ[k] = M_k + B dtQ[k-1]``, computed in increasing k so that M_k can
    read the lower-order time derivatives.
    """
    dtq: dict = {}
    for k in range(1, M + 1):
        mk = m_vector(k, stack, C, dtq)
        if k == 1:
            dtq[1] = mk + stack.S
        elif stack.b_is_zero:
            dtq[k] = mk
        else:
            dtq[k] = mk + _matvec(stack.B, dtq[k - 1])
    return dtq

