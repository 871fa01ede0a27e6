"""Hyperbolic balance-law systems dQ/dt + dF(Q)/dx = S(Q) and exact solutions.

Four concrete systems are provided:

* ``linear_system``      -- 2x2 constant-coefficient wave system with a
  linear relaxation source; trigonometric exact solution.
* ``nonlinear_system``   -- 2x2 coupled system that decouples into a pair of
  Burgers equations (one with a quadratic source) under the linear change of
  variables w1 = (u+v)/3, w2 = (2u-v)/3; exact solution by characteristic
  foot-point root-finding.
* ``leveque_yee_system`` -- scalar advection with the stiff cubic source
  beta*q*(q-1)*(q-1/2); the step initial data travels at unit speed.
* ``euler_system``       -- 1-D compressible Euler with ideal-gas closure;
  smooth advected-density exact solution.

The state callables of a :class:`HyperbolicSystem` are component-first:
a state is an array (m, ...) whose trailing axes are any batch of nodes, so
each component is one contiguous slab.  ``flux`` and ``source`` return
(m, ...), ``flux_jacobian`` and ``source_jacobian`` (m, m, ...) with row
index first, ``eigenvalues`` (m, ...) and ``admissible`` a mask (...).
Cell averages (``CellField.averages``), initial data and exact solutions
stay point-first, (..., m): ``exact_solution(x, t)`` returns one state per
point of ``x`` along the last axis.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class RootFindError(RuntimeError):
    """Root-finding failed to converge within the iteration budget."""


class InadmissibleStateError(ValueError):
    """A state violates physical admissibility (e.g. rho <= 0 or p <= 0)."""


@dataclass(frozen=True)
class HyperbolicSystem:
    """Balance law defined by its flux, source and their Jacobians.

    ``flux``, ``source``, ``flux_jacobian``, ``source_jacobian``,
    ``eigenvalues`` and ``admissible`` take component-first states (m, ...)
    and return (m, ...) arrays, (m, m, ...) Jacobians with entry [i, j] the
    derivative of component i by component j, and (...) masks;
    ``exact_solution(x, t)`` returns (..., m), one state per point.
    """

    name: str
    m: int
    flux: Callable[[np.ndarray], np.ndarray]
    source: Callable[[np.ndarray], np.ndarray]
    flux_jacobian: Callable[[np.ndarray], np.ndarray]
    source_jacobian: Callable[[np.ndarray], np.ndarray]
    eigenvalues: Callable[[np.ndarray], np.ndarray]
    exact_solution: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    admissible: Optional[Callable[[np.ndarray], np.ndarray]] = None
    params: dict = field(default_factory=dict)


def _bcast(values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Constant (m[, m]) values at every node of the state batch q."""
    nodes = q.shape[1:]
    return np.broadcast_to(values.reshape(values.shape + (1,) * len(nodes)),
                           values.shape + nodes)


# ----------------------------------------------------------------------------
# linear 2x2 system
# ----------------------------------------------------------------------------

def linear_system(lam: float = 1.0, beta: float = -1.0) -> HyperbolicSystem:
    """Constant off-diagonal wave system with source beta*Q.

    Initial data (sin 2 pi x, cos 2 pi x) evolves as exp(beta*t)/2 times the
    sum/difference of the left- and right-travelling trigonometric waves.
    """
    a_mat = np.array([[0.0, lam], [lam, 0.0]])
    b_mat = beta * np.eye(2)
    eigs = np.array([-abs(lam), abs(lam)])

    def flux(q):
        return np.tensordot(a_mat, q, axes=1)

    def source(q):
        return beta * q

    def exact(x, t):
        x = np.asarray(x, dtype=float)
        arg_m = 2.0 * np.pi * (x - lam * t)
        arg_p = 2.0 * np.pi * (x + lam * t)
        phi = np.sin(arg_m) + np.cos(arg_m)
        psi = np.sin(arg_p) - np.cos(arg_p)
        return 0.5 * np.exp(beta * t) * np.stack([phi + psi, phi - psi], axis=-1)

    return HyperbolicSystem(
        name="linear",
        m=2,
        flux=flux,
        source=source,
        flux_jacobian=lambda q: _bcast(a_mat, q),
        source_jacobian=lambda q: _bcast(b_mat, q),
        eigenvalues=lambda q: _bcast(eigs, q),
        exact_solution=exact,
        params={"lambda": lam, "beta": beta},
    )


# ----------------------------------------------------------------------------
# nonlinear 2x2 system (coupled Burgers pair)
# ----------------------------------------------------------------------------

def _w1_initial(y):
    return (np.sin(2 * np.pi * y) + np.cos(2 * np.pi * y)) / 3.0


def _w1_initial_prime(y):
    return 2 * np.pi * (np.cos(2 * np.pi * y) - np.sin(2 * np.pi * y)) / 3.0


def _w2_initial(y):
    return (2 * np.sin(2 * np.pi * y) - np.cos(2 * np.pi * y)) / 3.0


def _w2_initial_prime(y):
    return 2 * np.pi * (2 * np.cos(2 * np.pi * y) + np.sin(2 * np.pi * y)) / 3.0


def nonlinear_system(beta: float = -1.0) -> HyperbolicSystem:
    """Coupled 2x2 system whose characteristic fields obey Burgers dynamics."""
    if beta > 0.0:
        raise ValueError("nonlinear_system requires beta <= 0")

    def flux(q):
        u, v = q
        f1 = (2.5 * u**2 + v**2 - u * v) / 9.0
        f2 = (4.0 * u * v - u**2 + 0.5 * v**2) / 9.0
        return np.stack([f1, f2])

    def source(q):
        w2 = (2.0 * q[0] - q[1]) / 3.0
        s = beta * w2**2
        return np.stack([s, -s])

    def flux_jacobian(q):
        u, v = q
        return np.array([[5.0 * u - v, 2.0 * v - u],
                         [4.0 * v - 2.0 * u, 4.0 * u + v]]) / 9.0

    def source_jacobian(q):
        w2 = (2.0 * q[0] - q[1]) / 3.0
        g = beta * w2 / 3.0
        return np.array([[4.0 * g, -2.0 * g], [-4.0 * g, 2.0 * g]])

    def eigenvalues(q):
        w1 = (q[0] + q[1]) / 3.0
        w2 = (2.0 * q[0] - q[1]) / 3.0
        return np.stack([w1, w2])

    return HyperbolicSystem(
        name="nonlinear",
        m=2,
        flux=flux,
        source=source,
        flux_jacobian=flux_jacobian,
        source_jacobian=source_jacobian,
        eigenvalues=eigenvalues,
        exact_solution=lambda x, t: nonlinear_exact(x, t, beta),
        params={"beta": beta},
    )


def _newton_bisect(f, df, lo, hi, label: str):
    """Vectorized safeguarded Newton iteration on a sign-changing bracket,
    run until |f| <= 1e-12 at every point, for at most 100 iterations."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    flo, fhi = f(lo), f(hi)
    if np.any(flo * fhi > 0.0):
        raise RootFindError(f"{label}: initial bracket does not enclose a root")
    swap = flo > 0.0
    neg_end = np.where(swap, hi, lo)
    pos_end = np.where(swap, lo, hi)
    x = 0.5 * (neg_end + pos_end)
    done = np.zeros(np.shape(x), dtype=bool)
    for _ in range(100):
        fx = f(x)
        done = done | (np.abs(fx) <= 1e-12)
        if done.all():
            return x
        is_neg = fx <= 0.0
        neg_end = np.where(done | ~is_neg, neg_end, x)
        pos_end = np.where(done | is_neg, pos_end, x)
        d = df(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = x - fx / d
        inside = np.isfinite(cand) & ((cand - neg_end) * (cand - pos_end) < 0.0)
        x = np.where(done, x, np.where(inside, cand, 0.5 * (neg_end + pos_end)))
    raise RootFindError(
        f"{label}: no convergence after 100 iterations "
        f"(max residual {np.max(np.abs(f(x))):.3e})")


def nonlinear_exact(x, t: float, beta: float) -> np.ndarray:
    """Exact solution of the nonlinear system in the smooth regime.

    w1 solves the Burgers foot-point equation w = w1_0(x - w t); w2 follows
    the characteristic of the sourced Burgers equation, whose foot point x0
    satisfies x = x0 - log(1 - beta*w2_0(x0)*t)/beta and carries
    w2 = w2_0(x0) / (1 - beta*w2_0(x0)*t).  For beta -> 0 this reduces to the
    plain foot-point equation.
    """
    x = np.asarray(x, dtype=float)
    if t == 0.0:
        w1, w2 = _w1_initial(x), _w2_initial(x)
        u = w1 + w2
        return np.stack([u, 2.0 * w1 - w2], axis=-1)

    amp1 = np.sqrt(2.0) / 3.0
    w1 = _newton_bisect(
        lambda w: w - _w1_initial(x - w * t),
        lambda w: 1.0 + t * _w1_initial_prime(x - w * t),
        np.full(x.shape, -amp1), np.full(x.shape, amp1), label="w1 foot point")

    if beta == 0.0:
        def shift(x0):
            return t * _w2_initial(x0)

        def dshift(x0):
            return t * _w2_initial_prime(x0)
    else:
        def shift(x0):
            return -np.log1p(-beta * t * _w2_initial(x0)) / beta

        def dshift(x0):
            return t * _w2_initial_prime(x0) / (1.0 - beta * t * _w2_initial(x0))

    def g(x0):
        return x0 + shift(x0) - x

    # outside the smooth regime the log argument can go negative; the NaNs
    # simply fail the bracket test and surface as non-convergence
    with np.errstate(invalid="ignore", divide="ignore"):
        radius = 0.25
        for _ in range(60):
            lo, hi = x - radius, x + radius
            if np.all(g(lo) * g(hi) <= 0.0):
                break
            radius *= 2.0
        else:
            raise RootFindError("w2 foot point: could not bracket the root")
        x0 = _newton_bisect(g, lambda y: 1.0 + dshift(y), lo, hi,
                            label="w2 foot point")
    w2 = _w2_initial(x0) / (1.0 - beta * t * _w2_initial(x0))
    return np.stack([w1 + w2, 2.0 * w1 - w2], axis=-1)


# ----------------------------------------------------------------------------
# LeVeque-Yee scalar test
# ----------------------------------------------------------------------------

def leveque_yee_system(beta: float = -10000.0) -> HyperbolicSystem:
    """Scalar advection with the stiff cubic source beta*q(q-1)(q-1/2).

    q = 0 and q = 1 are stable equilibria, q = 1/2 is unstable; the step
    initial data (1 left of x = 0.3, 0 right of it) is transported at unit
    speed, so the reference solution is the translated step.
    """

    def flux(q):
        return q.copy()

    def source(q):
        return beta * q * (q - 1.0) * (q - 0.5)

    def source_jacobian(q):
        return (beta * (3.0 * q**2 - 3.0 * q + 0.5))[None]

    def exact(x, t):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.3 + t, 1.0, 0.0)[..., None]

    return HyperbolicSystem(
        name="leveque-yee",
        m=1,
        flux=flux,
        source=source,
        flux_jacobian=lambda q: np.ones((1,) + q.shape),
        source_jacobian=source_jacobian,
        eigenvalues=lambda q: np.ones(q.shape),
        exact_solution=exact,
        params={"beta": beta},
    )


# ----------------------------------------------------------------------------
# Euler equations
# ----------------------------------------------------------------------------

def euler_primitive_to_conserved(prim: np.ndarray, gamma: float) -> np.ndarray:
    """(rho, u, p) -> (rho, rho*u, E); rejects rho <= 0 or p <= 0."""
    prim = np.asarray(prim, dtype=float)
    rho, u, p = prim[..., 0], prim[..., 1], prim[..., 2]
    if np.any(rho <= 0.0) or np.any(p <= 0.0):
        raise InadmissibleStateError("primitive state with non-positive density or pressure")
    return np.stack([rho, rho * u, p / (gamma - 1.0) + 0.5 * rho * u**2], axis=-1)


def euler_system(gamma: float = 1.4) -> HyperbolicSystem:
    """1-D compressible Euler equations with ideal-gas pressure closure."""
    if gamma <= 1.0:
        raise ValueError("euler_system requires gamma > 1")
    gm1 = gamma - 1.0

    def _uep(q):
        rho, mom, en = q
        u = mom / rho
        p = gm1 * (en - 0.5 * mom * u)
        return rho, u, p, en

    def flux(q):
        rho, u, p, en = _uep(q)
        return np.stack([rho * u, rho * u**2 + p, u * (en + p)])

    def flux_jacobian(q):
        rho, u, p, en = _uep(q)
        u2 = u * u          # products: u**3 would go through libm pow
        out = np.empty((3,) + q.shape)      # (3, 3, ...), one slab per entry
        out[0, 0] = out[0, 2] = 0.0
        out[0, 1] = 1.0
        out[1, 0] = 0.5 * (gamma - 3.0) * u2
        out[1, 1] = (3.0 - gamma) * u
        out[1, 2] = gm1
        ge = gamma * en / rho
        out[2, 0] = gm1 * (u2 * u) - u * ge
        out[2, 1] = ge - 1.5 * gm1 * u2
        out[2, 2] = gamma * u
        return out

    def eigenvalues(q):
        rho, u, p, _ = _uep(q)
        a = np.sqrt(gamma * p / rho)
        return np.stack([u - a, u, u + a])

    def exact(x, t):
        x = np.asarray(x, dtype=float)
        rho = 1.0 + 0.2 * np.sin(2.0 * np.pi * (x - t))
        prim = np.stack([rho, np.ones_like(rho), 2.0 * np.ones_like(rho)], axis=-1)
        return euler_primitive_to_conserved(prim, gamma)

    def admissible(q):
        rho, u, p, _ = _uep(q)
        return (rho > 0.0) & (p > 0.0)

    return HyperbolicSystem(
        name="euler",
        m=3,
        flux=flux,
        source=lambda q: np.zeros_like(q),
        flux_jacobian=flux_jacobian,
        source_jacobian=lambda q: np.zeros((3,) + q.shape),
        eigenvalues=eigenvalues,
        exact_solution=exact,
        admissible=admissible,
        params={"gamma": gamma},
    )


def shu_osher_initial(x) -> np.ndarray:
    """Shock/sine-wave interaction initial data on [-1, 1]: the primitive
    state (rho, u, p), shape (..., 3).

    The pre-shock density wave has the classical amplitude 0.2; the literal
    amplitude 1 of the originating description places vacuum points at the
    wave troughs and is not runnable.
    """
    x = np.asarray(x, dtype=float)
    left = x < -0.8
    rho = np.where(left, 3.8571, 1.0 + 0.2 * np.sin(5.0 * np.pi * x))
    u = np.where(left, 2.6294, 0.0)
    p = np.where(left, 10.333, 1.0)
    return np.stack([rho, u, p], axis=-1)
