"""Balance-law systems: Jacobians, spectra, exact solutions, conversions."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aderfv.systems import (InadmissibleStateError, RootFindError,
                            euler_primitive_to_conserved, euler_system,
                            leveque_yee_system, linear_system,
                            nonlinear_exact, nonlinear_system,
                            shu_osher_initial)


def fd_jacobian(func, q, h=1e-6):
    """Centered finite-difference Jacobian of a state map at one state."""
    m = len(q)
    out = np.empty((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = h * max(1.0, abs(q[j]))
        out[:, j] = (func(q + e) - func(q - e)) / (2 * e[j])
    return out


def random_states(system_name, n, seed=0):
    """n random admissible states, component-first (m, n)."""
    rng = np.random.default_rng(seed)
    if system_name in ("linear", "nonlinear"):
        return rng.uniform(-1.0, 1.0, size=(2, n))
    if system_name == "leveque-yee":
        return rng.uniform(-0.2, 1.2, size=(1, n))
    rho = rng.uniform(0.5, 4.0, size=n)
    u = rng.uniform(-2.0, 3.0, size=n)
    p = rng.uniform(0.5, 11.0, size=n)
    return euler_primitive_to_conserved(np.stack([rho, u, p], axis=-1), 1.4).T


SYSTEMS = {
    "linear": lambda: linear_system(1.0, -1.0),
    "nonlinear": lambda: nonlinear_system(-1.0),
    "leveque-yee": lambda: leveque_yee_system(-10000.0),
    "euler": lambda: euler_system(1.4),
}


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_analytic_jacobians_match_finite_differences(name):
    system = SYSTEMS[name]()
    states = random_states(name, 100, seed=42)
    a_got = system.flux_jacobian(states)
    b_got = system.source_jacobian(states)
    for i, q in enumerate(states.T):
        a_fd = fd_jacobian(system.flux, q)
        scale = max(1.0, np.abs(a_fd).max())
        assert np.max(np.abs(a_got[..., i] - a_fd)) / scale < 1e-6
        b_fd = fd_jacobian(system.source, q)
        scale_b = max(1.0, np.abs(b_fd).max())
        assert np.max(np.abs(b_got[..., i] - b_fd)) / scale_b < 1e-6


@pytest.mark.parametrize("name", list(SYSTEMS))
@pytest.mark.parametrize("nodes", [(), (7,), (3, 2, 7)])
def test_state_callables_are_component_first(name, nodes):
    """On states (m, *nodes) every callable returns its component-first
    shape, and the Jacobians match central differences of flux and source
    taken on whole component slabs."""
    system = SYSTEMS[name]()
    m = system.m
    q = random_states(name, math.prod(nodes), seed=3).reshape((m,) + nodes)
    assert system.flux(q).shape == (m,) + nodes
    assert system.source(q).shape == (m,) + nodes
    assert system.eigenvalues(q).shape == (m,) + nodes
    if system.admissible is not None:
        assert system.admissible(q).shape == nodes
    for func, jacobian in ((system.flux, system.flux_jacobian),
                           (system.source, system.source_jacobian)):
        got = jacobian(q)
        assert got.shape == (m, m) + nodes
        for j in range(m):
            step = np.zeros_like(q)
            step[j] = 1e-6 * np.maximum(1.0, np.abs(q[j]))
            column = (func(q + step) - func(q - step)) / (2 * step[j])
            scale = max(1.0, np.abs(column).max())
            assert np.max(np.abs(got[:, j] - column)) / scale < 1e-6


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_eigenvalues_match_spectrum_of_flux_jacobian(name):
    system = SYSTEMS[name]()
    states = random_states(name, 25, seed=7)
    lams = system.eigenvalues(states)
    mats = system.flux_jacobian(states)
    for i in range(states.shape[1]):
        want = np.sort(np.linalg.eigvals(mats[..., i]).real)
        got = np.sort(lams[:, i])
        assert np.max(np.abs(got - want)) < 1e-8


def test_linear_eigenvalues_are_plus_minus_lambda():
    system = linear_system(2.5, -1.0)
    lams = system.eigenvalues(np.array([0.3, -0.4]))
    assert np.allclose(np.sort(lams), [-2.5, 2.5])


def test_linear_exact_initial_condition():
    system = linear_system(1.0, -1.0)
    assert np.allclose(system.exact_solution(0.0, 0.0), [0.0, 1.0])
    x = np.linspace(0.0, 1.0, 101)
    got = system.exact_solution(x, 0.0)
    want = np.stack([np.sin(2 * np.pi * x), np.cos(2 * np.pi * x)], axis=-1)
    assert np.max(np.abs(got - want)) < 1e-14


def test_linear_exact_closed_form_value():
    lam, beta = 1.0, -1.0
    x, t = 0.25, 1.0
    phi = math.sin(2 * math.pi * (x - lam * t)) + math.cos(2 * math.pi * (x - lam * t))
    psi = math.sin(2 * math.pi * (x + lam * t)) - math.cos(2 * math.pi * (x + lam * t))
    want = 0.5 * math.exp(beta * t) * np.array([phi + psi, phi - psi])
    got = linear_system(lam, beta).exact_solution(x, t)
    assert np.max(np.abs(got - want)) < 1e-14


def test_linear_exact_satisfies_pde_residual():
    system = linear_system(1.0, -1.0)
    _assert_pde_residual_second_order(system)


def _assert_pde_residual_second_order(system, points=None):
    """Centered FD residual dtQ + dxF - S shrinks ~4x when h halves."""
    rng = np.random.default_rng(5)
    pts = points if points is not None else \
        np.stack([rng.uniform(0.1, 0.9, 12), rng.uniform(0.05, 0.5, 12)], axis=-1)

    def residual(h):
        worst = 0.0
        for x, t in pts:
            dt_q = (system.exact_solution(x, t + h) -
                    system.exact_solution(x, t - h)) / (2 * h)
            dx_f = (system.flux(system.exact_solution(x + h, t)) -
                    system.flux(system.exact_solution(x - h, t))) / (2 * h)
            s = system.source(system.exact_solution(x, t))
            worst = max(worst, np.max(np.abs(dt_q + dx_f - s)))
        return worst

    r1, r2 = residual(1e-3), residual(5e-4)
    assert r1 < 1e-3
    # for purely translating profiles the t/x truncation errors cancel and
    # only round-off remains, so accept either the h^2 decay or a tiny floor
    assert r2 < max(r1 / 3.0, 1e-10)


def test_nonlinear_flux_and_source_special_points():
    system = nonlinear_system(-1.0)
    assert np.allclose(system.flux(np.array([0.0, 0.0])), [0.0, 0.0])
    states = np.array([[0.5, -0.2, 1.0], [1.0, -0.4, 2.0]])  # 2u = v
    assert np.allclose(system.source(states), 0.0)


def test_nonlinear_rejects_positive_beta():
    with pytest.raises(ValueError):
        nonlinear_system(0.5)


def test_nonlinear_jacobian_at_unit_state():
    system = nonlinear_system(-1.0)
    q = np.array([1.0, 1.0])
    want = fd_jacobian(system.flux, q)
    assert np.max(np.abs(system.flux_jacobian(q) - want)) < 1e-6


def test_nonlinear_exact_reduces_to_initial_condition():
    x = np.linspace(0.0, 1.0, 1000)
    got = nonlinear_exact(x, 0.0, -1.0)
    want = np.stack([np.sin(2 * np.pi * x), np.cos(2 * np.pi * x)], axis=-1)
    assert np.max(np.abs(got - want)) < 1e-12


def test_nonlinear_exact_beta_zero_limit():
    """The sourced foot-point formula degenerates to plain Burgers."""
    x = np.linspace(0.05, 0.95, 41)
    t = 0.08
    plain = nonlinear_exact(x, t, 0.0)
    nearly = nonlinear_exact(x, t, -1e-9)
    assert np.max(np.abs(plain - nearly)) < 1e-8

    # independent check of the beta = 0 w2 branch: w2 = w2_0(x - w2 t)
    w2 = (2 * plain[:, 0] - plain[:, 1]) / 3.0
    foot = (2 * np.sin(2 * np.pi * (x - w2 * t)) -
            np.cos(2 * np.pi * (x - w2 * t))) / 3.0
    assert np.max(np.abs(w2 - foot)) < 1e-11


def _rk4_characteristic(x0, t_end, beta, w0_fun, n_steps=2000):
    """Integrate dx/dt = w, dw/dt = beta w^2 from (x0, w0_fun(x0))."""
    h = t_end / n_steps
    x = np.array(x0, dtype=float)
    w = w0_fun(x)

    def rhs(state):
        xx, ww = state
        return np.array([ww, beta * ww**2])

    state = np.stack([x, w])
    for _ in range(n_steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return state


def _shoot_foot_point(x_target, t_end, beta, w0_fun):
    """Bisection on the characteristic foot point using RK4 integration."""
    lo, hi = x_target - 0.5, x_target + 0.5

    def landing(x0):
        return _rk4_characteristic(x0, t_end, beta, w0_fun)[0] - x_target

    flo = landing(lo)
    assert flo * landing(hi) <= 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = landing(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    x0 = 0.5 * (lo + hi)
    return _rk4_characteristic(x0, t_end, beta, w0_fun)[1]


def test_nonlinear_exact_matches_rk4_characteristics_oracle():
    x, t, beta = 0.3, 0.1, -1.0
    w1_0 = lambda y: (np.sin(2 * np.pi * y) + np.cos(2 * np.pi * y)) / 3.0
    w2_0 = lambda y: (2 * np.sin(2 * np.pi * y) - np.cos(2 * np.pi * y)) / 3.0
    w1 = _shoot_foot_point(x, t, 0.0, w1_0)
    w2 = _shoot_foot_point(x, t, beta, w2_0)
    want = np.array([w1 + w2, 2 * w1 - w2])
    got = nonlinear_exact(np.array([x]), t, beta)[0]
    assert np.max(np.abs(got - want)) < 1e-8


def test_nonlinear_exact_satisfies_pde_residual():
    system = nonlinear_system(-1.0)
    rng = np.random.default_rng(9)
    pts = np.stack([rng.uniform(0.1, 0.9, 8), rng.uniform(0.02, 0.09, 8)],
                   axis=-1)
    _assert_pde_residual_second_order(system, points=pts)


def test_nonlinear_exact_reports_nonconvergence():
    # far beyond the shock-formation time the foot-point equation has no
    # bracketed single root for some x
    with pytest.raises(RootFindError):
        nonlinear_exact(np.linspace(0, 1, 64), 5.0, -1.0)


def test_leveque_yee_source_equilibria_and_jacobian():
    system = leveque_yee_system(-10000.0)
    q = np.array([[0.0, 0.5, 1.0]])
    assert np.allclose(system.source(q), 0.0)
    assert np.allclose(system.source_jacobian(np.array([0.0]))[0, 0],
                       -10000.0 / 2.0)


def test_leveque_yee_reference_is_translated_step():
    system = leveque_yee_system(-10000.0)
    x = np.linspace(0.0, 1.0, 501)
    sol = system.exact_solution(x, 0.25)
    assert np.all(sol[x < 0.55 - 1e-9, 0] == 1.0)
    assert np.all(sol[x > 0.55 + 1e-9, 0] == 0.0)


def euler_conserved_closed_form(rho, u, p, gamma=1.4):
    return np.array([rho, rho * u, p / (gamma - 1.0) + 0.5 * rho * u**2])


def test_euler_pressure_round_trip():
    cons = euler_primitive_to_conserved(np.array([[1.0, 1.0, 2.0]]), 1.4)
    assert np.max(np.abs(cons[0] - euler_conserved_closed_form(1.0, 1.0, 2.0))) \
        < 1e-12


@given(st.floats(0.1, 5.0), st.floats(-3.0, 3.0), st.floats(0.1, 12.0))
@settings(max_examples=60, deadline=None)
def test_euler_conversion_round_trip_property(rho, u, p):
    cons = euler_primitive_to_conserved(np.array([rho, u, p]), 1.4)
    want = euler_conserved_closed_form(rho, u, p)
    assert np.max(np.abs(cons - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_euler_rejects_nonphysical_states():
    with pytest.raises(InadmissibleStateError):
        euler_primitive_to_conserved(np.array([-1.0, 0.0, 1.0]), 1.4)
    with pytest.raises(InadmissibleStateError):
        euler_primitive_to_conserved(np.array([1.0, 0.0, 0.0]), 1.4)
    with pytest.raises(ValueError):
        euler_system(1.0)


def test_euler_eigenvalues_sound_speed():
    system = euler_system(1.4)
    cons = euler_primitive_to_conserved(np.array([1.0, 1.0, 2.0]), 1.4)
    a = math.sqrt(1.4 * 2.0 / 1.0)
    assert np.allclose(system.eigenvalues(cons), [1 - a, 1.0, 1 + a])


def test_euler_exact_density_value():
    system = euler_system(1.4)
    got = system.exact_solution(0.25, 1.0)
    want_rho = 1.0 + 0.2 * math.sin(2 * math.pi * (0.25 - 1.0))
    assert abs(got[0] - want_rho) < 1e-14
    assert abs(want_rho - 1.2) < 1e-12   # sin(-3pi/2) = 1


def test_euler_exact_satisfies_pde_residual():
    _assert_pde_residual_second_order(euler_system(1.4))


def test_euler_admissibility_mask():
    system = euler_system(1.4)
    good = euler_primitive_to_conserved(np.array([1.0, 0.0, 1.0]), 1.4)
    bad = np.array([1.0, 10.0, 1.0])   # negative pressure
    mask = system.admissible(np.stack([good, bad], axis=-1))
    assert mask.tolist() == [True, False]


def test_shu_osher_initial_values():
    prim = shu_osher_initial(np.array([-0.9, 0.0, 0.1]))
    assert prim.shape == (3, 3)
    assert np.allclose(prim[0], [3.8571, 2.6294, 10.333])
    assert np.allclose(prim[1], [1.0, 0.0, 1.0])
    assert np.allclose(prim[2], [1.2, 0.0, 1.0])   # 1 + 0.2 sin(pi/2)
