"""Node grid, interpolation-derivative operators and quadrature weights."""
import math

import numpy as np
import pytest

from aderfv.nodes import (SPACE_AXIS, TIME_AXIS, _apply, build_grid,
                          gauss_legendre, monomial_derivatives,
                          newton_cotes_weights, space_derivative, space_nodes,
                          time_derivative)

SQRT3 = math.sqrt(3.0)
SQRT15 = math.sqrt(15.0)


def test_space_nodes_are_equidistant_endpoints():
    assert np.allclose(space_nodes(1), [-0.5, 0.5])
    assert np.allclose(space_nodes(4), [-0.5, -0.25, 0.0, 0.25, 0.5])


def test_grid_time_nodes_gauss():
    g1 = build_grid(1, 1.0, 1.0)
    assert np.allclose(g1.tau, [0.5]) and np.allclose(g1.tau_weights, [1.0])
    g2 = build_grid(2, 1.0, 1.0)
    assert np.allclose(g2.tau, [(3 - SQRT3) / 6, (3 + SQRT3) / 6])
    assert np.allclose(g2.tau_weights, [0.5, 0.5])


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_gauss_weights_integrate_polynomials(M):
    g = build_grid(M, 1.0, 1.0)
    assert abs(g.tau_weights.sum() - 1.0) < 1e-13
    for p in range(2 * g.n_time):
        quad = float(g.tau_weights @ g.tau**p)
        assert abs(quad - 1.0 / (p + 1)) < 1e-13


@pytest.mark.parametrize("M", [0, 5, -1])
def test_build_grid_rejects_unsupported_degree(M):
    with pytest.raises(ValueError):
        build_grid(M, 1.0, 1.0)


def test_build_grid_rejects_nonpositive_scales():
    with pytest.raises(ValueError):
        build_grid(2, 0.0, 1.0)
    with pytest.raises(ValueError):
        build_grid(2, 1.0, -0.1)


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_space_derivative_exact_on_monomials(M):
    g = build_grid(M, 1.0, 1.0)
    for p in range(M + 1):
        vals = g.xi**p
        for l in range(M + 1):
            got = space_derivative(vals, l, g)
            want = math.perm(p, l) * g.xi ** max(p - l, 0) if l <= p \
                else np.zeros_like(g.xi)
            assert np.max(np.abs(got - want)) < 100 * np.finfo(float).eps * 10


def test_space_derivative_examples():
    g = build_grid(2, 1.0, 1.0)
    second = space_derivative(g.xi**2, 2, g)
    assert np.allclose(second, 2.0, atol=1e-12)
    assert np.allclose(space_derivative(np.ones(3), 1, g), 0.0, atol=1e-13)

    g4 = build_grid(4, 1.0, 1.0)
    third = space_derivative(g4.xi**3, 3, g4)
    fourth = space_derivative(g4.xi**3, 4, g4)
    assert np.allclose(third, 6.0, atol=1e-10)
    assert np.allclose(fourth, 0.0, atol=1e-10)


def test_space_derivative_beyond_degree_is_exact_zero():
    g = build_grid(2, 0.1, 0.2)
    out = space_derivative(np.array([1.0, 2.0, 4.0]), 3, g)
    assert np.all(out == 0.0)


def test_space_derivative_physical_scaling():
    g = build_grid(2, 0.25, 1.0)
    ref = space_derivative(g.xi**2, 2, build_grid(2, 1.0, 1.0))
    phys = space_derivative(g.xi**2, 2, g)
    assert np.allclose(phys, ref / 0.25**2)


def test_time_derivative_slope_matches_two_point_formula():
    g = build_grid(2, 1.0, 1.0)
    f = np.array([0.3, 1.1])
    got = time_derivative(f, 1, g)
    want = SQRT3 * (f[1] - f[0])
    assert np.allclose(got, want, atol=1e-13)
    assert np.allclose(time_derivative(np.ones(2), 1, g), 0.0, atol=1e-13)


def test_time_derivative_second_order_exact():
    g = build_grid(4, 1.0, 1.0)
    got = time_derivative(g.tau**2, 2, g)
    assert np.allclose(got, 2.0, atol=1e-8)


def test_time_derivative_rejected_for_single_node():
    g = build_grid(1, 1.0, 1.0)
    with pytest.raises(ValueError):
        time_derivative(np.array([1.0]), 1, g)


def test_time_derivative_scaling_and_axis():
    g = build_grid(3, 1.0, 0.01)
    vals = np.stack([g.tau, 2 * g.tau], axis=0)   # (2, n_T)
    out = time_derivative(vals, 1, g, axis=1)
    assert np.allclose(out[0], 1.0 / 0.01) and np.allclose(out[1], 2.0 / 0.01)


# Published interpolation stencils (orders 3-5); the generated operators
# must reproduce them.  The second-order space row is inconsistent with
# interpolation at xi = -/+ 1/2 and is intentionally excluded.

SPACE_ROWS = {
    2: [[0, 1, 0],
        [-1, 0, 1],
        [2, -4, 2]],
    3: [[-1 / 16, 9 / 16, 9 / 16, -1 / 16],
        [1 / 8, -27 / 8, 27 / 8, -1 / 8],
        [9 / 4, -9 / 4, -9 / 4, 9 / 4],
        [-9 / 2, 27 / 2, -27 / 2, 9 / 2]],
    4: [[0, 0, 1, 0, 0],
        [1 / 3, -8 / 3, 0, 8 / 3, -1 / 3],
        [-2 / 3, 32 / 3, -20, 32 / 3, -2 / 3],
        [-16 / 3, 32 / 3, 0, -32 / 3, 16 / 3],
        [32 / 3, -128 / 3, 64, -128 / 3, 32 / 3]],
}

TIME_ROWS = {
    2: [[(SQRT3 + 1) / 2, (1 - SQRT3) / 2],
        [-SQRT3, SQRT3]],
    3: [[(SQRT15 + 5) / 6, -4 / 6, (5 - SQRT15) / 6],
        [-(SQRT15 + 10) / 3, 20 / 3, (SQRT15 - 10) / 3],
        [10 / 3, -20 / 3, 10 / 3]],
    4: [[1.526788125457266, -0.8136324494869276, 0.4007615203116506,
         -0.1139171962819898],
        [-8.546023607872199, 13.80716692568958, -7.41707042146264,
         2.15592710364526],
        [14.32585835417188, -31.38822236344606, 24.99812585921913,
         -7.935761849944949],
        [-7.420540068038946, 18.79544940755506, -18.79544940755506,
         7.420540068038946]],
}


@pytest.mark.parametrize("M", [2, 3, 4])
def test_space_coefficients_match_published_rows(M):
    """The rows map nodal samples to monomial coefficients, so with the
    monomials' derivatives they give the derivative operators."""
    g = build_grid(M, 1.0, 1.0)
    for l in range(M + 1):
        rows = monomial_derivatives(g.xi, M, l) @ np.array(SPACE_ROWS[M])
        assert np.max(np.abs(rows - g.space_diff[l])) < 1e-10


@pytest.mark.parametrize("M", [2, 3, 4])
def test_time_coefficients_match_published_rows(M):
    g = build_grid(M, 1.0, 1.0)
    for l in range(g.n_time):
        rows = monomial_derivatives(g.tau, g.n_time - 1, l) \
            @ np.array(TIME_ROWS[M])
        assert np.max(np.abs(rows - g.time_diff[l])) < 1e-10


@pytest.mark.parametrize("order,expected", [
    (2, [1 / 2, 1 / 2]),
    (3, [1 / 6, 4 / 6, 1 / 6]),
    (4, [1 / 8, 3 / 8, 3 / 8, 1 / 8]),
    (5, [7 / 90, 32 / 90, 12 / 90, 32 / 90, 7 / 90]),
])
def test_newton_cotes_weights_match_table(order, expected):
    w = newton_cotes_weights(order)
    assert np.max(np.abs(w - np.array(expected))) < 1e-13
    assert abs(w.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_newton_cotes_integrates_interpolation_space(order):
    M = order - 1
    xi = space_nodes(M)
    w = newton_cotes_weights(order)
    for p in range(M + 1):
        exact = (0.5 ** (p + 1) - (-0.5) ** (p + 1)) / (p + 1)
        assert abs(float(w @ xi**p) - exact) < 1e-14


def test_gauss_legendre_interval_mapping():
    x, w = gauss_legendre(5, -0.5, 0.5)
    assert abs(w.sum() - 1.0) < 1e-14
    assert abs(float(w @ x**4) - (0.5**5 - (-0.5) ** 5) / 5) < 1e-15


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_apply_matches_literal_node_sum(M):
    """_apply contracts the node axis: out[.., p, ..] = sum_q mat[p, q]
    values[.., q, ..], for vector and matrix node data on both axes."""
    grid = build_grid(M, 0.1, 0.01)
    rng = np.random.default_rng(M)
    for leading in ((2,), (2, 2), (1,), (1, 1)):
        values = rng.standard_normal(leading + (len(grid.xi), grid.n_time, 5))
        for axis, mats in ((SPACE_AXIS, grid.space_diff),
                           (TIME_AXIS, grid.time_diff)):
            for mat in mats:
                got = _apply(mat, values, axis)
                moved = np.moveaxis(values, axis, 0)
                want = np.zeros_like(moved)
                for p in range(mat.shape[0]):
                    for q in range(mat.shape[1]):
                        want[p] += mat[p, q] * moved[q]
                want = np.moveaxis(want, 0, axis)
                assert got.shape == values.shape
                assert np.allclose(got, want, rtol=1e-13,
                                   atol=1e-13 * np.abs(mat).sum())
                empty = values[..., :0]
                assert _apply(mat, empty, axis).shape == empty.shape


def _per_slab(mat, values, axis, scale):
    """mat times the (nodes, rest) slab of each cell (on the time axis, of
    each cell and space node) of component-first values, the rest being the
    cell's components (and, on the space axis, its time nodes), one product
    per slab, divided by scale; also returns the bound
    n eps sum_q |mat_pq| |x_q| / scale on the rounding of each entry."""
    want = np.empty_like(values)
    bound = np.empty_like(values)
    eps = mat.shape[0] * np.finfo(float).eps
    n_space, _, n_cells = values.shape[-3:]
    # position of the node axis in a cell's slab
    node = -2 if axis == SPACE_AXIS else -1
    for c in range(n_cells):
        for where in ([np.s_[..., c]] if axis == SPACE_AXIS else
                      [np.s_[..., s, :, c] for s in range(n_space)]):
            slab = np.moveaxis(values[where], node, 0)
            flat = slab.reshape(slab.shape[0], -1)
            for out, product in ((want, mat @ flat),
                                 (bound, eps * (np.abs(mat) @ np.abs(flat)))):
                out[where] = np.moveaxis(product.reshape(slab.shape), 0,
                                         node) / scale
    return want, bound


@pytest.mark.parametrize("M", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 3])
def test_derivatives_match_per_cell_products(M, m):
    """On component-first (..., n_S, n_T, cells) vector and matrix data, the
    derivatives over all cells at once agree to 1 ulp with D_l times each
    cell's (nodes, rest) slab: the space axis per cell, the time axis per
    cell and space node.  A one-column slab (the time axis at m = 1) makes
    its product a matrix-vector kernel that sums in another order; there
    the bound is n eps sum_q |D_pq x_q|, since cancelling entries can
    differ by many ulps.  The derivatives of one cell alone equal its part
    of the batch bitwise, so results do not depend on the batching."""
    grid = build_grid(M, 0.1, 0.01)
    rng = np.random.default_rng(10 * M + m)
    n_cells = 37
    for leading in ((m,), (m, m)):
        values = rng.standard_normal(leading
                                     + (len(grid.xi), grid.n_time, n_cells))
        cases = [(space_derivative, SPACE_AXIS, grid.space_diff, grid.dx, l)
                 for l in range(1, M + 1)]
        cases += [(time_derivative, TIME_AXIS, grid.time_diff, grid.dt, l)
                  for l in range(1, grid.n_time)]
        for derivative, axis, mats, h, l in cases:
            got = derivative(values, l, grid, axis=axis)
            want, bound = _per_slab(mats[l], values, axis, h**l)
            if axis == TIME_AXIS and m == 1:
                assert np.all(np.abs(got - want) <= bound)
            else:
                np.testing.assert_array_max_ulp(got, want, maxulp=1)
            # a batch of one cell is bitwise that cell's part of the batch
            for c in (0, 17):
                alone = derivative(values[..., c:c + 1], l, grid, axis=axis)
                assert np.array_equal(alone, got[..., c:c + 1])
