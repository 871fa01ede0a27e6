"""Cauchy-Kowalewskaya recursion: tables, identities and oracles."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from numpy.polynomial import polynomial as P

from aderfv.ck import (NodeDerivativeStack, _det, _is_zero, _matmul,
                       _matvec, _solve, binom, m_vector, matrix_c, matrix_d,
                       taylor_terms)
from aderfv.nodes import build_grid
from aderfv.predictor import residual_and_jacobian

RNG = np.random.default_rng(7)

# Pascal-triangle coefficient tables, rows l = 1..5 over columns
# k = l-4 .. l+1 (leading entries fall outside k >= 1 for small l).
TABLE_A = {
    1: [0, 0, 0, 0, 1, 1],
    2: [0, 0, 0, 1, 2, 1],
    3: [0, 0, 1, 3, 3, 1],
    4: [0, 1, 4, 6, 4, 1],
    5: [1, 5, 10, 10, 5, 1],
}
TABLE_B = {
    1: [0, 0, 0, 0, 0, 1],
    2: [0, 0, 0, 0, 1, 1],
    3: [0, 0, 0, 1, 2, 1],
    4: [0, 0, 1, 3, 3, 1],
    5: [0, 1, 4, 6, 4, 1],
}


def table_row(table, l):
    """Entries for k = 1..l+1 (drop columns with k < 1)."""
    row = table[l]
    out = row[max(0, 5 - l):]
    assert all(v == 0 for v in row[: max(0, 5 - l)])
    return out


def test_binom_examples():
    assert binom(5, 2) == 10
    assert binom(3, -1) == 0
    assert binom(0, 0) == 1
    assert binom(4, 7) == 0
    with pytest.raises(ValueError):
        binom(-1, 0)


@given(st.integers(1, 30), st.integers(-2, 32))
def test_binom_pascal_recurrence(n, k):
    assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


def random_stack(m=2, orders_a=5, orders_b=5, seed=0):
    rng = np.random.default_rng(seed)
    stack = NodeDerivativeStack(
        Q=rng.standard_normal(m),
        A=rng.standard_normal((m, m)),
        B=rng.standard_normal((m, m)),
        S=rng.standard_normal(m),
    )
    for l in range(1, orders_a + 1):
        stack.dxA[l] = rng.standard_normal((m, m))
    for l in range(1, orders_b + 1):
        stack.dxB[l] = rng.standard_normal((m, m))
    return stack


def test_matrix_d_base_identities():
    stack = random_stack(seed=1)
    assert np.allclose(matrix_d(2, 2, stack), -stack.A)
    assert np.allclose(matrix_d(2, 1, stack), stack.B - stack.dxA[1])


def test_matrix_d_constant_matrices():
    stack = random_stack(seed=2)
    for l in range(1, 6):
        stack.dxA[l] = np.zeros_like(stack.A)
        stack.dxB[l] = np.zeros_like(stack.B)
    for p in range(2, 6):
        assert np.allclose(matrix_d(p, p, stack), -stack.A)
        assert np.allclose(matrix_d(p, p - 1, stack), stack.B)
        for k in range(1, p - 1):
            assert np.allclose(matrix_d(p, k, stack), 0.0)


def test_matrix_d_rejects_bad_indices():
    stack = random_stack()
    with pytest.raises(ValueError):
        matrix_d(1, 1, stack)
    with pytest.raises(ValueError):
        matrix_d(3, 4, stack)


def zero_probe(m, max_order):
    probe = NodeDerivativeStack(Q=np.zeros(m), A=np.zeros((m, m)),
                                B=np.zeros((m, m)), S=np.zeros(m))
    probe.b_is_zero = False   # keep B terms active for coefficient probing
    for j in range(1, max_order + 1):
        probe.dxA[j] = np.zeros((m, m))
        probe.dxB[j] = np.zeros((m, m))
    return probe


def pascal_rows_of_matrix_d(l, m=2):
    """Rows (a, b) of the Pascal tables at order l, read off D(l+1, k),
    k = 1..l+1, by probing with indicator stacks.

    An indicator stack is zero except for one derivative of A or B set to
    ones, which isolates that derivative's scalar coefficient.  The A
    coefficients of D(l+1, k) form the a-row; the B coefficient of order
    l-k sits one column further right in the b-row, whose first column,
    C(l-1, l), is zero and belongs to no D.
    """
    a, b = [], [0]
    for k in range(1, l + 2):
        probe = zero_probe(m, l + 1)
        probe.dxA[l + 1 - k] = np.ones((m, m))
        a.append(-matrix_d(l + 1, k, probe)[0, 0])
        if k <= l:
            probe = zero_probe(m, l + 1)
            probe.dxB[l - k] = np.ones((m, m))
            b.append(matrix_d(l + 1, k, probe)[0, 0])
    return a, b


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_matrix_d_coefficients_match_pascal_tables(l):
    """The mixed-derivative matrices reproduce the published tables."""
    a, b = pascal_rows_of_matrix_d(l)
    assert a == table_row(TABLE_A, l)
    assert b == table_row(TABLE_B, l)


def on_nodes(values, shape):
    """Component-first copy of constant (m[, m]) values at every node of
    ``shape``."""
    values = np.asarray(values)
    return np.broadcast_to(values.reshape(values.shape + (1,) * len(shape)),
                           values.shape + shape).copy()


def mv(mat, vec):
    """Reference matrix-vector product of (m, m, ...) and (m, ...) arrays:
    ``@`` on the component axes moved last."""
    return np.moveaxis((np.moveaxis(mat, (0, 1), (-2, -1))
                        @ np.moveaxis(vec, 0, -1)[..., None])[..., 0], -1, 0)


def mm(a, b):
    """Reference matrix product of (m, m, ...) arrays: ``@`` on the moved
    matrix axes."""
    return np.moveaxis(np.moveaxis(a, (0, 1), (-2, -1))
                       @ np.moveaxis(b, (0, 1), (-2, -1)), (-2, -1), (0, 1))


def constant_grid_stack(A, B, M, n_cells=1, seed=3):
    """Component-first grid stack, (m[, m], n_S, n_T, cells), with
    space-time constant Jacobians.

    Scales near one keep the dt**-1 round-off amplification of the nodal
    time gradients (of constant data) small.
    """
    m = A.shape[0]
    grid = build_grid(M, 0.5, 0.5)
    rng = np.random.default_rng(seed)
    shape = (len(grid.xi), grid.n_time, n_cells)
    stack = NodeDerivativeStack(
        Q=rng.standard_normal((m,) + shape),
        A=on_nodes(A, shape),
        B=on_nodes(B, shape),
        S=rng.standard_normal((m,) + shape),
    )
    for l in range(1, M + 1):
        stack.dxQ[l] = rng.standard_normal((m,) + shape)
    for l in range(1, M):
        stack.dxA[l] = np.zeros((m, m) + shape)
    for l in range(1, M - 1):
        stack.dxB[l] = np.zeros((m, m) + shape)
        stack.dtB[l] = np.zeros((m, m) + shape)
    return grid, stack


def test_matrix_c_base_and_step_three_identities():
    """C(1,1) = -A everywhere; C(2,2) = A^2; C(2,1) = -A_t - A(B - A_x)."""
    m = 2
    M = 2
    grid = build_grid(M, 0.1, 0.05)
    rng = np.random.default_rng(5)
    a0 = rng.standard_normal((m, m))
    a1 = rng.standard_normal((m, m))
    b0 = rng.standard_normal((m, m))
    ax = rng.standard_normal((m, m))
    shape = (len(grid.xi), grid.n_time, 1)
    # A varies linearly in physical time => the interpolated gradient is exact
    t_phys = grid.tau * grid.dt
    a_field = on_nodes(a0, shape) + t_phys[:, None] * on_nodes(a1, shape)
    stack = NodeDerivativeStack(
        Q=np.zeros((m,) + shape),
        A=a_field,
        B=on_nodes(b0, shape),
        S=np.zeros((m,) + shape),
    )
    stack.dxQ[1] = np.zeros((m,) + shape)
    stack.dxQ[2] = np.zeros((m,) + shape)
    stack.dxA[1] = on_nodes(ax, shape)

    C = matrix_c(stack, M, grid)
    assert np.allclose(C[1, 1], -stack.A)
    assert np.allclose(C[2, 2], mm(stack.A, stack.A))
    want = -on_nodes(a1, shape) - mm(a_field, on_nodes(b0 - ax, shape))
    assert np.max(np.abs(C[2, 1] - want)) < 1e-10


def test_matrix_c_constant_commuting_closed_form():
    """For constant A and B = beta*I: C(k,l) = C(k-1,k-l) beta^(k-l) (-A)^l."""
    m = 2
    beta = -0.7
    A = np.array([[0.0, 1.3], [1.3, 0.0]])
    grid, stack = constant_grid_stack(A, beta * np.eye(m), M=4)
    C = matrix_c(stack, 4, grid)
    negA = -A
    for k in range(1, 5):
        for l in range(1, k + 1):
            want = binom(k - 1, k - l) * beta ** (k - l) * \
                np.linalg.matrix_power(negA, l)
            got = C[k, l][:, :, 0, 0, 0]
            assert np.max(np.abs(got - want)) < 1e-9 * max(1, np.abs(want).max())


def conventional_ck_constant(A, B, k):
    """Conventional CK oracle for frozen constant Jacobians.

    Repeatedly differentiates dtQ = -A dxQ + S using d/dt dx^l Q =
    -A dx^(l+1) Q + B dx^l Q and d/dt S = B(-A dxQ + S), yielding
    dt^(k) Q = sum_l P[l] dx^l Q + R S with explicit coefficient matrices.
    """
    m = A.shape[0]
    P = {1: -A.copy()}
    R = np.eye(m)
    for _ in range(k - 1):
        newP = {}
        for l, mat in P.items():
            newP[l + 1] = newP.get(l + 1, 0) - mat @ A
            newP[l] = newP.get(l, 0) + mat @ B
        newP[1] = newP.get(1, 0) - R @ B @ A
        P = newP
        R = R @ B
    return P, R


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_time_derivatives_match_conventional_ck_for_frozen_jacobians(k):
    m = 3
    rng = np.random.default_rng(11)
    A = rng.standard_normal((m, m))
    B = rng.standard_normal((m, m))
    grid, stack = constant_grid_stack(A, B, M=4, seed=12)
    C = matrix_c(stack, 4, grid)
    dtq = taylor_terms(stack, C, 4)
    P, R = conventional_ck_constant(A, B, k)
    want = np.tensordot(R, stack.S, axes=1)
    for l, mat in P.items():
        want = want + np.tensordot(mat, stack.dxQ[l], axes=1)
    err = np.max(np.abs(dtq[k] - want))
    assert err < 1e-8 * max(1.0, np.max(np.abs(want)))


def binomial_oracle(A, beta, dxq, k):
    """dt^k Q = sum_j C(k,j) beta^(k-j) (-A d/dx)^j Q for constant A and
    B = beta*I, S = beta*Q (the linear wave/relaxation system)."""
    want = 0.0
    for j in range(0, k + 1):
        mat = binom(k, j) * beta ** (k - j) * np.linalg.matrix_power(-A, j)
        want = want + np.tensordot(mat, dxq[j], axes=1)
    return want


def linear_relaxation_stack(M, seed):
    lam, beta = 1.0, -1.0
    A = np.array([[0.0, lam], [lam, 0.0]])
    grid, stack = constant_grid_stack(A, beta * np.eye(2), M=M, seed=seed)
    stack.S = beta * stack.Q    # source consistent with B = beta*I
    return A, beta, grid, stack


def test_time_derivatives_binomial_oracle_linear_system():
    A, beta, grid, stack = linear_relaxation_stack(M=4, seed=13)
    C = matrix_c(stack, 4, grid)
    dtq = taylor_terms(stack, C, 4)
    for k in range(1, 5):
        want = binomial_oracle(A, beta, stack.dxQ, k)
        rel = np.max(np.abs(dtq[k] - want)) / max(1.0, np.max(np.abs(want)))
        assert rel < 1e-8


def test_residual_is_taylor_sum_of_binomial_oracle():
    """At B = beta*I != 0 the predictor residual is H = Q - W + sum_k c_k
    dtQ[k] with the oracle's dtQ[k], and J = (1 + sum_k c_k beta^k) I,
    c_k = (-tau)^k / k!."""
    M = 4
    A, beta, grid, stack = linear_relaxation_stack(M=M, seed=29)
    C = matrix_c(stack, M, grid)
    w = np.random.default_rng(30).standard_normal((2, len(grid.xi), 1))
    tau = grid.tau * grid.dt
    h, jac = residual_and_jacobian(stack, C, w, tau, M)
    want_h = stack.Q - w[:, :, None]
    weight = 1.0
    for k in range(1, M + 1):
        ck = ((-tau) ** k / math.factorial(k))[:, None]
        want_h = want_h + ck * binomial_oracle(A, beta, stack.dxQ, k)
        weight = weight + ck * beta ** k
    rel = np.max(np.abs(h - want_h)) / max(1.0, np.max(np.abs(want_h)))
    assert rel < 1e-8
    want_jac = np.eye(2)[:, :, None, None, None] * weight
    assert np.allclose(jac, want_jac, rtol=1e-13, atol=1e-15)


def test_time_derivatives_zero_at_equilibrium():
    m = 2
    grid, stack = constant_grid_stack(np.eye(m), np.zeros((m, m)), M=3)
    for l in range(1, 4):
        stack.dxQ[l] = np.zeros_like(stack.dxQ[l])
    stack.S = np.zeros_like(stack.S)
    C = matrix_c(stack, 3, grid)
    for d in taylor_terms(stack, C, 3).values():
        assert np.allclose(d, 0.0, atol=1e-14)


def test_m_vector_first_orders():
    """M_1 = -A dxQ; M_2 = C(2,2) dx2Q + C(2,1) dxQ (no time-derivative sum)."""
    m = 2
    rng = np.random.default_rng(17)
    grid, stack = constant_grid_stack(rng.standard_normal((m, m)),
                                      rng.standard_normal((m, m)), M=3,
                                      seed=18)
    C = matrix_c(stack, 3, grid)
    m1 = m_vector(1, stack, C, {})
    assert np.allclose(m1, mv(-stack.A, stack.dxQ[1]))
    m2 = m_vector(2, stack, C, {})
    want = mv(C[2, 2], stack.dxQ[2]) + mv(C[2, 1], stack.dxQ[1])
    assert np.allclose(m2, want)


def test_second_time_derivative_fd_oracle_on_exact_solution():
    """dtQ[2] agrees with a centered time difference of dtQ[1] along the
    exact solution of the linear wave/relaxation system."""
    from aderfv.systems import linear_system

    lam, beta = 1.0, -1.0
    system = linear_system(lam, beta)
    A = np.array([[0.0, lam], [lam, 0.0]])
    x0, t0 = 0.31, 0.42

    def exact(x, t):
        return system.exact_solution(np.asarray(x), t)

    def dx_exact(x, t, order):
        h = 1e-5    # spectral content is ~2*pi, so FD in x is accurate enough
        if order == 1:
            return (exact(x + h, t) - exact(x - h, t)) / (2 * h)
        return (exact(x + h, t) - 2 * exact(x, t) + exact(x - h, t)) / h**2

    def dtq1(t):
        q = exact(x0, t)
        return -(A @ dx_exact(x0, t, 1)) + beta * q

    ht = 1e-4
    fd = (dtq1(t0 + ht) - dtq1(t0 - ht)) / (2 * ht)

    grid = build_grid(2, 0.1, 0.05)
    shape = (len(grid.xi), grid.n_time, 1)
    q = on_nodes(exact(x0, t0), shape)
    stack = NodeDerivativeStack(Q=q, A=on_nodes(A, shape),
                                B=on_nodes(beta * np.eye(2), shape),
                                S=beta * q)
    stack.dxQ[1] = on_nodes(dx_exact(x0, t0, 1), shape)
    stack.dxQ[2] = on_nodes(dx_exact(x0, t0, 2), shape)
    stack.dxA[1] = np.zeros((2, 2) + shape)
    C = matrix_c(stack, 2, grid)
    dtq = taylor_terms(stack, C, 2)
    assert np.max(np.abs(dtq[2][:, 0, 0, 0] - fd)) < 1e-5


def test_ck_coefficients_bounds():
    """matrix_c returns exactly the keys 1 <= l <= k <= M."""
    for M in range(1, 5):
        grid, stack = constant_grid_stack(np.eye(2), -np.eye(2), M=M)
        C = matrix_c(stack, M, grid)
        assert set(C) == {(k, l) for k in range(1, M + 1)
                          for l in range(1, k + 1)}


# ---------------------------------------------------------------------------
# Exact oracles in which B varies (the Leibniz sum of m_vector)
# ---------------------------------------------------------------------------

def riccati_stack(M, q0=0.8, beta=-1.5):
    """Grid stack of spatially uniform data for q' = beta q^2: A = 0,
    B = 2 beta q, S = beta q^2, with B's exact time derivatives
    dtB[j] = 2 beta j! beta^j q0^(j+1).

    Returns the grid, the stack and the exact time derivatives
    dt^k q = k! beta^k q0^(k+1), k = 1..M.
    """
    grid = build_grid(M, 0.5, 0.5)
    q = np.full((1, len(grid.xi), grid.n_time, 1), q0)
    stack = NodeDerivativeStack(Q=q, A=np.zeros((1,) + q.shape),
                                B=2 * beta * q[None], S=beta * q**2)
    for l in range(1, M + 1):
        stack.dxQ[l] = np.zeros_like(q)
    for l in range(1, M):
        stack.dxA[l] = np.zeros_like(stack.A)
    for j in range(1, M - 1):
        stack.dxB[j] = np.zeros_like(stack.B)
        stack.dtB[j] = np.full_like(stack.B, 2 * beta * math.factorial(j)
                                    * beta**j * q0 ** (j + 1))
    exact = {k: math.factorial(k) * beta**k * q0 ** (k + 1)
             for k in range(1, M + 1)}
    return grid, stack, exact


@pytest.mark.parametrize("M", [2, 3, 4])
def test_time_derivatives_uniform_riccati_oracle(M):
    """On uniform data of q' = beta q^2 the recursion is the Leibniz sum
    over B's time derivatives alone and gives dt^k q exactly."""
    grid, stack, exact = riccati_stack(M)
    dtq = taylor_terms(stack, matrix_c(stack, M, grid), M)
    for k in range(1, M + 1):
        assert np.max(np.abs(dtq[k] - exact[k])) <= 1e-12 * abs(exact[k])


def burgers_source_series(q0, beta, K):
    """Polynomials q_k(x) = dt^k q(x, 0), k = 0..K, of the exact solution
    of q_t + (q^2/2)_x = beta q^2 with polynomial data q0 (coefficients
    ascending): the classical CK recursion, Leibniz rule on q (beta q - q_x),
    on exact polynomial arithmetic."""
    q = [np.asarray(q0, dtype=float)]
    for k in range(K):
        acc = np.zeros(1)
        for j in range(k + 1):
            rate = P.polysub(beta * q[k - j], P.polyder(q[k - j]))
            acc = P.polyadd(acc, binom(k, j) * P.polymul(q[j], rate))
        q.append(acc)
    return q


def test_time_derivatives_burgers_source_oracle_order_5():
    """M = 4 on q_t + (q^2/2)_x = beta q^2, where A = q and B = 2 beta q
    vary in x and t: every entry of the stack is exact, so dtQ[k] must
    match the exact dt^k q at the nodes up to the error of the time
    gradients in matrix_c.

    Those gradients differentiate the interpolant through the M Gauss time
    nodes, and each level nests one more of them, so the deviation grows
    like dt^(5-k): relative 1e-11, 1e-7 and 1e-4 at k = 2, 3, 4 with
    dt = 1e-3.  The gate 5 dt^(5-k) sits 40x above those, and 50x below the
    2.7e-1 that a wrong Leibniz coefficient of m_vector gives at k = 4.
    """
    M, dx, dt, beta, K = 4, 0.1, 1e-3, 2.0, 16
    grid = build_grid(M, dx, dt)
    q = burgers_source_series([0.5, 0.3, -0.2], beta, K)
    x = ((np.arange(3) - 1.0)[None, :] + grid.xi[:, None]) * dx
    x, t = np.broadcast_arrays(x[:, None, :], grid.tau[:, None] * dt)

    def exact(kt, lx):
        """dt^kt dx^lx q at the nodes, (1, n_S, n_T, cells), from the
        Taylor series in t, truncated far below rounding."""
        return sum(P.polyval(x, P.polyder(q[n + kt], lx)) * t**n
                   / math.factorial(n) for n in range(K + 1 - kt))[None]

    Q = exact(0, 0)
    stack = NodeDerivativeStack(Q=Q, A=Q[None], B=2 * beta * Q[None],
                                S=beta * Q**2)
    for l in range(1, M + 1):
        stack.dxQ[l] = exact(0, l)
    for l in range(1, M):
        stack.dxA[l] = exact(0, l)[None]
    for l in range(1, M - 1):
        stack.dxB[l] = 2 * beta * exact(0, l)[None]
        stack.dtB[l] = 2 * beta * exact(l, 0)[None]
    dtq = taylor_terms(stack, matrix_c(stack, M, grid), M)
    for k in range(1, M + 1):
        want = exact(k, 0)
        rel = np.max(np.abs(dtq[k] - want)) / np.max(np.abs(want))
        assert rel < 5 * dt ** (5 - k), k


def _wide_range(rng, shape):
    """Random entries of both signs spread over 24 decades, some exactly 0."""
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
    out[rng.random(shape) < 0.05] = 0.0
    return out


def test_scalar_small_matrix_algebra_matches_linalg():
    """At m = 1 the helpers multiply and divide elementwise: ``_matvec`` and
    ``_matmul`` are bitwise the elementwise product, and all four agree
    with matmul and LAPACK on the moved axes to 1 ulp, broadcasting over
    the trailing node axes."""
    rng = np.random.default_rng(11)
    a = _wide_range(rng, (1, 1, 40, 3, 2))
    b = _wide_range(rng, (1, 1, 40, 3, 2))
    v = _wide_range(rng, (1, 40, 3, 2))
    a[0, 0, 5, 1, 0] = 0.0
    assert np.array_equal(_matvec(a, v), a[0] * v)
    assert np.array_equal(_matmul(a, b), a * b)
    np.testing.assert_array_max_ulp(_matvec(a, v), mv(a, v), maxulp=1)
    np.testing.assert_array_max_ulp(_matmul(a, b), mm(a, b), maxulp=1)
    one = a[..., :1, :1, :1]       # one matrix for every node
    np.testing.assert_array_max_ulp(_matvec(one, v),
                                    mv(np.broadcast_to(one, a.shape), v),
                                    maxulp=1)
    nonzero = np.where(a == 0.0, 1.0, a)
    solved = np.linalg.solve(np.moveaxis(nonzero, (0, 1), (-2, -1)),
                             np.moveaxis(v, 0, -1)[..., None])[..., 0]
    np.testing.assert_array_max_ulp(_solve(nonzero, v),
                                    np.moveaxis(solved, -1, 0), maxulp=1)
    assert np.array_equal(_det(a), a[0, 0])
    assert np.array_equal(
        np.sign(_det(a)),
        np.sign(np.linalg.det(np.moveaxis(a, (0, 1), (-2, -1)))))
    with pytest.raises(np.linalg.LinAlgError):
        _solve(a, v)


def test_small_matrix_algebra_sums_component_slabs():
    """At m = 2, 3 ``_matvec`` and ``_matmul`` are bitwise the sums over k
    of ``mat[:, k] * vec[k]`` and ``a[:, k, None] * b[k]``, also with one
    matrix broadcast over the trailing node axes, and also for one cell
    (the einsum of ``_matmul`` may then iterate the axes in another order,
    but must not reorder the sum over k).  They sum the same m products as
    ``@`` in another order, so they agree with it within the rounding bound
    2 m eps sum_k |a_ik| |b_kj| (where entries cancel, the two can differ
    by many ulps of the result).  ``_solve`` and ``_det`` are bitwise
    LAPACK on the moved axes."""
    for m in (2, 3):
        for shape in ((6, 2, 5), (6, 2, 1)):
            _check_slab_algebra(m, shape, np.random.default_rng(12 + m))


def _check_slab_algebra(m, shape, rng):
    a = rng.standard_normal((m, m) + shape)
    b = rng.standard_normal((m, m) + shape)
    v = rng.standard_normal((m,) + shape)
    one = a[..., :1, :1, :1]
    for mat in (a, one):
        assert np.array_equal(_matvec(mat, v),
                              sum(mat[:, k] * v[k] for k in range(m)))
        assert np.array_equal(_matmul(mat, b),
                              sum(mat[:, k, None] * b[k] for k in range(m)))
    bound = 2 * m * np.finfo(float).eps
    assert np.all(np.abs(_matvec(a, v) - mv(a, v))
                  <= bound * mv(np.abs(a), np.abs(v)))
    assert np.all(np.abs(_matmul(a, b) - mm(a, b))
                  <= bound * mm(np.abs(a), np.abs(b)))
    moved = np.moveaxis(a, (0, 1), (-2, -1))
    solved = np.linalg.solve(moved, np.moveaxis(v, 0, -1)[..., None])[..., 0]
    assert np.array_equal(_solve(a, v), np.moveaxis(solved, -1, 0))
    assert np.array_equal(_det(a), np.linalg.det(moved))
    singular = a.copy()
    singular[..., 3, 1, -1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        _solve(singular, v)


def test_is_zero_reads_broadcast_axes_once():
    """``_is_zero`` agrees with ``not a.any()`` on filled arrays, broadcast
    views and empty batches, and finds a lone nonzero on a filled axis."""
    z = np.zeros((3, 3, 3, 2, 5))
    eye = np.broadcast_to(np.eye(3)[:, :, None, None, None], z.shape)
    column = np.broadcast_to(z[..., :1], z.shape)
    for a in (z, eye, column, z[..., :0], np.zeros(()), np.ones(())):
        assert _is_zero(a) == (not a.any())
    z[1, 2, 1, 0, 4] = 1e-300
    assert not _is_zero(z)
    assert _is_zero(np.broadcast_to(z[..., :1], z.shape))
