"""Space-time predictor: starting guess, stacks, Newton sweeps, accuracy."""
import math

import numpy as np
import pytest

from aderfv import predictor
from aderfv.ck import matrix_c, taylor_terms
from aderfv.harness import build_config, make_case
from aderfv.nodes import build_grid, gauss_legendre
from aderfv.predictor import (PredictorConfig, PredictorError, initial_guess,
                              newton_sweep, populate_stacks, predictor_solve,
                              residual_and_jacobian)
from aderfv.scheme import cfl_timestep, run
from aderfv.systems import (euler_primitive_to_conserved, euler_system,
                            leveque_yee_system, linear_system)
from aderfv.weno import CellField, reconstruct


def nodal_data_from_field(system, field, M, dt):
    grid = build_grid(M, field.dx, dt)
    recon = reconstruct(field, M)
    w_nodal = recon.evaluate(grid.xi)
    dxw = recon.evaluate(grid.xi, l=1) / field.dx
    return grid, w_nodal, dxw


def exact_averages(exact, n, dx, x_left, t=0.0, m=2):
    xi, w = gauss_legendre(5, -0.5, 0.5)
    centers = x_left + (np.arange(n) + 0.5) * dx
    vals = np.asarray(exact(centers[:, None] + xi[None, :] * dx, t))
    return np.einsum("g,ngm->nm", w, vals)


def test_initial_guess_constant_data_source_free():
    system = linear_system(1.0, 0.0)   # B = 0, S = 0
    grid = build_grid(2, 0.1, 0.05)
    w = np.broadcast_to(np.array([0.7, -0.3])[:, None, None], (2, 3, 4)).copy()
    q = initial_guess(system, w, np.zeros_like(w), grid)
    assert np.allclose(q, w[:, :, None], atol=1e-14)


def test_initial_guess_linear_system_closed_form():
    lam, beta = 1.0, -2.0
    system = linear_system(lam, beta)
    grid = build_grid(2, 0.1, 0.02)
    rng = np.random.default_rng(1)
    w = rng.standard_normal((2, 3, 3))
    dxw = rng.standard_normal((2, 3, 3))
    q = initial_guess(system, w, dxw, grid)
    a_mat = np.array([[0.0, lam], [lam, 0.0]])
    for j, tau_ref in enumerate(grid.tau):
        tau = tau_ref * grid.dt
        want = (w - tau * np.tensordot(a_mat, dxw, axes=1)) / (1.0 - tau * beta)
        assert np.max(np.abs(q[:, :, j] - want)) < 1e-13


def test_initial_guess_vanishing_time_offset():
    system = leveque_yee_system(-100.0)
    grid = build_grid(1, 0.1, 1e-12)
    w = np.full((1, 2, 3), 0.3)
    dxw = np.full((1, 2, 3), 2.0)
    q = initial_guess(system, w, dxw, grid)
    assert np.max(np.abs(q - w[:, :, None])) < 1e-10


def test_initial_guess_preserves_nonlinear_equilibria():
    """Constant data at S(W) = 0 must give Q = W even though B(W) != 0."""
    system = leveque_yee_system(-10000.0)
    grid = build_grid(2, 1 / 300, 6.7e-4)
    for value in (0.0, 1.0):
        w = np.full((1, 3, 3), value)
        q = initial_guess(system, w, np.zeros_like(w), grid)
        assert np.max(np.abs(q - value)) < 1e-13


def test_initial_guess_falls_back_near_singular_linearization():
    """tau*B -> 1 makes the solve amplify; those nodes return W."""
    system = leveque_yee_system(-10000.0)
    # B(0.65) = +1825, choose dt so tau*B is essentially 1 at some node
    grid = build_grid(1, 1 / 300, 2.0 / 1825.07)
    w = np.full((1, 2, 1), 0.65)
    q = initial_guess(system, w, np.zeros_like(w), grid)
    assert np.all(np.isfinite(q))
    assert np.max(np.abs(q - 0.65)) < 10.0 * (1.0 + 0.65) + 1e-9


def test_initial_guess_warns_when_every_node_is_singular():
    """[I - tau B] singular at all nodes warns as it does at some of them.

    M = 1 has the single time node tau = 1/2, so B = 2/dt makes every 1x1
    matrix exactly zero (B = 4096 at q = 1/2 for beta = -16384; powers of
    two keep tau dt B exactly 1)."""
    system = leveque_yee_system(-16384.0)
    grid = build_grid(1, 0.1, 2.0 / 4096.0)
    w = np.full((1, 2, 3), 0.5)
    assert np.all(system.source_jacobian(w) == 4096.0)
    with pytest.warns(UserWarning, match="stiff-initialization failure"):
        q = initial_guess(system, w, np.zeros_like(w), grid)
    assert np.array_equal(q, w[:, :, None])
    w[:, 0, 0] = 0.0                  # B = -8192 there: one solvable node
    with pytest.warns(UserWarning, match="stiff-initialization failure"):
        q = initial_guess(system, w, np.zeros_like(w), grid)
    assert np.array_equal(q[..., 1:], w[:, :, None, 1:])
    assert np.all(np.isfinite(q))


def test_populate_stacks_constant_state():
    system = euler_system(1.4)
    grid = build_grid(3, 0.1, 0.05)
    q0 = euler_primitive_to_conserved(np.array([1.0, 1.0, 2.0]), 1.4)
    q = np.broadcast_to(q0[:, None, None, None], (3, 4, 3, 2)).copy()
    stack = populate_stacks(system, q, grid)
    # scaled derivatives amplify round-off by dx**-l
    scale = np.abs(q0).max()
    for l in range(1, 4):
        assert np.allclose(stack.dxQ[l], 0.0, atol=1e-12 * scale / 0.1**l)
    for l in range(1, 3):
        assert np.allclose(stack.dxA[l], 0.0, atol=1e-11 * scale / 0.1**l)
    assert stack.b_is_zero


def test_populate_stacks_gradient_accuracy():
    """Nodal gradients of sampled smooth data converge at order M."""
    system = linear_system(1.0, -1.0)
    errs = []
    for n in (16, 32):
        dx = 1.0 / n
        dt = 0.9 * dx
        grid = build_grid(2, dx, dt)
        centers = (np.arange(n) + 0.5) * dx
        x_nodes = centers[None, :] + grid.xi[:, None] * dx
        q_nodes = np.moveaxis(system.exact_solution(x_nodes, 0.0), -1, 0)
        q = np.broadcast_to(q_nodes[:, :, None], (2, 3, grid.n_time, n)).copy()
        stack = populate_stacks(system, q, grid)
        two_pi = 2 * np.pi
        want = np.stack([two_pi * np.cos(two_pi * x_nodes),
                         -two_pi * np.sin(two_pi * x_nodes)])
        errs.append(np.max(np.abs(stack.dxQ[1] - want[:, :, None])))
    order = math.log2(errs[0] / errs[1])
    assert order > 1.6    # >= M for sampled data (interior superconvergence)


def test_populate_stacks_euler_jacobian_gradient_fd():
    system = euler_system(1.4)
    n, dx = 24, 1.0 / 24
    grid = build_grid(2, dx, 0.01)
    centers = (np.arange(n) + 0.5) * dx
    x_nodes = centers[None, :] + grid.xi[:, None] * dx
    def states(x):
        return np.moveaxis(system.exact_solution(x, 0.0), -1, 0)

    q = np.broadcast_to(states(x_nodes)[:, :, None], (3, 3, 2, n)).copy()
    stack = populate_stacks(system, q, grid)
    h = 1e-6
    a_plus = system.flux_jacobian(states(x_nodes + h))
    a_minus = system.flux_jacobian(states(x_nodes - h))
    want = (a_plus - a_minus) / (2 * h)
    err = np.max(np.abs(stack.dxA[1] - want[:, :, :, None]))
    assert err < 0.5 * np.max(np.abs(want))   # O(dx^(M-1)) interpolation


def test_residual_zero_time_offset_recovers_reconstruction():
    """With tau = 0 the algebraic system forces Y = W regardless of stacks."""
    system = linear_system(1.0, -1.0)
    grid = build_grid(2, 0.1, 0.05)
    rng = np.random.default_rng(3)
    w = rng.standard_normal((2, 3, 2))
    q = rng.standard_normal((2, 3, 2, 2))
    stack = populate_stacks(system, q, grid)
    C = matrix_c(stack, 2, grid)
    h, jac = residual_and_jacobian(stack, C, w, np.zeros(grid.n_time), 2)
    assert np.allclose(h, q - w[:, :, None])
    assert np.allclose(jac, np.eye(2)[:, :, None, None, None])


def test_newton_sweep_source_free_is_explicit_taylor():
    system = linear_system(1.0, 0.0)
    grid = build_grid(2, 0.05, 0.02)
    rng = np.random.default_rng(4)
    w = rng.standard_normal((2, 3, 3))
    q = w[:, :, None] + 0.01 * rng.standard_normal((2, 3, grid.n_time, 3))
    stack = populate_stacks(system, q, grid)
    C = matrix_c(stack, 2, grid)
    q_new, res = newton_sweep(stack, C, w, grid)
    dtq = taylor_terms(stack, C, 2)
    tau = grid.tau * grid.dt
    want = np.broadcast_to(w[:, :, None], q.shape).astype(float).copy()
    for k in (1, 2):
        ck = ((-tau) ** k / math.factorial(k))[:, None]
        want = want - ck * dtq[k]
    assert np.max(np.abs(q_new - want)) < 1e-13


def test_predictor_constant_data_all_orders():
    system = euler_system(1.4)
    q0 = euler_primitive_to_conserved(np.array([1.3, 0.4, 2.2]), 1.4)
    for M in (1, 2, 3, 4):
        grid = build_grid(M, 0.1, 0.05)
        w = np.broadcast_to(q0[:, None, None], (3, M + 1, 3)).copy()
        q, _, _ = predictor_solve(system, w, np.zeros_like(w), grid)
        assert np.max(np.abs(q - q0[:, None, None, None])) < 1e-13


def test_predictor_equilibrium_preservation_stiff():
    system = leveque_yee_system(-10000.0)
    grid = build_grid(3, 1 / 300, 0.2 / 300)
    w = np.ones((1, 4, 4))
    q, _, _ = predictor_solve(system, w, np.zeros_like(w), grid)
    assert np.max(np.abs(q - 1.0)) < 1e-14


def test_predictor_m1_linear_fixed_point_residual():
    """The single Newton step solves the (affine) algebraic system exactly."""
    lam, beta = 1.0, -1.0
    system = linear_system(lam, beta)
    n, dx = 32, 1.0 / 32
    dt = 0.9 * dx
    field = CellField(n, dx, 0.0, exact_averages(system.exact_solution, n, dx, 0.0))
    grid, w_nodal, dxw = nodal_data_from_field(system, field, 1, dt)
    q, _, _ = predictor_solve(system, w_nodal, dxw, grid)
    a_mat = np.array([[0.0, lam], [lam, 0.0]])
    tau = grid.tau[0] * grid.dt
    # the single sweep (M = 1) freezes dxQ at the initial guess
    q_old = initial_guess(system, w_nodal, dxw, grid)
    dxq_old = populate_stacks(system, q_old, grid).dxQ[1]
    resid = q - w_nodal[:, :, None] \
        + tau * (np.tensordot(a_mat, dxq_old, axes=1) - beta * q)
    assert np.max(np.abs(resid)) < 1e-10


def test_predictor_source_free_equals_explicit_taylor_pipeline():
    """With S = 0 the implicit solve reduces to the explicit CK predictor."""
    system = linear_system(1.0, 0.0)
    n, dx = 24, 1.0 / 24
    dt = 0.5 * dx
    field = CellField(n, dx, 0.0, exact_averages(system.exact_solution, n, dx, 0.0))
    grid, w_nodal, dxw = nodal_data_from_field(system, field, 2, dt)
    q_solved, _, _ = predictor_solve(system, w_nodal, dxw, grid)

    # independent explicit iteration with the same structure
    q = initial_guess(system, w_nodal, dxw, grid)
    tau = grid.tau * grid.dt
    for _ in range(2):
        stack = populate_stacks(system, q, grid)
        C = matrix_c(stack, 2, grid)
        dtq = taylor_terms(stack, C, 2)
        q_next = np.broadcast_to(w_nodal[:, :, None], q.shape).astype(float).copy()
        for k in (1, 2):
            ck = ((-tau) ** k / math.factorial(k))[:, None]
            q_next = q_next - ck * dtq[k]
        q = q_next
    assert np.max(np.abs(q_solved - q)) < 1e-12


@pytest.mark.parametrize("M,min_order", [(2, 2.5)])
def test_predictor_eoc_linear_system(M, min_order):
    """Nodal predictor error decays at order M+1 for smooth data."""
    system = linear_system(1.0, -1.0)
    errs = []
    for n in (32, 64):
        dx = 1.0 / n
        dt = 0.9 * dx
        field = CellField(n, dx, 0.0,
                          exact_averages(system.exact_solution, n, dx, 0.0))
        grid, w_nodal, dxw = nodal_data_from_field(system, field, M, dt)
        q, _, _ = predictor_solve(system, w_nodal, dxw, grid)
        centers = field.cell_centers()
        x_nodes = centers[None, :] + grid.xi[:, None] * dx
        err = 0.0
        for j, tau in enumerate(grid.tau):
            vals = np.moveaxis(system.exact_solution(x_nodes, tau * dt), -1, 0)
            err = max(err, np.max(np.abs(q[:, :, j] - vals)))
        errs.append(err)
    order = math.log2(errs[0] / errs[1])
    assert order >= min_order


def test_predictor_eoc_euler_fifth_order():
    system = euler_system(1.4)
    M = 4
    errs = []
    for n in (16, 32):
        dx = 1.0 / n
        dt = 0.3 * dx
        field = CellField(n, dx, 0.0,
                          exact_averages(system.exact_solution, n, dx, 0.0,
                                         m=3))
        grid, w_nodal, dxw = nodal_data_from_field(system, field, M, dt)
        q, _, _ = predictor_solve(system, w_nodal, dxw, grid)
        centers = field.cell_centers()
        x_nodes = centers[None, :] + grid.xi[:, None] * dx
        err = 0.0
        for j, tau in enumerate(grid.tau):
            vals = np.moveaxis(system.exact_solution(x_nodes, tau * dt), -1, 0)
            err = max(err, np.max(np.abs(q[:, :, j] - vals)))
        errs.append(err)
    order = math.log2(errs[0] / errs[1])
    assert order >= 4.2


def final_residual(system, q, w_nodal, grid):
    """Max-norm residual of the iterate q over all cells."""
    stack = populate_stacks(system, q, grid)
    C = matrix_c(stack, grid.M, grid)
    h, _ = residual_and_jacobian(stack, C, w_nodal, grid.tau * grid.dt, grid.M)
    return float(np.max(np.abs(h)))


def test_predictor_residuals_monitored_and_decreasing():
    system = leveque_yee_system(-100.0)
    n, dx = 50, 1.0 / 50
    dt = 0.2 * dx
    rng = np.random.default_rng(8)
    avg = 0.5 + 0.4 * np.sin(2 * np.pi * (np.arange(n) + 0.5) / n)[:, None]
    field = CellField(n, dx, 0.0, avg, "transmissive")
    grid, w_nodal, dxw = nodal_data_from_field(system, field, 3, dt)
    q, plain, unverified = predictor_solve(system, w_nodal, dxw, grid)
    q_again, again, _ = predictor_solve(system, w_nodal, dxw, grid)
    final = final_residual(system, q, w_nodal, grid)
    assert np.array_equal(q_again, q)
    assert again == plain
    monitored = plain + [final]
    for a, b in zip(monitored[:-1], monitored[1:]):
        assert b <= a * (1 + 1e-9)
    # a batch with no unverified cell ends at the tolerance everywhere
    assert unverified > 0 or final <= PredictorConfig().residual_tol


def test_predictor_stiff_node_residual_small():
    """Near-equilibrium stiff relaxation is solved to tight residuals.

    The sweeps contract the residual by a large factor; data within 1e-6 of
    the stable state reaches the 1e-8 level within the M-sweep budget.
    """
    system = leveque_yee_system(-10000.0)
    n, dx = 20, 1.0 / 300
    dt = 0.2 * dx
    rng = np.random.default_rng(11)
    avg = 1.0 - 1e-6 * rng.random((n, 1))
    field = CellField(n, dx, 0.0, avg, "transmissive")
    grid, w_nodal, dxw = nodal_data_from_field(system, field, 3, dt)
    q, residuals, _ = predictor_solve(system, w_nodal, dxw, grid)
    final = final_residual(system, q, w_nodal, grid)
    assert final < 1e-8
    assert final < residuals[0] / 50.0


def test_predictor_early_exit_is_per_cell():
    """Partitioning the batch must not change results (early exit per cell),
    down to blocks of a single cell."""
    system = leveque_yee_system(-1000.0)
    n, dx = 40, 1.0 / 40
    dt = 0.2 * dx
    avg = np.where(np.arange(n) < 20, 1.0, 0.0)[:, None]
    field = CellField(n, dx, 0.0, avg, "transmissive")
    for M in (2, 3, 4):
        grid, w_nodal, dxw = nodal_data_from_field(system, field, M, dt)
        full, _, _ = predictor_solve(system, w_nodal, dxw, grid)
        for bounds in ((0, 13, 29, 40), tuple(range(n + 1))):
            parts = [predictor_solve(system, w_nodal[..., a:b],
                                     dxw[..., a:b], grid)[0]
                     for a, b in zip(bounds[:-1], bounds[1:])]
            assert np.array_equal(full, np.concatenate(parts, axis=-1)), M


def _full_batch_solve(system, w_nodal, dxw, grid, tol):
    """Reference sweep loop: every sweep evaluates every cell, and a mask
    keeps the values of the cells that have converged.  Returns Q, the
    trace and the number of cells the mask still holds at the end."""
    q = initial_guess(system, w_nodal, dxw, grid)
    residuals = []
    active = np.ones(q.shape[-1], dtype=bool)
    for _ in range(grid.M):
        if not active.any():
            break
        stack = populate_stacks(system, q, grid)
        C = matrix_c(stack, grid.M, grid)
        q_new, cell_res = newton_sweep(stack, C, w_nodal, grid)
        residuals.append(float(cell_res.max()))
        active = active & (cell_res > tol)
        q = np.where(active, q_new, q)
    return q, residuals, int(active.sum())


def _stiff_pulse_data(M):
    """LeVeque-Yee (beta = -1000) pulse between stable states whose two
    front cells hold partial averages: only those cells outlast sweep 1."""
    system = leveque_yee_system(-1000.0)
    n, dx = 120, 1.0 / 120
    avg = np.zeros((n, 1))
    avg[30:90] = 1.0
    avg[29], avg[90] = 0.3, 0.7
    field = CellField(n, dx, 0.0, avg, "transmissive")
    return (system,) + nodal_data_from_field(system, field, M, 0.2 * dx)


@pytest.fixture(scope="module")
def shu_osher_field():
    """Averages of the Shu-Osher run after 10 steps on 100 cells."""
    case = make_case("shu-osher")
    return case.system, run(build_config(case, order=3, cells=100,
                                         t_out=0.02)).field


def _shu_osher_data(system_and_field, M):
    system, field = system_and_field
    dt = cfl_timestep(field, system, 0.5)
    return (system,) + nodal_data_from_field(system, field, M, dt)


def _predictor_cases(shu_osher_field):
    for M in (1, 2, 3, 4):
        yield f"stiff pulse M={M}", _stiff_pulse_data(M)
    yield "shu-osher M=2", _shu_osher_data(shu_osher_field, 2)
    # stable equilibrium: every cell converges in sweep 1
    system = leveque_yee_system(-1000.0)
    grid = build_grid(3, 1 / 120, 0.2 / 120)
    w = np.ones((1, 4, 6))
    yield "equilibrium", (system, grid, w, np.zeros_like(w))
    yield "no cells", (system, grid, w[..., :0], w[..., :0])


def test_predictor_matches_full_batch_oracle(shu_osher_field):
    """Evaluating only the cells still updating changes no value: Q is
    bitwise equal to the full-batch loop's, each trace entry above the
    tolerance is equal (at or below it both are), and so is the number of
    cells still updating after the last sweep."""
    tol = PredictorConfig().residual_tol
    for name, (system, grid, w_nodal, dxw) in _predictor_cases(shu_osher_field):
        q, trace, unverified = predictor_solve(system, w_nodal, dxw, grid)
        q_ref, trace_ref, unverified_ref = _full_batch_solve(
            system, w_nodal, dxw, grid, tol)
        assert np.array_equal(q, q_ref), name
        assert unverified == unverified_ref, name
        assert len(trace) == len(trace_ref), name
        for got, want in zip(trace, trace_ref):
            if want > tol:
                assert got == want, name
            else:
                assert got <= tol, name
        if name == "equilibrium":
            assert len(trace) == 1 and unverified == 0
        if name == "no cells":
            assert trace == [] and q.shape == (1, 4, grid.n_time, 0)


@pytest.mark.parametrize("data", ["stiff pulse", "shu-osher"])
def test_predictor_sweeps_receive_only_updating_cells(monkeypatch, data,
                                                      shu_osher_field):
    """Sweep k+1 gets exactly the rows whose sweep-k residual exceeded the
    tolerance, carrying the values sweep k produced for them."""
    system, grid, w_nodal, dxw = (_stiff_pulse_data(3) if data == "stiff pulse"
                                  else _shu_osher_data(shu_osher_field, 3))
    tol = PredictorConfig().residual_tol
    calls = []

    def spy(stack, C, w, grid, cells=None):
        q_new, cell_res = newton_sweep(stack, C, w, grid, cells)
        calls.append((stack.Q.copy(), w.copy(), q_new, cell_res))
        return q_new, cell_res

    monkeypatch.setattr(predictor, "newton_sweep", spy)
    predictor_solve(system, w_nodal, dxw, grid)
    assert len(calls) == 3
    rows = np.arange(w_nodal.shape[-1])
    assert np.array_equal(calls[0][1], w_nodal)
    for (_, _, q_prev, res_prev), (q_in, w_in, _, _) in zip(calls, calls[1:]):
        kept = res_prev > tol
        rows = rows[kept]
        assert 0 < rows.size < w_nodal.shape[-1]
        assert np.array_equal(w_in, w_nodal[..., rows])
        assert np.array_equal(q_in, q_prev[..., kept])


def test_predictor_writes_only_owned_cells():
    """Owning a non-contiguous set of cells (every third cell plus the two
    front cells, which outlast sweep 1) writes exactly those columns of
    ``out``, each bitwise the all-cells solve's, and leaves the others as
    they were."""
    system, grid, w_nodal, dxw = _stiff_pulse_data(3)
    full, _, _ = predictor_solve(system, w_nodal, dxw, grid)
    cells = np.union1d(np.arange(0, 120, 3), [29, 90])
    out = np.full_like(full, np.nan)
    got, trace, _ = predictor_solve(system, w_nodal, dxw, grid, cells=cells,
                                    out=out)
    assert got is out and len(trace) > 1
    owned = np.zeros(120, dtype=bool)
    owned[cells] = True
    assert np.array_equal(out[..., owned], full[..., owned])
    assert np.isnan(out[..., ~owned]).all()


@pytest.mark.parametrize("data", ["stiff pulse", "shu-osher"])
def test_predictor_stacks_receive_contiguous_states(monkeypatch, data,
                                                    shu_osher_field):
    """Every sweep's Q reaches ``populate_stacks`` C-contiguous, also after
    cells drop out: a gather that leaves the cell axis strided would slow
    every later product of the sweep."""
    system, grid, w_nodal, dxw = (_stiff_pulse_data(3) if data == "stiff pulse"
                                  else _shu_osher_data(shu_osher_field, 3))
    sizes = []

    def spy(system, Q, grid):
        assert Q.flags.c_contiguous
        sizes.append(Q.shape[-1])
        return populate_stacks(system, Q, grid)

    monkeypatch.setattr(predictor, "populate_stacks", spy)
    predictor_solve(system, w_nodal, dxw, grid)
    assert len(sizes) == 3 and sizes[0] > sizes[1] > 0


def test_predictor_error_locates_cell_in_batch(monkeypatch):
    """A singular Newton system in a later sweep names the cell by its index
    in the batch, not by its row among the cells still updating."""
    system, grid, w_nodal, dxw = _stiff_pulse_data(2)
    target = 90     # a front cell, still updating in sweep 2
    sweeps = []

    def singular_at_target(stack, C, w, tau_phys, M):
        h, jac = residual_and_jacobian(stack, C, w, tau_phys, M)
        sweeps.append(w.shape[-1])
        if len(sweeps) == 2:
            rows = np.all(w == w_nodal[..., target, None], axis=(0, 1))
            jac = np.where(rows, 0.0, jac)
        return h, jac

    monkeypatch.setattr(predictor, "residual_and_jacobian", singular_at_target)
    with pytest.raises(PredictorError) as err:
        predictor_solve(system, w_nodal, dxw, grid)
    assert sweeps[1] < w_nodal.shape[-1]
    assert set(err.value.nodes[:, 0].tolist()) == {target}
    assert f"[{target}, 0, 0]" in str(err.value)


def test_zero_scalar_jacobian_names_its_node(monkeypatch):
    """A 1x1 Newton system that is exactly zero raises PredictorError with
    its (cell, space node, time node)."""
    system, grid, w_nodal, dxw = _stiff_pulse_data(2)
    node = (90, 1, 0)

    def zero_at_node(stack, C, w, tau_phys, M):
        h, jac = residual_and_jacobian(stack, C, w, tau_phys, M)
        jac = jac.copy()
        cell, space, time = node
        jac[:, :, space, time, cell] = 0.0
        return h, jac

    monkeypatch.setattr(predictor, "residual_and_jacobian", zero_at_node)
    stack = populate_stacks(system, initial_guess(system, w_nodal, dxw, grid),
                            grid)
    C = matrix_c(stack, grid.M, grid)
    with pytest.raises(PredictorError) as err:
        newton_sweep(stack, C, w_nodal, grid)
    assert err.value.nodes.tolist() == [list(node)]
    assert "[90, 1, 0]" in str(err.value)
