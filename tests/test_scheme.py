"""Finite-volume update: fluxes, source quadrature, CFL, marching loop."""
import dataclasses
import math
import platform
import threading
import time

import numpy as np
import pytest

from aderfv import cli, predictor, scheme
from aderfv.harness import build_config, make_case
from aderfv.nodes import build_grid, newton_cotes_weights
from aderfv.predictor import (PredictorConfig, PredictorError,
                              predictor_solve, residual_and_jacobian)
from aderfv.scheme import (RunConfig, SchemeError, cell_source, cfl_timestep,
                           interface_flux, nodal_solution, project_initial,
                           run, rusanov_flux, step, transition_cells)
from aderfv.systems import (HyperbolicSystem, InadmissibleStateError,
                            euler_primitive_to_conserved, euler_system,
                            leveque_yee_system, linear_system)
from aderfv.weno import CellField, ReconstructionSet, reconstruct_padded


def scalar_advection():
    """q_t + q_x = 0 (unit speed), for upwinding checks."""
    return HyperbolicSystem(
        name="advection", m=1,
        flux=lambda q: q.copy(),
        source=lambda q: np.zeros_like(q),
        flux_jacobian=lambda q: np.ones((1,) + q.shape),
        source_jacobian=lambda q: np.zeros((1,) + q.shape),
        eigenvalues=lambda q: np.ones(q.shape),
        exact_solution=None)


def test_rusanov_consistency():
    system = linear_system(1.0, -1.0)
    q = np.array([[0.4], [-1.2]])
    assert np.allclose(rusanov_flux(q, q, system), system.flux(q))


def test_rusanov_scalar_advection_is_upwind():
    system = scalar_advection()
    ql = np.array([[0.8]])
    qr = np.array([[0.1]])
    assert np.allclose(rusanov_flux(ql, qr, system), ql)


def test_rusanov_linear_system_arithmetic():
    system = linear_system(1.0, -1.0)
    ql = np.array([[1.0], [0.0]])
    qr = np.array([[0.0], [1.0]])
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    want = 0.5 * (a @ ql + a @ qr) - 0.5 * (qr - ql)
    assert np.allclose(rusanov_flux(ql, qr, system), want)


def test_rusanov_rejects_inadmissible_euler_state():
    system = euler_system(1.4)
    good = euler_primitive_to_conserved(np.array([[1.0, 0.0, 1.0]]), 1.4).T
    bad = np.array([[1.0], [10.0], [1.0]])
    with pytest.raises(InadmissibleStateError):
        rusanov_flux(good, bad, system)


def test_interface_flux_constant_traces():
    system = linear_system(1.0, -1.0)
    grid = build_grid(3, 0.1, 0.02)
    q = np.array([0.3, 0.7])
    traces = np.broadcast_to(q[:, None, None], (2, grid.n_time, 5)).copy()
    got = interface_flux(traces, traces, system, grid)
    assert got.shape == (2, 5)
    assert np.allclose(got, system.flux(q)[:, None])


def test_interface_flux_single_time_node():
    system = scalar_advection()
    grid = build_grid(1, 0.1, 0.02)
    left = np.array([[[0.9]]])
    right = np.array([[[0.2]]])
    got = interface_flux(left, right, system, grid)
    assert np.allclose(got, rusanov_flux(left[:, 0], right[:, 0], system))


def test_interface_flux_quadrature_accuracy():
    """Gauss time-averaging reproduces the exact flux time integral."""
    from aderfv.nodes import gauss_legendre

    system = linear_system(1.0, 0.0)
    dt = 0.01
    x0 = 0.37
    # n_T-point Gauss integrates to O(dt^(2 n_T)); dt = 1e-2 puts those
    # levels around 1e-8 (M=2) and 1e-12 (M=3) for the trigonometric flux
    for M, tol in ((2, 1e-8), (3, 1e-11)):
        grid = build_grid(M, 0.1, dt)
        traces = np.stack([system.exact_solution(x0, tj * dt)
                           for tj in grid.tau], axis=-1)[:, :, None]
        got = interface_flux(traces, traces, system, grid)
        tt, ww = gauss_legendre(12, 0.0, dt)
        want = sum(w * system.flux(system.exact_solution(x0, ti))
                   for ti, w in zip(tt, ww)) / dt
        assert np.max(np.abs(got[:, 0] - want)) < tol


def test_cell_source_zero_source():
    system = euler_system(1.4)
    grid = build_grid(2, 0.1, 0.02)
    q = np.ones((3, 3, grid.n_time, 4))
    assert np.allclose(cell_source(q, system, grid), 0.0)


def test_cell_source_identity_source_constant_state():
    """Order-3 weights (1,4,1)/6 integrate a constant exactly."""
    ident = HyperbolicSystem(
        name="ident", m=2,
        flux=lambda q: np.zeros_like(q),
        source=lambda q: q.copy(),
        flux_jacobian=lambda q: np.zeros((2,) + q.shape),
        source_jacobian=lambda q: np.multiply.outer(np.eye(2),
                                                    np.ones(q.shape[1:])),
        eigenvalues=lambda q: np.ones(q.shape))
    grid = build_grid(2, 0.1, 0.02)
    c = np.array([1.5, -2.0])
    q = np.broadcast_to(c[:, None, None, None], (2, 3, grid.n_time, 3)).copy()
    got = cell_source(q, ident, grid)
    assert np.allclose(got, c[:, None], atol=1e-14)


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_cell_source_matches_literal_quadrature(M):
    """cell_source is sum_s sum_j w_s w_j S(q[s, j, n]) per cell, to
    rounding (Newton-Cotes weights in space, Gauss weights in time)."""
    system = leveque_yee_system(-1000.0)
    grid = build_grid(M, 0.1, 0.02)
    rng = np.random.default_rng(M)
    q = rng.random((1, len(grid.xi), grid.n_time, 6))
    s_nodal = system.source(q)
    w_space = newton_cotes_weights(M + 1)
    want = np.zeros((1, 6))
    for a in range(len(grid.xi)):
        for j in range(grid.n_time):
            want += w_space[a] * grid.tau_weights[j] * s_nodal[:, a, j]
    got = cell_source(q, system, grid)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_cfl_timestep_arithmetic():
    system = scalar_advection()
    field = CellField(100, 0.01, 0.0, np.ones((100, 1)))
    assert abs(cfl_timestep(field, system, 0.9) - 9e-3) < 1e-15


def test_cfl_timestep_euler_field():
    system = euler_system(1.4)
    x = np.linspace(0.005, 0.995, 100)
    field = CellField(100, 0.01, 0.0, system.exact_solution(x, 0.0))
    prim_rho = field.averages[:, 0]
    lam = np.max(1.0 + np.sqrt(1.4 * 2.0 / prim_rho))
    # cell averages of rho enter both sides identically up to projection
    got = cfl_timestep(field, system, 0.9)
    assert abs(got - 0.9 * 0.01 / np.max(np.abs(system.eigenvalues(field.averages.T)))) < 1e-15
    assert got == pytest.approx(0.9 * 0.01 / lam, rel=1e-2)


def test_cfl_timestep_rejects_zero_wave_speed():
    still = HyperbolicSystem(
        name="still", m=1,
        flux=lambda q: np.zeros_like(q),
        source=lambda q: np.zeros_like(q),
        flux_jacobian=lambda q: np.zeros((1,) + q.shape),
        source_jacobian=lambda q: np.zeros((1,) + q.shape),
        eigenvalues=lambda q: np.zeros(q.shape))
    field = CellField(10, 0.1, 0.0, np.ones((10, 1)))
    with pytest.raises(ValueError):
        cfl_timestep(field, still, 0.5)


def make_config(system, initial, order, cells, **kw):
    defaults = dict(x_left=0.0, x_right=1.0, t_out=1.0, cfl=0.9,
                    boundary="periodic")
    defaults.update(kw)
    return RunConfig(system=system, initial=initial, M=order - 1,
                     n_cells=cells, **defaults)


def test_run_config_validation():
    system = linear_system(1.0, -1.0)
    init = lambda x: system.exact_solution(x, 0.0)
    with pytest.raises(ValueError):
        make_config(system, init, 6, 16)
    with pytest.raises(ValueError):
        make_config(system, init, 3, 16, cfl=1.5)
    with pytest.raises(ValueError):
        make_config(system, init, 3, 16, t_out=-1.0)
    with pytest.raises(ValueError):
        make_config(system, init, 3, 2)
    with pytest.raises(ValueError):
        make_config(system, init, 3, 16, x_right=-1.0)


def test_project_initial_gauss_accuracy():
    init = lambda x: np.stack([x**4, np.sin(2 * np.pi * x)], axis=-1)
    field = project_initial(init, 64, 0.0, 1 / 64)
    # 5-point Gauss is exact for x^4
    centers = field.cell_centers()
    dx = field.dx
    exact4 = ((centers + dx / 2) ** 5 - (centers - dx / 2) ** 5) / (5 * dx)
    assert np.max(np.abs(field.averages[:, 0] - exact4)) < 1e-15


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_step_preserves_equilibrium(order):
    """Constant data at an equilibrium is a fixed point of the update."""
    system = leveque_yee_system(-500.0)
    field = CellField(24, 1 / 24, 0.0, np.ones((24, 1)), "transmissive")
    cfg = make_config(system, lambda x: np.ones(x.shape + (1,)), order, 24,
                      boundary="transmissive", cfl=0.2)
    new, _ = step(field, cfg, cfl_timestep(field, system, 0.2))
    assert np.max(np.abs(new.averages - 1.0)) < 1e-14

    euler = euler_system(1.4)
    q0 = euler_primitive_to_conserved(np.array([1.1, 0.7, 1.9]), 1.4)
    field_e = CellField(24, 1 / 24, 0.0, np.broadcast_to(q0, (24, 3)).copy())
    cfg_e = make_config(euler, None, order, 24)
    new_e, _ = step(field_e, cfg_e, 1e-3)
    assert np.max(np.abs(new_e.averages - q0)) < 1e-14


def test_periodic_conservation_zero_source():
    system = linear_system(1.0, 0.0)
    cfg = make_config(system, lambda x: system.exact_solution(x, 0.0), 3, 32,
                      t_out=0.3)
    field = project_initial(cfg.initial, 32, 0.0, cfg.dx)
    total0 = field.averages.sum(axis=0) * cfg.dx
    for _ in range(20):
        field, _ = step(field, cfg, cfl_timestep(field, system, 0.9))
        total = field.averages.sum(axis=0) * cfg.dx
        assert np.max(np.abs(total - total0)) < 1e-12


def test_single_step_truncation_second_order():
    system = linear_system(1.0, -1.0)
    errs = []
    for n in (64, 128):
        cfg = make_config(system, lambda x: system.exact_solution(x, 0.0), 2, n)
        field = project_initial(cfg.initial, n, 0.0, cfg.dx)
        dt = cfl_timestep(field, system, 0.9)
        new, _ = step(field, cfg, dt)
        exact_avg = project_initial(
            lambda x: system.exact_solution(x, dt), n, 0.0, cfg.dx).averages
        errs.append(np.max(np.abs(new.averages - exact_avg)))
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.8


def test_run_reaches_output_time_exactly_with_clipped_step():
    system = linear_system(1.0, -1.0)
    cfg = make_config(system, lambda x: system.exact_solution(x, 0.0), 2, 16,
                      t_out=0.0301)
    res = run(cfg)
    assert abs(res.t_final - cfg.t_out) < 1e-12
    assert res.n_steps >= 1


def test_run_zero_output_time_returns_projection():
    system = linear_system(1.0, -1.0)
    cfg = make_config(system, lambda x: system.exact_solution(x, 0.0), 3, 16,
                      t_out=0.0)
    res = run(cfg)
    want = project_initial(cfg.initial, 16, 0.0, cfg.dx).averages
    assert np.array_equal(res.field.averages, want)
    assert res.n_steps == 0


def test_run_verbose_log_lines(tmp_path, capsys):
    """One record per step, ending at t_final; ``--verbose`` prints each
    as a ``t dt lambda_abs`` line on stderr."""
    system = linear_system(1.0, -1.0)
    cfg = make_config(system, lambda x: system.exact_solution(x, 0.0), 2, 16,
                      t_out=0.2)
    res = run(cfg)
    assert len(res.steps) == res.n_steps > 1
    first, last = res.steps[0], res.steps[-1]
    assert first.t == 0.0 and first.dt > 0.0 and abs(first.lam - 1.0) < 1e-12
    assert last.t + last.dt == res.t_final
    for a, b in zip(res.steps, res.steps[1:]):
        assert a.t + a.dt == b.t

    argv = ["solve", "--system", "linear", "--order", "2", "--cells", "16",
            "--tout", "0.2", "--out", str(tmp_path), "--verbose"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().err.splitlines()
    cli_res = run(build_config(make_case("linear"), order=2, cells=16,
                               t_out=0.2))
    assert lines == [f"{s.t:.8e} {s.dt:.8e} {s.lam:.8e}"
                     for s in cli_res.steps]
    t, dt, lam = (float(p) for p in lines[0].split())
    assert t == 0.0 and dt > 0.0 and abs(lam - 1.0) < 1e-12


def test_run_aborts_cleanly_on_nonfinite():
    """A non-finite average stops the march, naming the step and the cell."""
    system = scalar_advection()

    def initial(x):     # cell 10 of 20 holds NaN
        return np.where((x > 0.5) & (x < 0.55), np.nan, 0.0)[..., None]

    cfg = make_config(system, initial, 2, 20, t_out=0.3)
    with pytest.raises(SchemeError) as err:
        with np.errstate(invalid="ignore"):
            run(cfg)
    message = str(err.value)
    assert "after step 1 " in message
    assert "[10, 0]" in message


def test_run_stops_at_step_budget(monkeypatch):
    """A run takes at most ``scheme.MAX_STEPS`` steps: one that needs
    exactly that many completes, one that needs one more raises."""
    system = scalar_advection()

    def initial(x):
        return np.sin(2 * np.pi * x)[..., None]

    cfg = make_config(system, initial, 2, 20, t_out=0.2)
    n = run(cfg).n_steps
    assert n > 1
    monkeypatch.setattr(scheme, "MAX_STEPS", n)
    assert run(cfg).n_steps == n
    monkeypatch.setattr(scheme, "MAX_STEPS", n - 1)
    with pytest.raises(SchemeError, match=f"step budget {n - 1} exhausted"):
        run(cfg)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="needs glibc mallopt and getrusage")
def test_warm_run_keeps_heap_mapped():
    """A warm run does not fault its heap back in every step: run() keeps
    freed heap mapped (glibc's default policy costs hundreds of minor
    faults per step on this case)."""
    import resource
    case = make_case("shu-osher")
    cfg = build_config(case, 3, cells=400, t_out=0.01, n_threads=1)
    run(cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    result = run(cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert result.n_steps == 19
    assert faults / result.n_steps < 20


def test_bare_step_sets_heap_policy(monkeypatch):
    """A ``step`` called without ``run`` around it sets the allocator
    policy too, so direct callers measure what a run measures."""
    calls = []
    monkeypatch.setattr(scheme, "_keep_heap", lambda: calls.append(None))
    system = linear_system(1.0, -1.0)
    cfg = make_config(system, lambda x: system.exact_solution(x, 0.0), 2, 8)
    field = project_initial(cfg.initial, 8, 0.0, cfg.dx)
    step(field, cfg, 0.01)
    assert calls


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="needs glibc mallopt and getrusage")
def test_warm_threaded_run_starts_no_threads():
    """A warm two-thread run reuses its worker threads: a pool started
    every step maps new thread stacks and faults them in (about six minor
    faults per step on this case).  A warm run with one pool still takes
    up to about 25 faults in all, however long it is, so the run is long
    enough that these stay well below one per step."""
    import resource
    case = make_case("shu-osher")
    cfg = build_config(case, 3, cells=400, t_out=0.05, n_threads=2)
    run(cfg)
    threads = threading.active_count()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    result = run(cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert result.n_steps == 92
    assert threading.active_count() == threads
    assert faults / result.n_steps < 1


def test_transmissive_run_completes():
    system = leveque_yee_system(-1000.0)

    def initial(x):
        return np.where(x < 0.3, 1.0, 0.0)[..., None]

    cfg = make_config(system, initial, 3, 60, boundary="transmissive",
                      cfl=0.2, t_out=0.05)
    res = run(cfg)
    assert res.t_final == pytest.approx(0.05)
    assert np.all(res.field.averages >= -0.01)
    assert np.all(res.field.averages <= 1.01)


def test_thread_count_does_not_change_results():
    system = linear_system(1.0, -1.0)
    results = []
    for n_threads in (1, 4):
        cfg = make_config(system, lambda x: system.exact_solution(x, 0.0),
                          3, 32, t_out=0.1, n_threads=n_threads)
        results.append(run(cfg).field.averages)
    assert np.array_equal(results[0], results[1])


def test_residual_trace_kept_and_thread_independent():
    """Every run keeps a record per step with its predictor residuals; the
    merge of the per-block traces and counts gives the same records at any
    thread count."""
    case = make_case("leveque-yee", beta=-1000.0)
    records = []
    for n_threads in (1, 3):
        res = run(build_config(case, order=3, cells=120, n_threads=n_threads))
        assert len(res.steps) == res.n_steps > 0
        assert all(s.residuals for s in res.steps)
        records.append(res.steps)
    assert records[0] == records[1]


def test_thread_count_keeps_stiff_run_bitwise():
    """A stiff run, whose later sweeps evaluate only the cells still
    updating (down to a single cell), gives the same averages and step
    records at one and two threads."""
    case = make_case("leveque-yee", beta=-1000.0)
    one, two = (run(build_config(case, order=5, n_threads=n)) for n in (1, 2))
    assert one.n_steps == 450
    assert np.array_equal(one.field.averages, two.field.averages)
    assert one.steps == two.steps


def test_thread_count_keeps_euler_run_bitwise():
    """An m = 3 run gives the same averages and step records at one, two
    and three threads.  Its second sweeps evaluate only the cells still
    updating, a different set in each thread block, so the m x m algebra
    runs on batches that differ with the thread count."""
    case = make_case("shu-osher")
    one, *more = (run(build_config(case, 3, cells=200, t_out=0.05,
                                   n_threads=n)) for n in (1, 2, 3))
    assert one.n_steps == 46
    assert any(len(s.residuals) == 2 for s in one.steps)
    assert 0 < max(s.unverified_cells for s in one.steps) < 200
    for other in more:
        assert np.array_equal(other.field.averages, one.field.averages)
        assert other.steps == one.steps


@pytest.mark.parametrize("n_threads", [1, 3])
def test_unverified_cells_are_last_sweep_updates(monkeypatch, n_threads):
    """A step's ``unverified_cells`` is the number of cells whose residual in
    the last sweep of their batch was above the tolerance, counted here
    from the sweeps themselves."""
    tol = PredictorConfig().residual_tol
    last = threading.local()
    counts, lock = [], threading.Lock()
    real_sweep, real_solve = predictor.newton_sweep, scheme.predictor_solve
    real_step = scheme.step

    def sweep(*args):
        q_new, cell_res = real_sweep(*args)
        last.count = int(np.sum(cell_res > tol))
        return q_new, cell_res

    def solve(*args):
        last.count = 0
        out = real_solve(*args)
        with lock:
            counts[-1] += last.count
        return out

    def counting_step(*args):
        counts.append(0)
        return real_step(*args)

    monkeypatch.setattr(predictor, "newton_sweep", sweep)
    monkeypatch.setattr(scheme, "predictor_solve", solve)
    monkeypatch.setattr(scheme, "step", counting_step)
    case = make_case("leveque-yee", beta=-1000.0)
    res = run(build_config(case, order=3, cells=120, n_threads=n_threads))
    assert [s.unverified_cells for s in res.steps] == counts
    assert sum(counts) > 0


def test_unverified_cells_zero_at_equilibrium():
    system = leveque_yee_system(-1000.0)
    cfg = make_config(system, lambda x: np.ones(x.shape + (1,)), 3, 60,
                      boundary="transmissive", cfl=0.2, t_out=0.05)
    res = run(cfg)
    assert res.n_steps > 0
    assert all(s.unverified_cells == 0 for s in res.steps)


@pytest.mark.parametrize(
    "n_threads, beta, target, target_avg, transition_left",
    [pytest.param(n, -1000.0, 90, 0.7, False, id=str(n)) for n in (1, 2, 3)]
    # stiff: the front cell 29 is a transition cell; the target is a dip in
    # the plateau, so that no other cell has its node values
    + [pytest.param(n, -10000.0, 60, 0.999, True, id=f"transition-left-{n}")
       for n in (1, 2, 3)])
def test_predictor_error_names_mesh_cell(monkeypatch, n_threads, beta, target,
                                         target_avg, transition_left):
    """A singular Newton system in one cell is reported by its mesh index at
    any thread count, also when a transition cell to its left leaves a hole
    in the predictor's cell list."""
    n = 120
    avg = np.zeros((n, 1))
    avg[30:90] = 1.0
    avg[29], avg[90] = 0.3, 0.7
    avg[target] = target_avg
    field = CellField(n, 1.0 / n, 0.0, avg, "transmissive")
    cfg = make_config(leveque_yee_system(beta), None, 3, n,
                      boundary="transmissive", cfl=0.2, n_threads=n_threads)
    grid = build_grid(2, field.dx, 0.2 * field.dx)
    coeffs = reconstruct_padded(field.extended(3), 2)
    W = ReconstructionSet(2, coeffs).evaluate(grid.xi)
    flags = transition_cells(field, cfg.system, W, grid.dt)
    assert flags[:target + 1].any() == transition_left
    assert not flags[target + 1]
    w_target = W[..., target + 1]

    def singular_at_target(stack, C, w, tau_phys, M):
        h, jac = residual_and_jacobian(stack, C, w, tau_phys, M)
        rows = np.all(w == w_target[..., None], axis=(0, 1))
        assert rows.sum() <= 1
        return h, np.where(rows, 0.0, jac)

    monkeypatch.setattr(predictor, "residual_and_jacobian", singular_at_target)
    with pytest.raises(PredictorError) as err:
        nodal_solution(field, cfg, grid)
    assert set(err.value.nodes[:, 0].tolist()) == {target}


def test_predictor_error_waits_for_every_thread_block(monkeypatch):
    """An error in the first thread block is raised only once the other
    block has finished: no solve still runs after ``_predict`` raised."""
    finished = []

    def solve(system, W_nodal, dxW, grid, cfg, cells, out):
        if cells[0] == 0:     # the block holding cell 0
            raise PredictorError(np.array([[0, 0, 0]]))
        time.sleep(0.2)
        finished.append(True)
        return out, [0.0], 0

    monkeypatch.setattr(scheme, "predictor_solve", solve)
    cfg = make_config(linear_system(1.0, -1.0), None, 3, 8, n_threads=2)
    grid = build_grid(2, 0.1, 0.01)
    W_nodal = np.broadcast_to(np.arange(8.0), (2, 3, 8)).copy()
    out = np.empty((2, 3, grid.n_time, 8))
    with pytest.raises(PredictorError):
        scheme._predict(cfg, W_nodal, W_nodal, grid, np.arange(8), out)
    assert finished == [True]


def test_predictor_error_from_run_names_step_and_cell(monkeypatch):
    """A singular Newton system raised from run names the 1-based step it
    occurred in, besides the mesh cell."""
    n = 40
    system = leveque_yee_system(-1000.0)
    cfg = make_config(system, lambda x: system.exact_solution(x, 0.0), 3, n,
                      boundary="transmissive", cfl=0.2, t_out=0.1)
    steps = []
    real_step = scheme.step

    def counting_step(*args, **kwargs):
        steps.append(len(steps) + 1)
        return real_step(*args, **kwargs)

    def singular_from_step_3(stack, C, w, tau_phys, M):
        h, jac = residual_and_jacobian(stack, C, w, tau_phys, M)
        return h, jac if len(steps) < 3 else np.zeros_like(jac)

    monkeypatch.setattr(scheme, "step", counting_step)
    monkeypatch.setattr(predictor, "residual_and_jacobian", singular_from_step_3)
    with pytest.raises(PredictorError) as err:
        run(cfg)
    assert err.value.step == 3
    assert "in step 3 " in str(err.value)
    cells = err.value.nodes[:, 0]
    assert cells.min() >= -1 and cells.max() <= n


def test_thread_count_env_variable(monkeypatch):
    from aderfv.scheme import THREADS_ENV_VAR
    system = linear_system(1.0, -1.0)
    monkeypatch.setenv(THREADS_ENV_VAR, "3")
    cfg = make_config(system, lambda x: system.exact_solution(x, 0.0), 2, 16,
                      t_out=0.02)
    assert cfg.thread_count() == 3
    res = run(cfg)
    monkeypatch.setenv(THREADS_ENV_VAR, "1")
    res1 = run(cfg)
    assert np.array_equal(res.field.averages, res1.field.averages)
    monkeypatch.setenv(THREADS_ENV_VAR, "0")    # below 1: one thread
    assert cfg.thread_count() == 1


def stiff_front(beta, order, offset=0.0):
    """LeVeque-Yee step at x0 = 0.3 + offset*dx, criterion-4 mesh and CFL."""
    x0 = 0.3 + offset / 300
    return make_config(leveque_yee_system(beta),
                       lambda x: np.where(x < x0, 1.0, 0.0)[..., None],
                       order, 300, boundary="transmissive", cfl=0.2,
                       t_out=0.3)


def first_step_nodes(cfg):
    """Initial field, node grid of the first step and the WENO node values."""
    field = project_initial(cfg.initial, cfg.n_cells, cfg.x_left, cfg.dx,
                            cfg.boundary)
    grid = build_grid(cfg.M, cfg.dx, cfl_timestep(field, cfg.system, cfg.cfl))
    coeffs = reconstruct_padded(field.extended(cfg.M + 1), cfg.M)
    recon = ReconstructionSet(cfg.M, coeffs)
    W = recon.evaluate(grid.xi)
    dxW = recon.evaluate(grid.xi, l=1) / cfg.dx
    return field, grid, W, dxW


def test_transition_cells_skip_systems():
    system = linear_system(1.0, -1.0e6)
    field = project_initial(lambda x: system.exact_solution(x, 0.0), 16, 0.0,
                            1.0 / 16)
    W = np.random.default_rng(0).standard_normal((2, 3, 18))
    assert not transition_cells(field, system, W, 1.0).any()


def test_transition_cells_flag_stiff_front_cell_only():
    cfg = stiff_front(-10000.0, 3, offset=0.5)
    field, grid, W, _ = first_step_nodes(cfg)
    flags = transition_cells(field, cfg.system, W, grid.dt)
    assert np.flatnonzero(flags).tolist() == [91]      # cell 90 holds x0


def test_transition_cells_idle_at_mild_stiffness(monkeypatch):
    flagged = []

    def recording(*args):
        flags = transition_cells(*args)
        flagged.append(int(flags.sum()))
        return flags

    monkeypatch.setattr(scheme, "transition_cells", recording)
    cfg = build_config(make_case("leveque-yee", beta=-1000.0), order=3,
                       t_out=0.1)
    run(cfg)
    assert len(flagged) > 0 and sum(flagged) == 0


def test_transition_cell_takes_two_state_solution():
    cfg = stiff_front(-10000.0, 3, offset=0.5)
    field, grid, W, dxW = first_step_nodes(cfg)
    q, residuals, unverified = nodal_solution(
        field, dataclasses.replace(cfg, n_threads=1), grid)
    for n_threads in (2, 3):
        q_n, residuals_n, unverified_n = nodal_solution(
            field, dataclasses.replace(cfg, n_threads=n_threads), grid)
        assert np.array_equal(q_n, q)
        assert (residuals_n, unverified_n) == (residuals, unverified)

    # Cell 90 sits between q_L ~ 1 (cell 89) and q_R ~ 0 (cell 91); its front
    # starts where it conserves the average and moves at the
    # Rankine-Hugoniot speed 1 of the advection flux.
    q_l, avg, q_r = field.averages[89:92, 0]
    theta = (q_r - avg) / (q_r - q_l)
    front = -0.5 + theta + grid.tau * grid.dt / grid.dx
    want = np.where(grid.xi[:, None] < front[None, :], q_l, q_r)
    assert np.array_equal(q[0, :, :, 91], want)

    keep = np.arange(q.shape[-1]) != 91
    other, _, _ = predictor_solve(cfg.system, W[..., keep], dxW[..., keep],
                                  grid)
    assert np.array_equal(q[..., keep], other)


def test_stiff_front_speed_at_subcell_offset():
    """Criterion-4 gate with the step starting half a cell past x = 0.3."""
    cfg = stiff_front(-10000.0, 3, offset=0.5)
    res = run(cfg)
    q = res.field.averages[:, 0]
    assert q.min() >= -0.01 and q.max() <= 1.01
    i = np.flatnonzero((q[:-1] - 0.5) * (q[1:] - 0.5) < 0)
    assert len(i) == 1
    x = res.field.cell_centers()
    front = x[i[0]] + (0.5 - q[i[0]]) / (q[i[0] + 1] - q[i[0]]) * cfg.dx
    assert abs(front - (0.6 + 0.5 * cfg.dx)) <= 2.0 * cfg.dx


def test_stiff_bump_between_equal_states_relaxes():
    """A transition cell whose neighbours agree keeps its average as state."""
    n = 300
    cfg = make_config(leveque_yee_system(-10000.0),
                      lambda x: np.where((x > 0.5) & (x < 0.5 + 1.0 / n),
                                         0.5, 0.0)[..., None],
                      3, n, cfl=0.2, t_out=0.05)
    res = run(cfg)
    assert np.max(np.abs(res.field.averages)) < 1e-12


def test_step_with_every_cell_in_transition():
    """Uniform data at the unstable state 0.5 flags every cell."""
    cfg = make_config(leveque_yee_system(-10000.0),
                      lambda x: np.full(x.shape + (1,), 0.5), 3, 60, cfl=0.2)
    field = project_initial(cfg.initial, 60, 0.0, cfg.dx)
    dt = cfl_timestep(field, cfg.system, cfg.cfl)
    new_field, (residuals, unverified) = step(field, cfg, dt)
    assert residuals == [] and unverified == 0
    assert np.all(np.isfinite(new_field.averages))
    assert np.ptp(new_field.averages) == 0.0
