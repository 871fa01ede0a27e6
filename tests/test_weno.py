"""WENO reconstruction: conservation, exactness, accuracy, non-oscillation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aderfv.nodes import gauss_legendre
from aderfv.weno import (CellField, ReconstructionSet, WenoConfig,
                         _stencil_tables, reconstruct, reconstruct_padded)


def averages_of(f, n, x_left=0.0, x_right=1.0):
    """Exact (10-point Gauss) cell averages of a smooth function."""
    dx = (x_right - x_left) / n
    xi, w = gauss_legendre(10, -0.5, 0.5)
    centers = x_left + (np.arange(n) + 0.5) * dx
    vals = f(centers[:, None] + xi[None, :] * dx)   # (n, 10, m)
    return np.einsum("g,ngm->nm", w, vals), dx


def test_cellfield_validation():
    with pytest.raises(ValueError):
        CellField(2, 0.1, 0.0, np.zeros((2, 1)))
    with pytest.raises(ValueError):
        CellField(4, -0.1, 0.0, np.zeros((4, 1)))
    with pytest.raises(ValueError):
        CellField(4, 0.1, 0.0, np.zeros((4, 1)), boundary="reflecting")
    with pytest.raises(ValueError):
        CellField(4, 0.1, 0.0, np.zeros((5, 1)))
    for n_cells in (16.0, True, "16"):
        with pytest.raises(ValueError, match="integer"):
            CellField(n_cells, 0.1, 0.0, np.zeros((16, 1)))
    assert CellField(np.int64(4), 0.1, 0.0, np.zeros((4, 1))).n_cells == 4


def test_cellfield_ghost_rules():
    avg = np.arange(5.0)[:, None]
    periodic = CellField(5, 0.2, 0.0, avg, "periodic").extended(2)
    assert np.allclose(periodic[:, 0], [3, 4, 0, 1, 2, 3, 4, 0, 1])
    copy = CellField(5, 0.2, 0.0, avg, "transmissive").extended(2)
    assert np.allclose(copy[:, 0], [0, 0, 0, 1, 2, 3, 4, 4, 4])


@pytest.mark.parametrize("n", [3, 4, 9])
def test_transmissive_ghosts_equal_edge_padding(n):
    """Transmissive ghost cells repeat the edge cells: bitwise the edge
    padding of np.pad, for up to five ghost cells a side (more than the
    cells when n is small)."""
    avg = np.random.default_rng(n).standard_normal((n, 3))
    field = CellField(n, 1.0 / n, 0.0, avg, "transmissive")
    for g in range(1, 6):
        got = field.extended(g)
        want = np.pad(avg, ((g, g), (0, 0)), mode="edge")
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_constant_field_reproduced_exactly(M):
    field = CellField(12, 1 / 12, 0.0, np.full((12, 2), 3.25))
    recon = reconstruct(field, M)
    for i in range(12):
        coeffs = recon.coeffs[..., i]
        assert np.allclose(coeffs[:, 0], 3.25, atol=1e-13)
        assert np.allclose(coeffs[:, 1:], 0.0, atol=1e-12)


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_linear_data_reproduced_in_interior(M):
    f = lambda x: 2.0 + 3.0 * x
    avg, dx = averages_of(lambda x: f(x)[..., None], 16)
    field = CellField(16, dx, 0.0, avg, "transmissive")
    recon = reconstruct(field, M)
    centers = field.cell_centers()
    for i in range(M, 16 - M):
        for xi in (-0.5, 0.0, 0.5):
            want = f(centers[i] + xi * dx)
            got = recon.evaluate(xi)[0][i]
            assert abs(got - want) < 1e-12


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_degree_M_polynomials_reconstructed_exactly(M):
    coeff = np.arange(1, M + 2, dtype=float)

    def f(x):
        return sum(c * x**k for k, c in enumerate(coeff))[..., None]

    avg, dx = averages_of(f, 20)
    field = CellField(20, dx, 0.0, avg, "transmissive")
    recon = reconstruct(field, M)
    centers = field.cell_centers()
    xi_probe = np.linspace(-0.5, 0.5, 7)
    for i in range(M, 20 - M):
        got = recon.evaluate(xi_probe)[0, :, i]
        want = f(centers[i] + xi_probe * dx)[:, 0]
        assert np.max(np.abs(got - want)) < 1e-10


def test_smooth_reconstruction_third_order_eoc():
    f = lambda x: np.sin(2 * np.pi * x)[..., None]
    errs = []
    for n in (64, 128):
        avg, dx = averages_of(f, n)
        field = CellField(n, dx, 0.0, avg, "periodic")
        recon = reconstruct(field, 2)
        xi = np.linspace(-0.5, 0.5, 9)
        centers = field.cell_centers()
        vals = recon.evaluate(xi)[0]             # (points, cells)
        want = f(centers[None, :] + xi[:, None] * dx)[..., 0]
        errs.append(np.max(np.abs(vals - want)))
    eoc = np.log2(errs[0] / errs[1])
    assert eoc >= 2.7


@given(st.integers(1, 4), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_conservation_of_cell_means(M, seed):
    rng = np.random.default_rng(seed)
    avg = rng.standard_normal((10, 2))
    field = CellField(10, 0.1, 0.0, avg, "periodic")
    recon = reconstruct(field, M)
    k = np.arange(M + 1)
    moments = (0.5 ** (k + 1) - (-0.5) ** (k + 1)) / (k + 1)
    for i in range(10):
        assert np.max(np.abs(moments @ recon.coeffs[..., i].T - avg[i])) < 1e-12


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_step_function_interface_values_stay_in_data_range(M):
    avg = np.where(np.arange(30) < 15, 1.0, 0.0)[:, None]
    field = CellField(30, 1 / 30, 0.0, avg, "transmissive")
    recon = reconstruct(field, M)
    for i in range(30):
        lo = avg[max(0, i - M): i + M + 1, 0].min()
        hi = avg[max(0, i - M): i + M + 1, 0].max()
        vals = recon.evaluate(np.array([-0.5, 0.5]))[0, :, i]
        assert vals.min() >= lo - 1e-8
        assert vals.max() <= hi + 1e-8


def test_evaluate_point_values_and_derivatives():
    quad = ReconstructionSet(2, np.array(
        [[[1.0], [3.0], [0.5]], [[2.0], [-1.0], [0.25]]]))
    assert np.allclose(quad.evaluate(0.0)[:, 0], [1.0, 2.0])
    lin = ReconstructionSet(1, np.array([[[4.0], [2.5]]]))
    for xi in (-0.5, 0.1, 0.5):
        assert np.allclose(lin.evaluate(xi, l=1)[:, 0], [2.5])
    assert np.all(quad.evaluate(0.3, l=3) == 0.0)
    with pytest.raises(ValueError):
        quad.evaluate(0.0, l=-1)


def test_evaluate_second_derivative_matches_finite_difference():
    rng = np.random.default_rng(3)
    quartic = ReconstructionSet(4, rng.standard_normal((5, 1))[None])
    xi, h = 0.25, 1e-6
    fd = (quartic.evaluate(xi + h, l=1) - quartic.evaluate(xi - h, l=1)) / (2 * h)
    assert np.max(np.abs(quartic.evaluate(xi, l=2) - fd)) < 1e-8


def test_reconstruction_set_interface():
    field = CellField(8, 0.125, 0.0, np.arange(16.0).reshape(8, 2))
    recon = reconstruct(field, 2)
    assert recon.coeffs.shape[2] == 8
    assert recon.coeffs[..., 3].shape == (2, 3)
    vals = recon.evaluate(np.array([-0.5, 0.0, 0.5]))
    assert vals.shape == (2, 3, 8)       # components first
    scalar = recon.evaluate(0.0)
    assert scalar.shape == (2, 8)
    assert np.allclose(scalar, vals[:, 1])


@pytest.mark.parametrize("M", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 3])
def test_evaluate_matches_literal_basis_sum(M, m):
    """evaluate is sum_k c_k d^l/dxi^l xi^k per cell and component, to
    rounding, and returns C-contiguous component-first arrays,
    (m, points, cells) for point sets and (m, cells) for scalars."""
    rng = np.random.default_rng(M + 10 * m)
    recon = ReconstructionSet(M, rng.standard_normal((m, M + 1, 7)))
    xi = np.array([-0.5, -0.1, 0.25, 0.5])
    for l in range(M + 2):
        want = np.zeros((m, len(xi), 7))
        for k in range(l, M + 1):
            factor = math.perm(k, l) * xi ** (k - l)
            want += factor[None, :, None] * recon.coeffs[:, None, k, :]
        got = recon.evaluate(xi, l)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1.0)
        point = recon.evaluate(0.25, l)
        assert point.flags.c_contiguous
        assert np.allclose(point, got[:, 2], rtol=1e-13, atol=1e-13)


def test_reconstruct_rejects_unsupported_degree():
    """The edge of error_norms and field_interpolant: True is not degree 1,
    and 2.0 is refused rather than failing as an index."""
    field = CellField(8, 0.125, 0.0, np.zeros((8, 1)))
    for M in (5, 0, True, 2.0):
        with pytest.raises(ValueError, match="degree"):
            reconstruct(field, M)
    assert reconstruct(field, np.int64(2)).M == 2


def test_weights_prefer_smooth_sided_stencil_at_jump():
    """Cells adjacent to a jump take their smooth one-sided candidate."""
    avg = np.where(np.arange(20) < 10, 2.0, -1.0)[:, None]
    field = CellField(20, 0.05, 0.0, avg, "transmissive")
    recon = reconstruct(field, 3)
    # cell 9 is left of the jump: its smooth (left) stencil is constant
    assert np.max(np.abs(recon.coeffs[:, 1:, 9])) < 1e-6
    assert abs(recon.coeffs[0, 0, 9] - 2.0) < 1e-6


def cell_major_reference(avg_padded, M):
    """reconstruct_padded with candidates and oscillation indicators in
    cell-major layout, (N, k, m), one einsum each."""
    cfg = WenoConfig()
    maps, osc = _stencil_tables(M)
    n_out = avg_padded.shape[0] - 2 * M
    num = 0.0
    den = 0.0
    for start, coeff_map, is_central in maps:
        vals = np.stack([avg_padded[M + start + j: M + start + j + n_out]
                         for j in range(coeff_map.shape[1])], axis=1)
        cand = np.einsum("kc,Ncm->Nkm", coeff_map, vals)
        sigma = np.einsum("Nkm,kl,Nlm->Nm", cand, osc, cand)
        lam = cfg.lambda_central if is_central else cfg.lambda_sided
        w = lam / (sigma + cfg.eps) ** cfg.power
        num = num + w[:, None, :] * cand
        den = den + w
    return num / den[:, None, :]


@pytest.mark.parametrize("M", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_component_major_sigma_matches_cell_major_bitwise(M, m):
    """The coefficient-major products agree with the cell-major einsums to
    rounding: within 1e-13 of the reference's max |value| (the two sum in
    different orders, so bitwise equality no longer holds)."""
    rng = np.random.default_rng(10 * M + m)
    for n_out, scale in ((1, 1.0), (7, 1e-7), (64, 1.0), (300, 1e5)):
        avg = scale * rng.standard_normal((n_out + 2 * M, m))
        avg[rng.random(avg.shape) < 0.3] = 0.0      # flat runs: sigma = 0
        want = cell_major_reference(avg, M).transpose(2, 1, 0)   # (m, k, N)
        got = reconstruct_padded(avg, M)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
