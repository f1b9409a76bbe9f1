import numpy as np
import pytest
from numpy.testing import assert_allclose

from viscmin.errors import ShapeMismatch
from viscmin.fourier import FourierBasis
from viscmin.sphharm import SphHarmBasis


def test_fourier_fit_evaluate_round_trip():
    basis = FourierBasis(16)
    rng = np.random.default_rng(0)
    # band-limited field: synthesis of a random packed vector
    vec = rng.normal(size=(basis.mode_count, 3))
    coeffs = basis.unpack_real(vec)
    samples = basis.evaluate(coeffs).real
    assert_allclose(basis.fit(samples), coeffs, atol=1e-13)


def test_fourier_pack_unpack_idempotent():
    basis = FourierBasis(16)
    rng = np.random.default_rng(1)
    vec = rng.normal(size=(basis.mode_count, 2))
    coeffs = basis.unpack_real(vec)
    assert_allclose(basis.pack_real(coeffs), vec, rtol=0, atol=0)


def test_fourier_derivatives_exact():
    basis = FourierBasis(16)
    u, v = basis.grid_points[:, 0], basis.grid_points[:, 1]
    f = np.sin(3 * u + 2 * v) + np.cos(u - 4 * v)
    c = basis.fit(f[:, None])
    du = 3 * np.cos(3 * u + 2 * v) - np.sin(u - 4 * v)
    dvv = -4 * np.sin(3 * u + 2 * v) - 16 * np.cos(u - 4 * v)
    assert_allclose(basis.evaluate(c, (1, 0)).real[:, 0], du, atol=1e-11)
    assert_allclose(basis.evaluate(c, (0, 2)).real[:, 0], dvv, atol=1e-10)


def test_fourier_evaluate_at_matches_grid():
    basis = FourierBasis(12)
    rng = np.random.default_rng(2)
    coeffs = basis.unpack_real(rng.normal(size=(basis.mode_count, 1)))
    on_grid = basis.evaluate(coeffs)
    at_pts = basis.evaluate_at(coeffs, basis.grid_points)
    assert_allclose(at_pts, on_grid, atol=1e-11)


def test_fourier_quadrature():
    basis = FourierBasis(16)
    assert_allclose(np.sum(basis.chart_weights), (2 * np.pi) ** 2,
                    rtol=1e-14)
    u = basis.grid_points[:, 0]
    assert abs(np.sum(np.sin(u) ** 2 * basis.chart_weights)
               - 2 * np.pi ** 2) <= 1e-10


def test_fourier_shape_mismatch():
    basis = FourierBasis(8)
    with pytest.raises(ShapeMismatch):
        basis.fit(np.zeros((7, 1)))


def test_sphharm_fit_evaluate_round_trip():
    basis = SphHarmBasis(8)
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=(basis.mode_count, 2))
    samples = basis.evaluate(coeffs)
    assert_allclose(basis.fit(samples), coeffs, atol=1e-12)


def test_sphharm_orthonormal():
    basis = SphHarmBasis(6)
    eye = np.eye(basis.mode_count)
    gram = basis.fit(basis.evaluate(eye))
    assert_allclose(gram, eye, atol=1e-12)


def test_sphharm_evaluate_at_matches_grid():
    basis = SphHarmBasis(6)
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=(basis.mode_count, 1))
    assert_allclose(basis.evaluate_at(coeffs, basis.grid_points),
                    basis.evaluate(coeffs), atol=1e-12)


def test_sphharm_derivative_exact():
    # Y_10 is proportional to cos(theta); check the theta derivative
    basis = SphHarmBasis(5)
    coeffs = np.zeros((basis.mode_count, 1))
    coeffs[2, 0] = 1.0  # (l, m) = (1, 0): m runs -l..l inside each degree
    theta = basis.grid_points[:, 0]
    vals = basis.evaluate(coeffs)[:, 0]
    scale = vals[0] / np.cos(theta[0])
    dth = basis.evaluate(coeffs, (1, 0))[:, 0]
    assert_allclose(dth, -scale * np.sin(theta), atol=1e-12)


def test_basis_dict_round_trip():
    fb = FourierBasis(16)
    assert fb.to_dict() == {"type": "fourier", "modes": 16}
    sb = SphHarmBasis(8)
    d = sb.to_dict()
    assert d["degree"] == 8


def test_sphharm_tables_match_per_mode_calls():
    # the tables come from sph_harm_y_all in blocks of points; they must be
    # bitwise the per-(l, m) sph_harm_y values with the real-harmonic signs
    from scipy.special import sph_harm_y

    from viscmin.sphharm import _real_tables

    L = 5
    basis = SphHarmBasis(L)
    theta, phi = basis.grid_points[:, 0], basis.grid_points[:, 1]
    ref = np.empty(((L + 1) ** 2, 6, len(theta)))
    for ell in range(L + 1):
        for m in range(ell + 1):
            y, grad, hess = sph_harm_y(ell, m, theta, phi, diff_n=2)
            stack = np.stack([y, grad[..., 0], grad[..., 1], hess[..., 0, 0],
                              hess[..., 0, 1], hess[..., 1, 1]])
            if m == 0:
                ref[ell * ell + ell] = stack.real
            else:
                sign = np.sqrt(2.0) * (-1.0) ** m
                ref[ell * ell + ell + m] = sign * stack.real
                ref[ell * ell + ell - m] = sign * stack.imag
    assert np.array_equal(_real_tables(L, theta, phi), ref)
    assert np.array_equal(basis._tables, ref)
