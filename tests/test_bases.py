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
    # the tables come from a numpy recurrence; they must match the per-(l, m)
    # sph_harm_y values with the real-harmonic signs to rounding (measured
    # worst 1.1e-15 of a slot's largest entry)
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
    tables = _real_tables(L, theta, phi)
    scale = np.max(np.abs(ref), axis=(0, 2), keepdims=True)
    assert np.all(np.abs(tables - ref) <= 4e-15 * scale)


@pytest.mark.parametrize("L", [5, 16, 24])
def test_sphharm_ring_synthesis_matches_tables_in_every_slot(L):
    # evaluate runs by rings (an FFT in phi and a Legendre sum per order);
    # each one-hot mode in each chart slot must match the per-point tables
    # at the grid within 1e-13 of the slot's largest entry (measured worst
    # 2.8e-14, at L = 24), and a table built for one slot must be bitwise
    # that slot of the six-slot table
    from viscmin.sphharm import _DERIV_SLOT, _real_tables

    basis = SphHarmBasis(L)
    theta, phi = basis.grid_points.T
    tables = _real_tables(L, theta, phi)
    eye = np.eye(basis.mode_count)
    for deriv, slot in _DERIV_SLOT.items():
        table = tables[:, slot]
        assert np.array_equal(_real_tables(L, theta, phi, [deriv])[:, 0],
                              table)
        err = np.max(np.abs(basis.evaluate(eye, deriv) - table.T))
        assert err <= 1e-13 * np.max(np.abs(table))


def _scipy_tables(L, theta, phi):
    """[K, 6, npts] real harmonic tables from one sph_harm_y call per (l, m)."""
    from scipy.special import sph_harm_y

    ref = np.empty(((L + 1) ** 2, 6, len(theta)))
    for ell in range(L + 1):
        for m in range(ell + 1):
            y, grad, hess = sph_harm_y(ell, m, theta, phi, diff_n=2)
            stack = np.stack([y, grad[..., 0], grad[..., 1], hess[..., 0, 0],
                              hess[..., 0, 1], hess[..., 1, 1]])
            row = ell * ell + ell
            if m == 0:
                ref[row] = stack.real
            else:
                sign = np.sqrt(2.0) * (-1.0) ** m
                ref[row + m] = sign * stack.real
                ref[row - m] = sign * stack.imag
    return ref


@pytest.mark.parametrize("L", [16, 24])
def test_sphharm_tables_match_scipy_on_and_off_grid(L):
    # every latitude of the grid at three longitudes, then seeded points
    # with both poles and a near-pole theta, against per-mode scipy calls;
    # each derivative slot within 1e-13 of its largest entry
    from viscmin.sphharm import _real_tables

    basis = SphHarmBasis(L)
    cols = [0, 1, basis.n_phi // 2]
    on_grid = (np.arange(basis.n_theta)[:, None] * basis.n_phi
               + np.array(cols)).ravel()
    rng = np.random.default_rng(L)
    theta = np.concatenate([[0.0, np.pi, 1e-7, np.pi - 1e-7],
                            rng.uniform(0.0, np.pi, 12)])
    phi = rng.uniform(0.0, 2.0 * np.pi, theta.size)
    for tables, (th, ph) in [
            (_real_tables(L, *basis.grid_points.T)[:, :, on_grid],
             basis.grid_points[on_grid].T),
            (_real_tables(L, theta, phi), (theta, phi))]:
        ref = _scipy_tables(L, th, ph)
        scale = np.max(np.abs(ref), axis=(0, 2), keepdims=True)
        assert np.all(np.isfinite(tables))
        assert np.all(np.abs(tables - ref) <= 1e-13 * scale)


@pytest.mark.parametrize("L", [16, 32, 48])
def test_sphharm_fit_inverts_evaluate_at_high_degree(L):
    # O(1) random coefficients through the ring synthesis and the ring
    # quadrature and back (measured 5.0e-14, 5.3e-13 and 4.9e-13)
    basis = SphHarmBasis(L)
    coeffs = np.random.default_rng(L).normal(size=(basis.mode_count, 4))
    err = np.max(np.abs(basis.fit(basis.evaluate(coeffs)) - coeffs))
    assert err <= 1e-12


def test_gauss_legendre_weights_exact_to_roundoff():
    # closed form: sum_i w_i x_i^(2k) = 2 / (2k + 1) for 2k <= 2n - 2, a
    # sum of positive terms, so it does not cancel (numpy's leggauss
    # weights read 1.2e-12 at n = 128, the recomputed ones 2.8e-14)
    from viscmin.sphharm import _gauss_legendre

    n = 128
    x, w = _gauss_legendre(n)
    exact = 2.0 / (2.0 * np.arange(n) + 1.0)
    sums = np.array([np.sum(w * x ** (2 * k)) for k in range(n)])
    assert np.max(np.abs(sums - exact) / exact) <= 1e-13


def test_sphharm_fit_inverts_evaluate_at_degree_64():
    # the round trip's floor is the quadrature weights (leggauss weights
    # read 3.9e-12 here, the recomputed ones 9.9e-14)
    basis = SphHarmBasis(64)
    coeffs = np.random.default_rng(64).normal(size=(basis.mode_count, 4))
    err = np.max(np.abs(basis.fit(basis.evaluate(coeffs)) - coeffs))
    assert err <= 5e-13


def test_sphharm_rejects_derivative_orders_outside_the_chart():
    # the chart carries the six slots of order <= 2; any other order is a
    # typed error naming that order, on the grid and at arbitrary points
    basis = SphHarmBasis(4)
    coeffs = np.ones((basis.mode_count, 2))
    with pytest.raises(ShapeMismatch, match=r"\(3, 0\)"):
        basis.evaluate(coeffs, (3, 0))
    with pytest.raises(ShapeMismatch, match=r"\(0, 3\)"):
        basis.evaluate_at(coeffs, basis.grid_points[:5], (0, 3))


def test_sphharm_degree_48_builds_in_bounded_memory():
    # the basis holds theta-factor stacks, O(L^3), not a [K, 6, N] table
    # (24 L^4 doubles, 1.07 GB at degree 48); measured peak 15.6 MB
    import tracemalloc

    tracemalloc.start()
    try:
        SphHarmBasis(48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_sphharm_tables_satisfy_the_sphere_laplacian():
    # code-independent: every R_{l,m} is an eigenfunction of the round
    # Laplacian, R_tt + cot(t) R_t + R_pp / sin(t)^2 = -l(l+1) R, checked
    # at the Gauss nodes from the table's own derivative slots
    from viscmin.sphharm import _real_tables

    L = 24
    basis = SphHarmBasis(L)
    T = _real_tables(L, *basis.grid_points.T)
    theta = basis.grid_points[:, 0]
    ell = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)[:, None]
    lap = (T[:, 3] + np.cos(theta) / np.sin(theta) * T[:, 1]
           + T[:, 5] / np.sin(theta) ** 2)
    residual = np.max(np.abs(lap + ell * (ell + 1) * T[:, 0]))
    assert residual <= 1e-13 * L * (L + 1) * np.max(np.abs(T[:, 0]))


@pytest.mark.parametrize("n, cutoff", [(16, 2), (16, 3), (16, 9), (12, 7)])
def test_fourier_real_modes_match_explicit_formula(n, cutoff):
    # 1, then cos/sin(m u + n v) over the canonical half-space with
    # |m|, |n| <= cutoff, the band clamping a larger cutoff; bit for bit
    basis = FourierBasis(n)
    c = min(cutoff, basis.degree)
    u, v = basis.grid_points[:, 0], basis.grid_points[:, 1]
    pairs = [(0, k) for k in range(1, c + 1)]
    pairs += [(m, k) for m in range(1, c + 1) for k in range(-c, c + 1)]
    ref, ref_labels = [np.ones(len(u))], ["const"]
    for m, k in pairs:
        ref += [np.cos(m * u + k * v), np.sin(m * u + k * v)]
        ref_labels += [f"cos({m},{k})", f"sin({m},{k})"]
    samples, labels = basis.real_modes(cutoff)
    assert labels == ref_labels
    assert samples.shape == ((2 * c + 1) ** 2, basis.num_nodes)
    assert np.array_equal(samples, np.stack(ref))


def test_fourier_pack_unpack_match_per_mode_formula():
    # the index-array packing against the per-mode formula, bit for bit
    basis = FourierBasis(14)
    n = basis.n
    rng = np.random.default_rng(3)
    coeffs = basis.unpack_real(rng.normal(size=(basis.mode_count, 2, 3)))
    coeffs = coeffs + 1e-3 * rng.normal(size=coeffs.shape)
    modes = [(0, k) for k in range(1, basis.degree + 1)]
    modes += [(m, k) for m in range(1, basis.degree + 1)
              for k in range(-basis.degree, basis.degree + 1)]
    ref = [coeffs[0, 0].real]
    for m, k in modes:
        ref += [2.0 * coeffs[m % n, k % n].real,
                -2.0 * coeffs[m % n, k % n].imag]
    vec = basis.pack_real(coeffs)
    assert np.array_equal(vec, np.stack(ref))
    ref_c = np.zeros_like(coeffs)
    ref_c[0, 0] = vec[0]
    for j, (m, k) in enumerate(modes):
        half = 0.5 * (vec[2 * j + 1] - 1j * vec[2 * j + 2])
        ref_c[m % n, k % n] = half
        ref_c[-m % n, -k % n] = np.conj(half)
    assert np.array_equal(basis.unpack_real(vec), ref_c)
    assert np.array_equal(basis.pack_real(basis.unpack_real(vec)), vec)


@pytest.mark.parametrize("basis, genus, resolution", [
    (FourierBasis(9), 1, 9), (SphHarmBasis(4), 0, 4)])
def test_basis_owns_its_chart(basis, genus, resolution):
    # genus, resolution, band and the dict format all come from the basis
    d = basis.to_dict()
    assert d["type"] == basis.kind
    again = type(basis).from_dict(d)
    assert type(again) is type(basis) and again.to_dict() == d
    assert np.array_equal(again.grid_points, basis.grid_points)
    assert basis.genus == genus
    assert basis.resolution == resolution
    assert basis.resample(basis.resolution).to_dict() == d
    for degree in (2, 3, 5):
        assert type(basis).of_degree(degree).degree == degree
