import numpy as np
import pytest
from numpy.testing import assert_allclose

from viscmin import gauge, surface
from viscmin.errors import (NotInRange, NotInSlice, NoConvergence,
                            ShapeMismatch)


def _band_field(basis, seed, amplitude, band=2, comps=1):
    """Seeded real trig field with modes up to the given band."""
    rng = np.random.default_rng(seed)
    pts = basis.grid_points
    out = np.zeros((basis.num_nodes, comps))
    for m in range(-band, band + 1):
        for n in range(band + 1):
            if n == 0 and m <= 0:
                continue
            ph = m * pts[:, 0] + n * pts[:, 1]
            for trig in (np.sin, np.cos):
                out += rng.normal(size=comps)[None, :] * trig(ph)[None, :].T
    scale = np.max(np.abs(out))
    if scale > 0:
        out *= amplitude / scale
    return out


def _reparametrized(im, seed, amplitude):
    """New immersion: the same surface precomposed with a seeded diffeo.

    The diffeo fixes the marked point; the constant (holomorphic) part of
    a reparametrization is invisible to the slice pairing, so only the
    pinned subgroup can be undone by the retraction.
    """
    basis = im.basis
    vec = _band_field(basis, seed, amplitude, comps=2)
    vec -= vec[0]  # grid node 0 is the marked point (0, 0)
    moved = basis.evaluate_at(im.coeffs, basis.grid_points + vec).real
    return surface.SampledImmersion.from_samples(
        im.ambient, im.topology, basis, moved)


def test_dbar_solve_residual(clifford):
    basis = clifford.basis
    # mean-free complex right-hand side inside the band
    rhs = (_band_field(basis, 0, 1.0)[:, 0]
           + 1j * _band_field(basis, 1, 1.0)[:, 0])
    b, residual = gauge.dbar_solve(clifford, rhs)
    assert residual <= 1e-12
    # independent check: spectral dzbar of the solution reproduces rhs
    back = gauge.dzbar_field(basis, b[:, None])[:, 0]
    assert np.max(np.abs(back - rhs)) <= 1e-10


def test_dbar_rejects_constant_rhs(clifford):
    rhs = np.full(clifford.basis.num_nodes, 0.3 + 0.1j)
    with pytest.raises(NotInRange):
        gauge.dbar_solve(clifford, rhs)


def test_gauge_decompose_recovers_planted_field(clifford):
    basis = clifford.basis
    for seed in range(5):
        X0 = _band_field(basis, 100 + seed, 0.02, comps=2)
        X0 -= X0[0]  # the decomposition pins X at the marked point
        v = surface.tangential_field(clifford, X0)
        dec = gauge.gauge_decompose(clifford, v.values)
        assert np.max(np.abs(dec.X - X0)) <= 1e-10
        assert dec.residual <= 1e-10


def test_decomposed_slice_part_satisfies_slice_condition(clifford):
    # subtracting the recovered reparametrization lands in the slice
    w = surface.random_variation(clifford, seed=2, amplitude=0.01, band=2,
                                 tangent=True)
    dec = gauge.gauge_decompose(clifford, w.values)
    w_slice = w.values - surface.tangential_field(clifford, dec.X).values
    q, _ = gauge.coulomb_operator(clifford, w_slice)
    assert np.max(np.abs(q)) <= 1e-12


def test_slice_retract_pure_reparametrization(clifford):
    # retracting a reparametrized copy of the same surface must give w ~ 0
    worst = 0.0
    for seed in range(10):
        target = _reparametrized(clifford, 200 + seed, 0.03)
        w, info = gauge.slice_retract(clifford, target)
        assert info["residual"] <= gauge.SLICE_TOL
        worst = max(worst, w.sup_norm())
    assert worst <= 1e-6


def test_slice_retract_equivariance(clifford):
    # the slice representative of a genuinely moved target must not
    # depend on how the target is parametrized
    basis = clifford.basis
    bump = surface.random_variation(clifford, seed=9, amplitude=0.01,
                                    band=2, tangent=True)
    moved = surface.SampledImmersion.from_samples(
        clifford.ambient, clifford.topology, basis,
        clifford.samples() + bump.values)
    wa, _ = gauge.slice_retract(clifford, moved)
    worst = 0.0
    for seed in range(5):
        target = _reparametrized(moved, 300 + seed, 0.03)
        wb, _ = gauge.slice_retract(clifford, target)
        worst = max(worst, np.max(np.abs(wb.values - wa.values)))
    assert worst <= 1e-6


def test_slice_retract_range_guard(clifford):
    far = surface.make_preset("product_torus", resolution=16)
    # same basis, very different surface: outside the retraction range
    with pytest.raises((NotInRange, NoConvergence)):
        gauge.slice_retract(clifford, far)


def test_coupling_residual_on_slice(clifford):
    w = surface.random_variation(clifford, seed=4, amplitude=0.01, band=2,
                                 tangent=True)
    dec = gauge.gauge_decompose(clifford, w.values)
    w_slice = w.values - surface.tangential_field(clifford, dec.X).values
    assert gauge.coupling_residual(clifford, w_slice) <= 1e-7


def test_coupling_residual_rejects_off_slice(clifford):
    X0 = _band_field(clifford.basis, 8, 0.05, comps=2)
    v = surface.tangential_field(clifford, X0)
    with pytest.raises(NotInSlice):
        gauge.coupling_residual(clifford, v.values)


def test_symbol_positive_and_homogeneous(clifford):
    for xi in ([1.0, 0.0], [0.3, -0.7], [2.0, 1.0]):
        out = gauge.symbol_check(clifford, xi)
        assert out["min_eig"] > 0.0
        assert out["homogeneity_defect"] <= 1e-9 * max(1.0, out["max_eig"])
    # the clifford torus is homogeneous: the symbol bounds coincide
    out = gauge.symbol_check(clifford, [1.0, 2.0])
    assert_allclose(out["min_eig"], out["max_eig"], rtol=1e-10)


def test_symbol_shape_check(clifford):
    with pytest.raises(ShapeMismatch):
        gauge.symbol_check(clifford, [1.0, 2.0, 3.0])


def test_gauge_needs_torus(equator):
    w = np.zeros((equator.basis.num_nodes, 4))
    with pytest.raises(Exception):
        gauge.coulomb_operator(equator, w)


def test_hol1_dimensions():
    assert gauge.hol1_dimension(0) == 3
    assert gauge.hol1_dimension(1) == 1
    # higher genus is outside the library's chart coverage
    with pytest.raises(ShapeMismatch):
        gauge.hol1_dimension(2)


@pytest.mark.parametrize("preset, resolution", [
    ("equator_s2_in_s3", 16), ("clifford_torus", 8)])
def test_slice_retract_needs_the_source_chart(clifford, preset, resolution):
    # a target on another chart is a shape error, not a missing attribute
    target = surface.make_preset(preset, resolution)
    with pytest.raises(ShapeMismatch):
        gauge.slice_retract(clifford, target)
