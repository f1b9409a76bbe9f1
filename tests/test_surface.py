import gc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from viscmin import morse, surface
from viscmin.ambient import Euclidean, UnitSphere
from viscmin.errors import (DegenerateMetric, OffManifold, ResolutionTooLow,
                            ShapeMismatch, UnknownPreset)
from viscmin.fourier import FourierBasis
from viscmin.jets import Jet2


def test_preset_names_sorted():
    names = surface.preset_names()
    assert names == sorted(names)
    assert "clifford_torus" in names
    assert "equator_s2_in_s3" in names


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        surface.make_preset("mystery_surface", resolution=16)


def test_clifford_samples_on_sphere(clifford):
    P = clifford.samples()
    assert_allclose(np.sum(P * P, axis=-1), 1.0, atol=1e-12)
    # both coordinate circles at radius 1/sqrt(2)
    assert_allclose(P[:, 0] ** 2 + P[:, 1] ** 2, 0.5, atol=1e-12)


def test_resolution_property(clifford, equator):
    assert clifford.resolution == 16
    assert equator.resolution == 16


def test_from_samples_round_trip(clifford):
    im2 = surface.SampledImmersion.from_samples(
        clifford.ambient, clifford.topology, clifford.basis,
        clifford.samples())
    assert_allclose(im2.samples(), clifford.samples(), atol=1e-12)


def test_sphere_from_samples_projects(equator):
    # push samples off the sphere; from_samples must land back on it
    noisy = equator.samples() * 1.003
    im2 = surface.SampledImmersion.from_samples(
        equator.ambient, equator.topology, equator.basis, noisy)
    r = np.linalg.norm(im2.samples(), axis=-1)
    assert np.max(np.abs(r - 1.0)) <= surface.ON_MANIFOLD_TOL


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_degenerate_metric_rejected():
    basis = FourierBasis(8)
    topo = surface.SurfaceTopology(1)
    amb = surface.make_preset("product_torus", resolution=8).ambient
    flat = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (basis.num_nodes, 1))
    with pytest.raises((DegenerateMetric, OffManifold)):
        im = surface.SampledImmersion.from_samples(amb, topo, basis, flat)
        im.geometry


def test_resolution_floor():
    with pytest.raises(ResolutionTooLow):
        FourierBasis(3)


def test_topology_round_trip():
    topo = surface.SurfaceTopology(1)
    d = topo.to_dict()
    topo2 = surface.SurfaceTopology.from_dict(d)
    assert topo2 == topo
    assert topo.euler_char == 0
    assert surface.SurfaceTopology(0).euler_char == 2


def test_immersion_dict_round_trip(clifford, equator):
    for im in (clifford, equator):
        im2 = surface.SampledImmersion.from_dict(im.to_dict())
        assert_allclose(im2.coeffs, im.coeffs, rtol=0, atol=0)


def test_resample_preserves_geometry(clifford):
    fine = clifford.resample(24)
    assert fine.resolution == 24
    assert_allclose(fine.geometry.area, clifford.geometry.area, rtol=1e-12)


def test_gauss_bonnet(clifford, equator, round_sphere):
    for im in (clifford, equator, round_sphere):
        defect = surface.gauss_bonnet_defect(im.geometry, im.topology)
        assert abs(defect) <= 1e-6


def test_variation_algebra(clifford):
    w1 = surface.random_variation(clifford, seed=0, amplitude=0.1, band=2)
    w2 = surface.random_variation(clifford, seed=1, amplitude=0.1, band=2)
    s = w1 + w2
    d = w1 - w2
    assert_allclose(s.values, w1.values + w2.values, atol=1e-14)
    assert_allclose(d.values, w1.values - w2.values, atol=1e-14)
    assert_allclose((w1 * 2.0).values, 2.0 * w1.values, atol=1e-14)


def test_random_variation_deterministic(clifford):
    a = surface.random_variation(clifford, seed=7, amplitude=0.05, band=2)
    b = surface.random_variation(clifford, seed=7, amplitude=0.05, band=2)
    assert_allclose(a.values, b.values, rtol=0, atol=0)


def test_tangent_variations_are_tangent(clifford, equator):
    for im in (clifford, equator):
        for seed in range(3):
            w = surface.random_variation(im, seed=seed, amplitude=0.05,
                                         band=2, tangent=True)
            assert w.tangency_defect() <= 1e-8


def test_marked_point_on_torus(clifford):
    pts = clifford.topology.marked_points
    assert len(pts) == 1
    assert_allclose(pts[0], [0.0, 0.0], atol=0)


def test_normal_frame_orthonormal(clifford, round_sphere, clifford_r4,
                                  clifford_s4, equator_s4):
    for im in (clifford, round_sphere, clifford_r4, clifford_s4, equator_s4):
        frame = surface.normal_frame(im)
        assert len(frame) == im.ambient.dim - im.ambient.frame_size
        geom = im.geometry
        for a in range(len(frame)):
            # unit length, normal to the surface
            assert_allclose(np.sum(frame[a] * frame[a], axis=-1), 1.0,
                            atol=1e-10)
            tang = geom.project_tangent(frame[a])
            assert np.max(np.abs(tang)) <= 1e-8
            for b in range(a):
                dot = np.sum(frame[a] * frame[b], axis=-1)
                assert np.max(np.abs(dot)) <= 1e-10


def test_normal_frame_needs_a_seed_off_the_tangent_space(equator):
    # a great S^2 in the (e_1, e_2, e_Q) plane of S^4: e_Q, the sphere's
    # frame seed, lies in the span of the tangent plane and the position
    # vector, so its normal part vanishes everywhere
    x, y, z = equator.samples()[:, :3].T
    zero = np.zeros_like(x)
    great = surface.SampledImmersion.from_samples(
        UnitSphere(5), equator.topology, equator.basis,
        np.column_stack([x, y, zero, zero, z]))
    with pytest.raises(DegenerateMetric):
        surface.normal_frame(great)
    # flat R^5 has codimension 3 and one seed: no recipe
    sphere = surface.make_preset("round_sphere_r3", resolution=12)
    flat = surface.SampledImmersion.from_samples(
        Euclidean(5), sphere.topology, sphere.basis,
        np.column_stack([sphere.samples(), np.zeros((sphere.basis.num_nodes,
                                                     2))]))
    with pytest.raises(ShapeMismatch):
        surface.normal_frame(flat)


def test_brioschi_matches_gauss_curvature(clifford):
    # intrinsic-only curvature against the Gauss-equation value
    assert_allclose(surface.brioschi_curvature(clifford), 0.0, atol=1e-10)
    assert_allclose(clifford.geometry.gauss_curvature, 0.0, atol=1e-10)
    # non-flat torus: the two independent routes must agree pointwise
    donut = surface.make_preset("product_torus", resolution=24)
    kb = surface.brioschi_curvature(donut)
    assert_allclose(kb, donut.geometry.gauss_curvature, atol=1e-6)
    # sphere charts have no periodic Brioschi route
    sph = surface.make_preset("round_sphere_r3", resolution=12)
    with pytest.raises(Exception):
        surface.brioschi_curvature(sph)
    assert_allclose(sph.geometry.gauss_curvature, 1.0, atol=1e-10)


@pytest.mark.parametrize("name", ["perturbed_clifford", "perturbed_equator",
                                  "clifford_r4"])
def test_ii_norm2_is_the_full_contraction(request, name):
    # |II|^2 summed over all sixteen index slots g^ik g^jl II_ij . II_kl: an
    # oracle outside the six-term form that the vector and Gram routes
    # share.  The perturbed charts have g12 != 0, which the flat Clifford
    # charts do not, so there none of the six terms drops out
    geom = request.getfixturevalue(name).geometry
    ref = np.einsum("...ik,...jl,...ijq,...klq->...", geom.ginv, geom.ginv,
                    geom.II, geom.II)
    assert_allclose(geom.II_norm2, ref, rtol=1e-13, atol=0)


@pytest.mark.parametrize("name", ["perturbed_clifford", "perturbed_equator",
                                  "round_sphere"])
def test_jet_value_slots_are_the_plain_geometry(request, name):
    # along a family the jets' value slots repeat the plain arithmetic
    # operation by operation, so the densities they carry are the plain
    # ones bit for bit
    im = request.getfixturevalue(name)
    W, Wd, Wdd = morse.normal_variation_basis(im, 1).triples()
    P, Pd, Pdd = im.derivatives()
    plain = surface.pointwise_geometry(P, Pd, Pdd, im.ambient)
    jets = surface.pointwise_geometry(Jet2(P, W), Jet2(Pd, Wd),
                                      Jet2(Pdd, Wdd), im.ambient)
    for key in ("II2", "det", "sqrt_det"):
        assert np.array_equal(jets[key].a, plain[key])


def test_immersion_freed_without_the_cycle_collector():
    # the geometry is cached on its immersion and must not point back at
    # it, or every immersion a Newton iteration drops waits for the cycle
    # collector
    base = surface.make_preset("perturbed_equator", resolution=8)
    enabled = gc.isenabled()
    gc.disable()
    try:
        im = surface.SampledImmersion.from_samples(
            base.ambient, base.topology, base.basis, base.samples())
        assert im.geometry.dvol.shape == (base.basis.num_nodes,)
        ref = weakref.ref(im)
        del im
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
