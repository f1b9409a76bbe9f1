import numpy as np
import pytest
from numpy.testing import assert_allclose

from viscmin import surface
from viscmin.ambient import (ON_MANIFOLD_TOL, Euclidean, UnitSphere,
                             ambient_from_dict)
from viscmin.errors import OffManifold, ShapeMismatch


def _radial(r):
    """Points of radius r in R^4, off the coordinate axes."""
    z = np.array([[1.0, 2.0, -2.0, 4.0], [0.5, -0.5, 0.5, 0.5]])
    return r * z / np.linalg.norm(z, axis=-1, keepdims=True)


def test_distance_and_normal_component():
    s3, r4 = UnitSphere(4), Euclidean(4)
    z = _radial(1.5)
    assert_allclose(s3.distance(z), [0.5, 0.5], rtol=1e-15)
    assert np.array_equal(r4.distance(z), [0.0, 0.0])
    X = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
    assert np.array_equal(s3.normal_component(z, X), np.sum(z * X, axis=-1))
    assert np.array_equal(r4.normal_component(z, X), [0.0, 0.0])
    # the projection removes exactly the normal component
    on = _radial(1.0)
    assert np.max(np.abs(s3.normal_component(
        on, s3.tangent_project(on, X)))) <= 1e-15
    assert np.array_equal(r4.tangent_project(on, X), X)
    with pytest.raises(ShapeMismatch):
        s3.distance(np.zeros((2, 3)))


@pytest.mark.parametrize("off, inside", [(0.9, True), (1.1, False)])
def test_contains_at_the_one_tolerance(off, inside):
    z = _radial(1.0 + off * ON_MANIFOLD_TOL)
    assert UnitSphere(4).contains(z) is inside
    assert Euclidean(4).contains(z) is True


def test_tangent_project_rejects_points_off_the_sphere():
    X = np.ones((2, 4))
    with pytest.raises(OffManifold):
        UnitSphere(4).tangent_project(_radial(1.0 + 1e-8), X)


def test_ambient_from_dict_round_trip():
    for amb in (UnitSphere(4), UnitSphere(5), Euclidean(3), Euclidean(4)):
        back = ambient_from_dict(amb.to_dict())
        assert back == amb and type(back) is type(amb)
    with pytest.raises(ShapeMismatch):
        ambient_from_dict({"kind": "hyperbolic", "dim": 4})


@pytest.mark.parametrize("resolution", [12, 16])
@pytest.mark.parametrize("name", surface.preset_names())
def test_every_preset_lies_on_its_ambient(name, resolution):
    im = surface.make_preset(name, resolution)
    assert im.ambient.contains(im.samples())


def test_retract_is_the_identity_in_flat_space(clifford_r4):
    triple = clifford_r4.derivatives()
    for back, x in zip(Euclidean(4).retract(*triple), triple):
        assert back is x


@pytest.mark.parametrize("scale", [1.0, 1.7])
def test_retract_reproduces_a_map_on_the_sphere(clifford, clifford_s4,
                                                scale):
    # z / |z| of a map on the sphere, or of a multiple of it, is the map,
    # and the chain rule gives back its chart derivatives
    for im in (clifford, clifford_s4):
        triple = im.derivatives()
        back = im.ambient.retract(*(scale * x for x in triple))
        for y, x in zip(back, triple):
            assert np.max(np.abs(y - x)) <= 1e-12 * max(1.0,
                                                        np.max(np.abs(x)))
