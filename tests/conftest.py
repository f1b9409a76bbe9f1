import numpy as np
import pytest

from viscmin import surface
from viscmin.ambient import UnitSphere


# the preset immersions are read-only in every test; building their
# geometry is the expensive part, so share one copy per session
@pytest.fixture(scope="session")
def clifford():
    return surface.make_preset("clifford_torus", resolution=16)


@pytest.fixture(scope="session")
def equator():
    return surface.make_preset("equator_s2_in_s3", resolution=16)


@pytest.fixture(scope="session")
def round_sphere():
    return surface.make_preset("round_sphere_r3", resolution=16)


@pytest.fixture(scope="session")
def clifford_r4():
    return surface.make_preset("clifford_in_r4", resolution=16)


@pytest.fixture(scope="session")
def perturbed_clifford():
    return surface.make_preset("perturbed_clifford", resolution=16)


@pytest.fixture(scope="session")
def perturbed_equator():
    return surface.make_preset("perturbed_equator", resolution=16)


@pytest.fixture(scope="session")
def perturbed_clifford_r4():
    return surface.make_preset("perturbed_clifford_in_r4", resolution=16)


def lift_to_s4(immersion):
    """An immersion into the S^3 of R^4 moved into the equatorial S^3 of
    S^4 in R^5, by a zero fifth column."""
    samples = immersion.samples()
    return surface.SampledImmersion.from_samples(
        UnitSphere(5), immersion.topology, immersion.basis,
        np.concatenate([samples, np.zeros((len(samples), 1))], axis=-1))


@pytest.fixture(scope="session")
def clifford_s4(clifford):
    return lift_to_s4(clifford)


@pytest.fixture(scope="session")
def equator_s4():
    return lift_to_s4(surface.make_preset("equator_s2_in_s3", resolution=12))
