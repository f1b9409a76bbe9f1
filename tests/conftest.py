import pytest

from viscmin import surface


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
