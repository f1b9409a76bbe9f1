import numpy as np
import pytest
from numpy.testing import assert_allclose

from viscmin import energy, surface

PI = np.pi


def test_fixture_energies(clifford, equator, round_sphere, clifford_r4):
    # closed-form values for the four reference surfaces
    cases = [
        (equator, 4 * PI, 4 * PI),
        (clifford, 2 * PI ** 2, 18 * PI ** 2),
        (round_sphere, 4 * PI, 36 * PI),
        (clifford_r4, 2 * PI ** 2, 50 * PI ** 2),
    ]
    for im, area, f in cases:
        rep = energy.evaluate_energies(im)
        assert_allclose(rep.area, area, rtol=1e-12)
        assert_allclose(rep.f_energy, f, rtol=1e-12)


def test_a_sigma_combination(clifford):
    rep = energy.evaluate_energies(clifford, sigma=0.25)
    assert_allclose(rep.a_sigma, rep.area + 0.0625 * rep.f_energy,
                    rtol=1e-15)
    d = rep.to_dict()
    assert set(d) == {"area", "f_energy", "sigma", "a_sigma"}


def test_first_variation_vanishes_at_minimal(clifford, equator):
    # both fixtures are area-critical; dArea must vanish for any variation
    for im in (clifford, equator):
        for seed in range(3):
            w = surface.random_variation(im, seed=seed, amplitude=0.01,
                                         band=2, tangent=True)
            fv = energy.first_variation(im, w)
            assert abs(fv["d_area"]) <= 1e-10


def test_first_variation_matches_fd(perturbed_clifford, perturbed_equator):
    for im in (perturbed_clifford, perturbed_equator):
        for seed in range(3):
            w = surface.random_variation(im, seed=seed, amplitude=0.01,
                                         band=2, tangent=True)
            fv = energy.first_variation(im, w)
            fd_a = energy.fd_first(
                lambda t: energy.free_path_energies(im, w, t)[0])
            fd_f = energy.fd_first(
                lambda t: energy.free_path_energies(im, w, t)[1])
            assert_allclose(fv["d_area"], fd_a, rtol=1e-6, atol=1e-9)
            assert_allclose(fv["d_f"], fd_f, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("name", ["perturbed_clifford", "perturbed_equator",
                                  "round_sphere"])
def test_batched_linear_matches_first_variation(request, name):
    # the batched gradient of the Newton passes is DA^sigma of each field,
    # bit for bit, not just to roundoff
    im = request.getfixturevalue(name)
    sigma = 0.3
    fields = [surface.random_variation(im, seed=seed, amplitude=0.01, band=2)
              for seed in range(4)]
    W, Wd, Wdd = (np.stack(x) for x in zip(*(w.derivatives() for w in fields)))
    batched = energy.batched_linear(im, W, Wd, Wdd, sigma)
    expected = []
    for w in fields:
        fv = energy.first_variation_samples(im, *w.derivatives())
        expected.append(fv["d_area"] + sigma ** 2 * fv["d_f"])
    assert np.all(np.abs(batched) > 1e-6)
    assert np.array_equal(batched, expected)


def test_second_variation_matches_fd(perturbed_clifford):
    im = perturbed_clifford
    for seed in range(3):
        w = surface.random_variation(im, seed=seed, amplitude=0.01,
                                     band=2, tangent=True)
        sv = energy.second_variation_ambient(im, w)
        fd_a = energy.fd_second(
            lambda t: energy.free_path_energies(im, w, t)[0])
        fd_f = energy.fd_second(
            lambda t: energy.free_path_energies(im, w, t)[1])
        assert_allclose(sv["d2_area"], fd_a, rtol=1e-5, atol=1e-9)
        assert_allclose(sv["d2_f"], fd_f, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("name", ["perturbed_clifford", "perturbed_equator",
                                  "round_sphere", "perturbed_clifford_in_r4"])
def test_area_terms_match_jet_second_variation(request, name):
    # the explicit three-term area hessian shares no code with the jet
    # route, so the two are each other's oracle
    if name == "perturbed_clifford_in_r4":
        im = surface.make_preset(name, resolution=16)
    else:
        im = request.getfixturevalue(name)
    for seed in range(3):
        w = surface.random_variation(im, seed=seed, band=2)
        jet = energy.second_variation_ambient(im, w)["d2_area"]
        explicit = energy.second_variation_area_terms(im, w)
        assert abs(jet) > 1e-3
        assert_allclose(explicit, jet, rtol=1e-12, atol=0)


def test_second_variation_polarization_symmetric(clifford):
    wa = surface.random_variation(clifford, seed=0, amplitude=0.01, band=2,
                                  tangent=True)
    wb = surface.random_variation(clifford, seed=1, amplitude=0.01, band=2,
                                  tangent=True)
    ab = energy.second_variation_ambient(clifford, wa, wb)
    ba = energy.second_variation_ambient(clifford, wb, wa)
    assert_allclose(ab["d2_area"], ba["d2_area"], rtol=1e-10)
    assert_allclose(ab["d2_f"], ba["d2_f"], rtol=1e-10)


def test_constrained_second_variation_matches_projected_fd(clifford):
    # constrained form against the independent radially-projected path
    sigma = 0.3
    for seed in range(3):
        w = surface.random_variation(clifford, seed=seed, amplitude=0.01,
                                     band=2, tangent=True)
        an = energy.second_variation_constrained(clifford, w, sigma=sigma)
        fd = (energy.fd_second(
            lambda t: energy.projected_path_energies(clifford, w, t)[0])
            + sigma ** 2 * energy.fd_second(
                lambda t: energy.projected_path_energies(clifford, w, t)[1]))
        assert_allclose(an, fd, rtol=1e-5, atol=1e-9)


def test_paths_agree_at_zero(clifford):
    w = surface.random_variation(clifford, seed=5, amplitude=0.01, band=2,
                                 tangent=True)
    free = energy.free_path_energies(clifford, w, 0.0)
    proj = energy.projected_path_energies(clifford, w, 0.0)
    rep = energy.evaluate_energies(clifford)
    assert_allclose(free, (rep.area, rep.f_energy), rtol=1e-12)
    assert_allclose(proj, (rep.area, rep.f_energy), rtol=1e-12)


def test_covariant_hessian_trace_is_tension(clifford_r4):
    # flat ambient: the trace of the covariant hessian of the immersion
    # itself is its tension field, which equals the mean curvature trace
    im = clifford_r4
    geom = im.geometry
    P = im.samples()
    w = surface.Variation(im, samples=P.copy())
    ch = energy.covariant_hessian(im, w)
    tr = np.einsum("...ij,...ijq->...q", geom.ginv, ch)
    assert_allclose(tr, geom.trace_II, atol=1e-8)


def test_composed_variation_bounds(clifford, round_sphere):
    field = energy.polynomial_field(
        const=np.array([0.1, -0.2, 0.05, 0.3]),
        lin=0.2 * np.eye(4),
        quad=0.05 * np.ones((4, 4, 4)))
    out = energy.composed_variation_bounds(clifford, field)
    assert out["grad_lhs"] <= out["grad_rhs"] * (1 + 1e-12)
    assert out["hess_lhs"] <= out["hess_rhs"] * (1 + 1e-12)
    field3 = energy.polynomial_field(
        const=np.array([0.1, -0.2, 0.05]),
        lin=0.1 * np.eye(3))
    out3 = energy.composed_variation_bounds(round_sphere, field3)
    assert out3["grad_lhs"] <= out3["grad_rhs"] * (1 + 1e-12)
    assert out3["hess_lhs"] <= out3["hess_rhs"] * (1 + 1e-12)


def _vector_jet_kernels(im, in_flight=24):
    """The node kernels and gradients by the vector-jet route: one jet of
    pointwise_geometry per coordinate direction e_i and e_i + e_j of the
    6Q node coordinates, hessian entries by polarization."""
    n = 6 * im.ambient.dim
    ii, jj = np.triu_indices(n)
    E = np.zeros((len(ii), n))
    E[np.arange(len(ii)), ii] = 1.0
    E[np.arange(len(ii)), jj] = 1.0
    c = np.empty((2, len(ii), im.basis.num_nodes))
    b = np.empty((2, len(ii), im.basis.num_nodes))
    for lo in range(0, len(ii), in_flight):
        W, Wu, Wv, Wuu, Wuv, Wvv = np.split(E[lo:lo + in_flight, None], 6,
                                            axis=-1)
        Wd = np.stack([Wu, Wv], -2)
        Wdd = np.stack([np.stack([Wuu, Wuv], -2), np.stack([Wuv, Wvv], -2)],
                       -3)
        for k, d in enumerate(energy._jet_densities(im, W, Wd, Wdd)):
            c[k, lo:lo + in_flight], b[k, lo:lo + in_flight] = d.c, d.b
    diag = ii == jj
    out = []
    for ck in c:
        kd = ck[diag]
        K = np.empty((im.basis.num_nodes, n, n))
        K[:, ii, jj] = K[:, jj, ii] = np.where(
            diag[:, None], ck, 0.5 * (ck - kd[ii] - kd[jj])).T
        out.append(K)
    return out + [bk[diag].T for bk in b]


@pytest.mark.parametrize("name", ["perturbed_equator", "round_sphere",
                                  "perturbed_clifford", "clifford_r4"])
def test_gram_kernels_match_vector_jets_per_node(request, name):
    # the Gram route against the jets of pointwise_geometry, node by node;
    # next to the poles of the sphere chart the Gram route keeps these
    # digits only at its sheared and scaled coordinates
    im = request.getfixturevalue(name)
    for new, ref in zip(energy._node_kernels(im), _vector_jet_kernels(im)):
        axes = tuple(range(1, ref.ndim))
        err = np.max(np.abs(new - ref), axis=axes)
        assert np.all(err <= 1e-13 * np.max(np.abs(ref), axis=axes))
    # the Gram densities are pointwise_geometry's densities
    P, Pd, Pdd = im.derivatives()
    X = energy.node_coordinates(P, Pd, Pdd).reshape(len(P), 6, -1)
    G = [[np.sum(X[:, p] * X[:, q], axis=-1) for q in range(6)]
         for p in range(6)]
    weights = im.basis.chart_weights
    gram = energy._gram_densities(G, im.ambient.frame_size, weights)
    ref = energy._node_densities(
        surface.pointwise_geometry(P, Pd, Pdd, im.ambient), weights)
    for a, b in zip(gram, ref):
        assert_allclose(a, b, rtol=1e-12, atol=0)
