import numpy as np
import pytest
from numpy.testing import assert_allclose

from viscmin import energy, morse, surface

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


def test_constrained_second_variation_matches_projected_fd(
        clifford, equator_s4, round_sphere):
    # constrained form against the independent retracted path, in S^3, in
    # codimension two in S^4 and in flat R^3 (where both are the free ones);
    # at amplitude 0.01 the equator's second variations are near 1e-3 and
    # the difference quotient's rounding floor (3e-8) is 3e-5 of them
    sigma = 0.3
    for im, amplitude in ((clifford, 0.01), (equator_s4, 0.1),
                          (round_sphere, 0.1)):
        for seed in range(3):
            w = surface.random_variation(im, seed=seed, amplitude=amplitude,
                                         band=2, tangent=True)
            an = energy.second_variation_constrained(im, w, sigma=sigma)
            fd = (energy.fd_second(
                lambda t: energy.projected_path_energies(im, w, t)[0])
                + sigma ** 2 * energy.fd_second(
                    lambda t: energy.projected_path_energies(im, w, t)[1]))
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


def _retraction_forms(im):
    """The node forms r (2, N, 6, 6) of (w_a, w_b) -> DA(-(w_a . w_b) Phi)
    for the area and F densities, by the explicit first variation of the
    product-rule retraction field: unit node directions in slots p and q
    of one ambient component, weighted by dvol.  The kernel is
    r (x) I_Q, since the field pairs equal components only."""
    Q = im.ambient.dim
    slots = np.zeros((6, 1, 6 * Q))
    slots[np.arange(6), 0, np.arange(6) * Q] = 1.0
    W, Wu, Wv, Wuu, Wuv, Wvv = np.split(slots, 6, axis=-1)
    triple = (W, np.stack([Wu, Wv], -2),
              np.stack([np.stack([Wuu, Wuv], -2), np.stack([Wuv, Wvv], -2)],
                       -3))
    # pair every slot p (leading axis) with every slot q (next axis)
    a = [x[:, None] for x in triple]
    b = [x[None, :] for x in triple]
    V = energy._retraction_curvature_triple(*im.derivatives(), *a, *b)
    dvol = im.geometry.dvol
    return [np.moveaxis(d * dvol, -1, 0)
            for d in energy._first_variation_densities(im, *V)]


def _node_kernels(im):
    """The blocks of energy._node_kernel_blocks stacked over every node:
    (K_area, K_f, g_area, g_f), K of shape (N, 6Q, 6Q), g of shape
    (N, 6Q)."""
    blocks = [[x.copy() for x in block[2:]]
              for block in energy._node_kernel_blocks(im)]
    return [np.concatenate(parts) for parts in zip(*blocks)]


@pytest.mark.parametrize("name", ["perturbed_equator", "round_sphere",
                                  "perturbed_clifford", "clifford_r4",
                                  "equator", "clifford"])
def test_gram_kernels_match_vector_jets_per_node(request, name):
    # the Gram route against the jets of pointwise_geometry, node by node,
    # plus in the sphere ambient the retraction form from the explicit
    # first variation; next to the poles of the sphere chart the Gram route
    # keeps these digits only at its sheared and scaled coordinates
    im = request.getfixturevalue(name)
    refs = _vector_jet_kernels(im)
    if im.ambient.kind == "sphere":
        Q = im.ambient.dim
        for K, r in zip(refs, _retraction_forms(im)):
            K += np.einsum("npq,ij->npiqj", r, np.eye(Q)).reshape(K.shape)
    for new, ref in zip(_node_kernels(im), refs):
        axes = tuple(range(1, ref.ndim))
        err = np.max(np.abs(new - ref), axis=axes)
        assert np.all(err <= 1e-13 * np.max(np.abs(ref), axis=axes))
    # the nine-entry densities at the sheared and scaled node vectors,
    # times their scale, are pointwise_geometry's densities
    P, Pd, Pdd = im.derivatives()
    _, Xs, _, scale, _ = _sheared_node_vectors(im)
    weights = im.basis.chart_weights
    nine = energy._nine_entry_densities(
        [np.sum(Xs[:, p] * Xs[:, q], axis=-1)
         for p, q in zip(energy._PSI_P, energy._PSI_Q)], weights * scale)
    ref = energy._node_densities(
        surface.pointwise_geometry(P, Pd, Pdd, im.ambient), weights)
    for a, b in zip(nine, ref):
        assert_allclose(a, b, rtol=1e-12, atol=0)


def _stacked_pencil(im, basis):
    """sigma_pencil's sums over the stacked kernels of every node, each
    taken in one contraction over the whole grid."""
    K_area, K_f, g_area, g_f = _node_kernels(im)
    Y = energy.node_coordinates(*basis.triples())
    Y_nodes, Y_rows = np.swapaxes(Y, 0, 1), Y.reshape(len(Y), -1)
    H_area, H_f = (np.swapaxes(Y_nodes @ K, 0, 1).reshape(Y_rows.shape)
                   @ Y_rows.T for K in (K_area, K_f))
    grad_area, grad_f = (np.einsum("anp,np->a", Y, g) for g in (g_area, g_f))
    return (0.5 * (H_area + H_area.T), 0.5 * (H_f + H_f.T), basis.gram(),
            grad_area, grad_f)


@pytest.mark.parametrize("name, cutoff", [("clifford", 3),
                                          ("perturbed_clifford", 2),
                                          ("equator", 3),
                                          ("perturbed_equator", 2)])
def test_sigma_pencil_matches_stacked_kernels(request, name, cutoff):
    # the pencil contracts the kernel pass in fixed node chunks; on the
    # torus grids one chunk holds every node, so its sums are the stacked
    # contraction's bits, and on the sphere grids they differ only in
    # summation order
    im = request.getfixturevalue(name)
    basis = morse.normal_variation_basis(im, cutoff)
    pencil = morse.sigma_pencil(im, basis)
    ref = _stacked_pencil(im, basis)
    if im.basis.num_nodes <= morse._PENCIL_CHUNK:
        for a, b in zip(pencil, ref):
            assert a.tobytes() == b.tobytes()
        return
    for a, b in zip(pencil[:2], ref[:2]):
        assert np.max(np.abs(a - b)) <= 2e-15 * np.max(np.abs(b))
    assert pencil[2].tobytes() == ref[2].tobytes()
    if name.startswith("perturbed"):
        for a, b in zip(pencil[3:], ref[3:]):
            assert np.max(np.abs(a - b)) <= 5e-14 * np.max(np.abs(b))


def test_sigma_pencil_holds_no_kernel_stacks():
    # one pencil on the equator at degree 16, cutoff 3, allocates less at
    # its peak than the two (N, 6Q, 6Q) kernel stacks it no longer forms
    # (measured 6.8 MiB, against 19.0 MiB with the stacks)
    import tracemalloc

    im = surface.make_preset("equator_s2_in_s3", resolution=16)
    basis = morse.normal_variation_basis(im, 3)
    basis.triples()
    n = 6 * im.ambient.dim
    stacks = 2 * im.basis.num_nodes * n * n * 8
    tracemalloc.start()
    try:
        morse.sigma_pencil(im, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stacks


def _sheared_node_vectors(im):
    """(X, X', L, scale, frame) of energy._gram_coordinates over every
    node, with the frame slots of im's ambient."""
    X = energy.node_coordinates(*im.derivatives()).reshape(
        im.basis.num_nodes, 6, -1)
    frame = [1, 2, 0][:im.ambient.frame_size]
    return (X, *energy._gram_coordinates(X, frame), frame)


@pytest.mark.parametrize("name", ["perturbed_equator", "perturbed_clifford",
                                  "equator"])
def test_shear_leaves_no_cross_gram_entries(request, name):
    # the kernels drop the first-order term of the cross entries
    # X'_f . X'_a, so the shear must leave them at roundoff of |X'_f| |X'_a|
    # next to the poles of the sphere chart too; |X'_a| is floored at
    # roundoff of the slot before the shear, since on the totally geodesic
    # equator the normal parts are roundoff themselves
    im = request.getfixturevalue(name)
    X, Xs, L, _, frame = _sheared_node_vectors(im)
    F, A = Xs[:, frame], Xs[:, 3:]
    cross = np.einsum("nfq,naq->nfa", F, A)
    before = L[:, range(3, 6), range(3, 6), None] * X[:, 3:]
    normal = (np.linalg.norm(A, axis=-1)
              + np.finfo(float).eps * np.linalg.norm(before, axis=-1))
    size = np.linalg.norm(F, axis=-1)[:, :, None] * normal[:, None, :]
    assert np.max(np.abs(cross) / size) <= 1e-15
