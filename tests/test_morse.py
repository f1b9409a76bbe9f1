import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from viscmin import energy, morse, surface
from viscmin.errors import GramNotSPD, NonCriticalWarning
from viscmin.fourier import FourierBasis
from viscmin.sphharm import SphHarmBasis

# Closed-form sigma spectrum of the clifford torus.  On the normal modes
# below the constrained A_sigma eigenvalue is a + sigma^2 b, listed as
# (a, b, multiplicity): the breathing mode 1, the four modes cos/sin u and
# cos/sin v, and the four (1, +-1) modes, which are rotations of S^3 and
# stay null at every sigma.  The oracle tests below derive these numbers
# without the jet pipeline.
CLIFFORD_SIGMA_MODES = [(-4.0, 156.0, 1), (-2.0, 62.0, 4), (0.0, 0.0, 4)]
ORACLE_COEFF_TOL = 1e-5


def _second_derivative(f, x=0.0, h=2e-3):
    """Fourth-order central second difference of f at x."""
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h)
            - f(x - 2 * h)) / (12 * h * h)


def test_equator_spectrum(equator):
    rep = morse.jacobi_spectrum(equator, 0.0, cutoff=4, warn_critical=False)
    assert rep.index == 1
    assert rep.nullity == 3
    assert_allclose(np.min(rep.eigenvalues), -2.0, atol=1e-6)


def test_clifford_spectrum(clifford):
    rep = morse.jacobi_spectrum(clifford, 0.0, cutoff=4, warn_critical=False)
    assert rep.index == 5
    assert rep.nullity == 4
    neg = np.sort(rep.eigenvalues[rep.eigenvalues < -rep.eps_neg])
    assert_allclose(neg, [-4.0, -2.0, -2.0, -2.0, -2.0], atol=1e-6)


def test_spectrum_scales_with_a_small_torus_in_r4(clifford_r4):
    # the frame seed, the position vector, is held against its own length:
    # a Clifford torus of radius 0.05 keeps its frame, and its spectrum is
    # the unit torus's over 0.05^2
    scale = 0.05
    small = surface.SampledImmersion.from_samples(
        clifford_r4.ambient, clifford_r4.topology, clifford_r4.basis,
        scale * clifford_r4.samples())
    ref = morse.jacobi_spectrum(clifford_r4, 0.0, cutoff=2,
                                warn_critical=False)
    rep = morse.jacobi_spectrum(small, 0.0, cutoff=2, warn_critical=False)
    assert (rep.index, rep.nullity) == (ref.index, ref.nullity) == (1, 4)
    assert_allclose(rep.eigenvalues * scale ** 2, ref.eigenvalues,
                    rtol=0, atol=1e-12)


def test_index_stabilizes_under_basis_growth(equator):
    a = morse.jacobi_spectrum(equator, 0.0, cutoff=3, warn_critical=False)
    b = morse.jacobi_spectrum(equator, 0.0, cutoff=5, warn_critical=False)
    assert a.index == b.index
    assert a.nullity == b.nullity


def test_sigma_stiffens_spectrum(clifford):
    # the curvature term is positive definite on the clifford modes: at
    # large sigma every direction has positive constrained second variation
    rep = morse.jacobi_spectrum(clifford, 0.5, cutoff=2, warn_critical=False)
    assert rep.index == 0


def test_hessian_diagonal_consistent(clifford):
    basis = morse.normal_variation_basis(clifford, 3)
    H, G, grad_norm = morse.assemble_hessian(clifford, basis, 0.1,
                                             warn_critical=False)
    diag = morse.hessian_diagonal(clifford, basis, 0.1)
    gram_diag, grad = morse.basis_gradient(clifford, basis, 0.1)
    # two contractions of the node kernels (retraction form folded in):
    # block by block per field, and the dense assembly that H comes from
    ref = np.diag(H)
    assert np.max(np.abs(diag - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert_allclose(gram_diag, np.diag(G), rtol=0, atol=0)
    assert len(grad) == len(basis)
    # clifford is A^sigma-critical for every sigma: F is stationary there
    assert np.max(np.abs(grad)) <= 1e-10


def test_gram_positive(clifford):
    basis = morse.normal_variation_basis(clifford, 2)
    G = basis.gram()
    vals = np.linalg.eigvalsh(G)
    assert np.min(vals) > 0


def test_warn_on_noncritical(perturbed_clifford):
    with pytest.warns(NonCriticalWarning):
        morse.jacobi_spectrum(perturbed_clifford, 0.0, cutoff=2,
                              warn_critical=True)


def test_spectrum_report_fields(equator):
    rep = morse.jacobi_spectrum(equator, 0.1, cutoff=3, warn_critical=False)
    d = rep.to_dict()
    for key in ("sigma", "index", "nullity", "eps_neg", "eigenvalues",
                "basis_size", "grad_norm"):
        assert key in d
    assert d["sigma"] == 0.1
    assert d["basis_size"] == len(d["eigenvalues"])


def test_spectrum_index_synthetic():
    # hand-built 3x3 generalized problem: eigenvalues -1, 0, 2
    Q = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    mu = np.array([-1.0, 0.0, 2.0])
    H = Q @ np.diag(mu) @ Q.T
    G = Q @ Q.T
    rep = morse.spectrum_index(H, G, eps_neg=1e-8)
    assert rep.index == 1
    assert rep.nullity == 1
    assert_allclose(np.sort(rep.eigenvalues), mu, atol=1e-10)


def test_spectrum_index_rejects_bad_gram():
    H = np.eye(2)
    G = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(GramNotSPD):
        morse.spectrum_index(H, G)


@pytest.mark.parametrize("fixture", ["clifford", "perturbed_clifford",
                                     "equator"])
def test_spectrum_index_matches_scipy_generalized_eigh(request, fixture):
    # the Cholesky reduction and eigvalsh against scipy's generalized
    # solver on real pencils: eigenvalues within 1e-13 of the largest, and
    # the same counts under the same default threshold
    im = request.getfixturevalue(fixture)
    H_area, H_f, G, _, _ = morse.sigma_pencil(
        im, morse.normal_variation_basis(im, 3))
    for sigma in (0.0, 0.17, 0.3):
        H = H_area + sigma ** 2 * H_f
        rep = morse.spectrum_index(H, G, sigma)
        ref = scipy.linalg.eigh(H, G, eigvals_only=True)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(rep.eigenvalues - ref)) <= 1e-13 * scale
        eps = 1e-6 * max(1.0, scale)
        assert rep.index == np.sum(ref < -eps)
        assert rep.nullity == np.sum(np.abs(ref) <= eps)


def test_reparametrization_invariance_of_spectrum(clifford):
    # pull the clifford torus back along a seeded diffeomorphism; the
    # constrained spectrum is a property of the surface, not the chart
    basis = clifford.basis
    rng = np.random.default_rng(11)
    pts = basis.grid_points
    vec = np.zeros_like(pts)
    for (m, n) in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        for trig in (np.sin, np.cos):
            ph = trig(m * pts[:, 0] + n * pts[:, 1])
            vec[:, 0] += rng.normal() * ph
            vec[:, 1] += rng.normal() * ph
    vec *= 0.05 / max(1.0, np.max(np.abs(vec)))
    moved = basis.evaluate_at(clifford.coeffs, pts + vec).real
    im2 = surface.SampledImmersion.from_samples(
        clifford.ambient, clifford.topology, basis, moved)

    ref = morse.jacobi_spectrum(clifford, 0.0, cutoff=3, warn_critical=False)
    rep = morse.jacobi_spectrum(im2, 0.0, cutoff=3, warn_critical=False)
    assert rep.index == ref.index
    assert rep.nullity == ref.nullity
    neg_ref = np.sort(ref.eigenvalues[ref.eigenvalues < -ref.eps_neg])
    neg = np.sort(rep.eigenvalues[rep.eigenvalues < -rep.eps_neg])
    assert np.max(np.abs(neg - neg_ref) / np.abs(neg_ref)) <= 1e-6


def test_sigma_oracle_parallel_families():
    # constant normal pushes (Phi + s nu) / |Phi + s nu| move the clifford
    # torus through the tori of radii cos(alpha), sin(alpha) with
    # alpha = pi/4 - arctan(s), and the equator through the parallel
    # spheres at latitude arctan(s): unit speed, zero acceleration, so the
    # second s-derivatives are those of the closed-form family energies,
    # divided by the Gram entry (the area) for the eigenvalue
    def torus(alpha):
        area = 2 * np.pi ** 2 * np.sin(2 * alpha)
        return np.array([area, area * (1 + np.tan(alpha) ** 2
                                       + np.tan(alpha) ** -2) ** 2])

    def sphere(lat):
        area = 4 * np.pi * np.cos(lat) ** 2
        return np.array([area, area * (1 + 2 * np.tan(lat) ** 2) ** 2])

    breathing = _second_derivative(torus, np.pi / 4) / (2 * np.pi ** 2)
    equator = _second_derivative(sphere) / (4 * np.pi)
    assert_allclose(breathing, CLIFFORD_SIGMA_MODES[0][:2],
                    rtol=0, atol=ORACLE_COEFF_TOL)
    assert_allclose(equator, [-2.0, 6.0], rtol=0, atol=ORACLE_COEFF_TOL)


def _explicit_clifford_coefficients(sp, mode, n=24):
    """(a, b) of one normal mode from the explicit immersion path.

    The path (Phi + t s nu) / sqrt(1 + t^2 s^2) of the clifford torus is
    differentiated in the chart by sympy; metric, unit normal in S^3 and
    |II|^2 are plain numpy algebra on an n x n periodic grid, and the
    second t-derivatives of Area and F come from a finite difference.
    """
    u, v, t = sp.symbols("u v t", real=True)
    c = 1 / sp.sqrt(2)
    phi = sp.Matrix([c * sp.cos(u), c * sp.sin(u), c * sp.cos(v),
                     c * sp.sin(v)])
    nu = sp.Matrix([c * sp.cos(u), c * sp.sin(u), -c * sp.cos(v),
                    -c * sp.sin(v)])
    s = mode(u, v)
    path = (phi + t * s * nu) / sp.sqrt(1 + (t * s) ** 2)
    jets = [path, path.diff(u), path.diff(v), path.diff(u, 2),
            path.diff(u, v), path.diff(v, 2)]
    jet_fn = sp.lambdify((u, v, t), [x for d in jets for x in d], "numpy")
    mode_fn = sp.lambdify((u, v), s, "numpy")

    nodes = 2 * np.pi * np.arange(n) / n
    U, V = (x.ravel() for x in np.meshgrid(nodes, nodes, indexing="ij"))
    weight = (2 * np.pi / n) ** 2

    def densities(tt):
        comps = [np.broadcast_to(np.asarray(x, float), U.shape)
                 for x in jet_fn(U, V, tt)]
        P, Pu, Pv, Puu, Puv, Pvv = (np.stack(comps).reshape(6, 4, -1)
                                    .transpose(0, 2, 1))
        g = np.stack([np.stack([np.sum(Pu * Pu, 1), np.sum(Pu * Pv, 1)], -1),
                      np.stack([np.sum(Pv * Pu, 1), np.sum(Pv * Pv, 1)], -1)],
                     -2)
        # normal of the surface inside S^3: cofactors of [e_k; P; Pu; Pv]
        frame = np.stack([P, Pu, Pv], axis=1)
        normal = np.stack([np.linalg.det(np.concatenate(
            [np.broadcast_to(e, (len(P), 1, 4)), frame], axis=1))
            for e in np.eye(4)], axis=1)
        normal /= np.linalg.norm(normal, axis=1, keepdims=True)
        h = [np.sum(X * normal, 1) for X in (Puu, Puv, Pvv)]
        II = np.stack([np.stack([h[0], h[1]], -1),
                       np.stack([h[1], h[2]], -1)], -2)
        shape_op = np.linalg.solve(g, II)
        II2 = np.einsum("nij,nji->n", shape_op, shape_op)
        dvol = np.sqrt(np.linalg.det(g))
        return dvol, dvol * (1 + II2) ** 2

    def energies(tt):
        return weight * np.array([np.sum(d) for d in densities(tt)])

    s_vals = np.broadcast_to(np.asarray(mode_fn(U, V), float), U.shape)
    gram = weight * np.sum(s_vals ** 2 * densities(0.0)[0])
    return _second_derivative(energies) / gram


def test_sigma_oracle_clifford_explicit_immersion():
    sp = pytest.importorskip("sympy")
    cases = [
        (lambda u, v: sp.Integer(1), CLIFFORD_SIGMA_MODES[0]),
        (lambda u, v: sp.cos(u), CLIFFORD_SIGMA_MODES[1]),
        (lambda u, v: sp.cos(u + v), CLIFFORD_SIGMA_MODES[2]),
    ]
    for mode, (a, b, _) in cases:
        coeffs = _explicit_clifford_coefficients(sp, mode)
        assert_allclose(coeffs, [a, b], rtol=0, atol=ORACLE_COEFF_TOL)


def test_sigma_pencil_matches_sigma_oracle(clifford):
    # the area part alone carries the a values; one pencil gives the
    # spectrum at any sigma
    basis = morse.normal_variation_basis(clifford, 2)
    H_area, H_f, G, grad_area, grad_f = morse.sigma_pencil(clifford, basis)
    area = np.sort(scipy.linalg.eigh(H_area, G, eigvals_only=True))
    predicted = [a for a, _, mult in CLIFFORD_SIGMA_MODES for _ in range(mult)]
    assert_allclose(area[:len(predicted)], predicted, rtol=0, atol=1e-10)
    assert area[len(predicted)] > 1.0
    sigma = 0.17
    rep = morse.spectrum_index(H_area + sigma ** 2 * H_f, G, sigma)
    ref = morse.jacobi_spectrum(clifford, sigma, cutoff=2,
                                warn_critical=False)
    scale = np.max(np.abs(ref.eigenvalues))
    assert np.max(np.abs(rep.eigenvalues - ref.eigenvalues)) <= 1e-12 * scale
    assert (rep.index, rep.nullity) == (ref.index, ref.nullity) == (4, 4)


@pytest.mark.parametrize("fixture", ["perturbed_clifford", "perturbed_equator",
                                     "round_sphere"])
def test_pencil_gradient_matches_first_variation(request, fixture):
    # the pencil reads the gradient off the node gradient of the kernel
    # pass; the explicit first-variation formulas are the other route
    im = request.getfixturevalue(fixture)
    basis = morse.normal_variation_basis(im, 2)
    _, _, _, grad_area, grad_f = morse.sigma_pencil(im, basis)
    for sigma in (0.0, 0.3):
        _, ref = morse.basis_gradient(im, basis, sigma)
        grad = grad_area + sigma ** 2 * grad_f
        assert np.max(np.abs(grad - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("sigma, index", [(0.17, 4), (0.25, 0)])
def test_jacobi_spectrum_matches_sigma_oracle(clifford, sigma, index):
    # 1/sqrt(39) < 0.17 < 1/sqrt(31): only the four -2 + 62 sigma^2 modes
    # are still negative; at 1/4 every clifford mode has stiffened
    rep = morse.jacobi_spectrum(clifford, sigma, cutoff=3,
                                warn_critical=False)
    predicted = np.sort([a + sigma ** 2 * b
                         for a, b, mult in CLIFFORD_SIGMA_MODES
                         for _ in range(mult)])
    lowest = np.sort(rep.eigenvalues)[:len(predicted)]
    assert_allclose(lowest, predicted, rtol=0, atol=1e-6)
    assert rep.index == index
    assert rep.nullity == 4


def test_sphere_scalar_modes_match_evaluate_at(equator):
    # the modes are read off the basis tables; the one-hot synthesis at the
    # grid nodes is the reference, bit for bit
    cutoff = 4
    modes, labels = equator.basis.real_modes(cutoff)
    helper = SphHarmBasis(cutoff)
    pts = equator.basis.grid_points
    assert len(modes) == helper.mode_count
    for ell in range(cutoff + 1):
        for m in range(-ell, ell + 1):
            k = ell * ell + ell + m
            coeff = np.zeros(helper.mode_count)
            coeff[k] = 1.0
            ref = helper.evaluate_at(coeff[:, None], pts)[:, 0]
            assert labels[k] == f"Y({ell},{m})"
            assert np.array_equal(modes[k], ref)


@pytest.mark.parametrize("fixture, cutoff, sigma", [
    ("perturbed_clifford", 2, 0.17),
    ("perturbed_equator", 2, 0.3),
    ("round_sphere", 2, 0.17),
])
def test_kernel_hessian_matches_polarized_oracle(request, fixture, cutoff,
                                                 sigma):
    # every entry against the polarized constrained second variation, which
    # never builds a node kernel; the sphere fixtures exercise the folded
    # retraction-curvature form, the round sphere in R^3 a frame of size 2.
    # The fitted normal fields of the perturbed torus leave the tangent
    # bundle by about 2e-6, so the oracle's tangency check is switched off:
    # both sides evaluate the same formula, tangent or not
    im = request.getfixturevalue(fixture)
    basis = morse.normal_variation_basis(im, cutoff)
    H, G, _ = morse.assemble_hessian(im, basis, sigma, warn_critical=False)
    M = len(basis)
    ref = np.empty((M, M))
    for a in range(M):
        for b in range(a, M):
            ref[a, b] = ref[b, a] = energy.second_variation_constrained(
                im, basis.fields[a], basis.fields[b], sigma=sigma,
                tangent_tol=np.inf)
    assert np.max(np.abs(H - ref)) <= 1e-12 * np.max(np.abs(ref))
    rep = morse.spectrum_index(H, G, sigma)
    rep_ref = morse.spectrum_index(ref, G, sigma)
    assert (rep.index, rep.nullity) == (rep_ref.index, rep_ref.nullity)


@pytest.mark.parametrize("sigma, index, gap", [(0.0, 5, 2.0),
                                               (0.17, 4, 0.2082)])
def test_tangential_fields_sit_in_the_radical(clifford, sigma, index, gap):
    # reparametrizations move along the critical orbit: adding them to the
    # basis adds exactly their count to the nullity and moves nothing else
    normal = morse.jacobi_spectrum(clifford, sigma, cutoff=2,
                                   warn_critical=False)
    full = morse.jacobi_spectrum(clifford, sigma, cutoff=2,
                                 include_tangential=True, warn_critical=False)
    extra = len(morse.reparametrization_basis(clifford, 2))
    assert extra == 50
    assert (normal.index, normal.nullity) == (index, 4)
    assert (full.index, full.nullity) == (index, 4 + extra)

    def live(rep):
        return np.sort(rep.eigenvalues[np.abs(rep.eigenvalues) > rep.eps_neg])

    assert_allclose(live(full), live(normal), rtol=0, atol=1e-10)
    # the null band is separated from the next eigenvalue by its closed form
    above = np.sort(np.abs(full.eigenvalues))[full.nullity]
    assert_allclose(above, gap, rtol=1e-9)
    assert above > 1000 * full.eps_neg


@pytest.mark.parametrize("fixture", ["clifford", "equator"])
def test_low_spectrum_stable_under_grid_refinement(request, fixture):
    # the mode basis is fixed and the grid grows from 16 to 24: aliasing of
    # the integrands at the coarse grid would move the low eigenvalues
    im = request.getfixturevalue(fixture)
    coarse = morse.jacobi_spectrum(im, 0.17, cutoff=3, warn_critical=False)
    fine = morse.jacobi_spectrum(im.resample(24), 0.17, cutoff=3,
                                 warn_critical=False)
    lo = np.sort(coarse.eigenvalues)[:9]
    hi = np.sort(fine.eigenvalues)[:9]
    assert_allclose(hi, lo, rtol=0, atol=1e-9)


@pytest.mark.parametrize("fixture", ["perturbed_clifford", "perturbed_equator"])
def test_jet_passes_independent_of_cpu_count(request, monkeypatch, fixture):
    # no pass starts a thread, so the CPU count reaches no result; what
    # splits the work is the node block of the kernel pass, and every
    # consumer of it must come out the same bits for any block size
    im = request.getfixturevalue(fixture)
    basis = morse.normal_variation_basis(im, 1)

    def passes(block):
        monkeypatch.setattr(energy, "_NODE_BLOCK", block)
        pencil = morse.sigma_pencil(im, basis)
        H, G, grad_norm = morse.assemble_hessian(
            im, basis, 0.3, warn_critical=False)
        diag = morse.hessian_diagonal(im, basis, 0.3)
        gradient = morse.basis_gradient(im, basis, 0.3)
        return pencil + (H, G, np.array(grad_norm), diag) + gradient

    ref = passes(256)
    for block in (7, 64):
        for a, b in zip(ref, passes(block)):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("fixture", ["perturbed_equator",
                                     "perturbed_clifford_r4"])
def test_hessian_diagonal_matches_assembly_off_critical(request, fixture):
    # away from a critical point, in the sphere ambient (retraction term)
    # and in flat space: the block-wise diagonal against the dense
    # assembly's, and against the vector-jet route, one order-2 jet pass
    # over the fields plus the first variation of their retraction
    # curvatures
    im = request.getfixturevalue(fixture)
    basis = morse.normal_variation_basis(im, 2)
    sigma = 0.3
    diag = morse.hessian_diagonal(im, basis, sigma)
    H, _, grad_norm = morse.assemble_hessian(im, basis, sigma,
                                             warn_critical=False)
    assert grad_norm > 1e-3
    triple = basis.triples()
    jets, _ = energy.batched_quadratic(im, *triple, sigma)
    if im.ambient.kind == "sphere":
        V = energy._retraction_curvature_triple(*im.derivatives(), *triple,
                                                *triple)
        jets = jets + energy.batched_linear(im, *V, sigma)
    for ref in (np.diag(H), jets):
        assert np.max(np.abs(diag - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("fixture", ["perturbed_clifford", "perturbed_equator"])
def test_batched_triples_match_per_field_synthesis(request, fixture):
    # the family is synthesized in one pass over its stacked coefficients;
    # each field must come out as its own Variation.derivatives would
    im = request.getfixturevalue(fixture)
    basis = morse.normal_variation_basis(im, 2)
    triples = basis.triples()
    per_field = [np.stack(x) for x in
                 zip(*(f.derivatives() for f in basis.fields))]
    for batched, single in zip(triples, per_field):
        assert batched.shape == single.shape
        assert np.max(np.abs(batched - single)) <= \
            1e-13 * np.max(np.abs(single))
        if isinstance(im.basis, FourierBasis):
            # every FFT row is transformed on its own either way
            assert np.array_equal(batched, single)
    values = np.stack([f.values for f in basis.fields])
    gram = np.einsum("anq,bnq,n->ab", values, values, im.geometry.dvol)
    assert_allclose(basis.gram(), gram, rtol=1e-13, atol=0)
    if isinstance(im.basis, FourierBasis):
        assert np.array_equal(basis.gram(), gram)
    # kept on the basis and shared by every caller, so read-only
    assert all(a is b for a, b in zip(basis.triples(), triples))
    for x in triples:
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0


@pytest.mark.parametrize("fixture", ["perturbed_clifford", "perturbed_equator"])
def test_sigma_pencil_independent_of_node_blocks(request, monkeypatch,
                                                 fixture):
    # the kernel pass runs in blocks of nodes; a node's kernels must not
    # depend on the block it lands in
    im = request.getfixturevalue(fixture)
    basis = morse.normal_variation_basis(im, 1)

    def pencil(block):
        monkeypatch.setattr(energy, "_NODE_BLOCK", block)
        return morse.sigma_pencil(im, basis)

    ref = pencil(energy._NODE_BLOCK)
    for block in [1, 7, 45, im.basis.num_nodes]:
        for a, b in zip(ref, pencil(block)):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("fixture", ["perturbed_clifford", "perturbed_equator"])
def test_reparametrization_basis_matches_per_field_fits(request, fixture):
    # the family is fitted in one call; each field must be the
    # tangential_field of its chart field s e_k, fitted on its own
    im = request.getfixturevalue(fixture)
    cutoff = 2
    basis = morse.reparametrization_basis(im, cutoff)
    modes, mode_labels = im.basis.real_modes(cutoff)
    ref, labels = [], []
    for s, lab in zip(modes, mode_labels):
        for k in range(2):
            X = np.zeros((len(s), 2))
            X[:, k] = s
            ref.append(surface.tangential_field(im, X).coeffs)
            labels.append(f"{lab}*d{k + 1}")
    ref = np.stack(ref, axis=-2)
    assert basis.labels == labels
    assert basis.coeffs.shape == ref.shape
    if isinstance(im.basis, FourierBasis):
        assert np.array_equal(basis.coeffs, ref)
    else:
        assert np.max(np.abs(basis.coeffs - ref)) <= \
            1e-13 * np.max(np.abs(ref))


def test_extend_concatenates_coefficients_and_labels(equator):
    normal = morse.normal_variation_basis(equator, 2)
    tangential = morse.reparametrization_basis(equator, 1)
    both = normal.extend(tangential)
    assert len(both) == len(normal) + len(tangential)
    assert both.labels == normal.labels + tangential.labels
    # the family axis is -2, before the ambient components
    assert np.array_equal(both.coeffs[..., :len(normal), :], normal.coeffs)
    assert np.array_equal(both.coeffs[..., len(normal):, :],
                          tangential.coeffs)
    assert np.array_equal(both.fields[len(normal)].coeffs,
                          tangential.coeffs[..., 0, :])
