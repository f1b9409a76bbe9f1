import numpy as np
import pytest
from numpy.testing import assert_allclose

from viscmin import continuation, energy, surface
from viscmin.errors import BadDelta, EmptyTail, OutOfRange, ShapeMismatch
from viscmin.fourier import FourierBasis

PI = np.pi


def test_default_schedule():
    sched = continuation.default_schedule(4)
    assert_allclose(sched, [0.5, 0.25, 0.125, 0.0625], rtol=0)


def test_entropy_product_values():
    # sigma^2 F log(1/sigma), zero at the sigma = 0 endpoint
    assert_allclose(continuation.entropy_product(0.5, 4 * PI),
                    PI * np.log(2.0), rtol=1e-14)
    assert continuation.entropy_product(0.0, 10.0) == 0.0


def test_config_validation():
    with pytest.raises(OutOfRange):
        continuation.ContinuationConfig(sigma_schedule=[0.25, 0.5])
    with pytest.raises(OutOfRange):
        continuation.ContinuationConfig(sigma_schedule=[0.5, 0.0])
    cfg = continuation.ContinuationConfig(sigma_schedule=[0.5, 0.25])
    cfg2 = continuation.ContinuationConfig.from_dict(cfg.to_dict())
    assert cfg2.sigma_schedule == cfg.sigma_schedule
    assert cfg2.newton_tol == cfg.newton_tol


@pytest.mark.parametrize("bad, field", [
    ({"sigma_schedule": [np.inf, 0.5]}, "sigma_schedule"),
    ({"sigma_schedule": ["inf", 0.5]}, "sigma_schedule"),
    ({"sigma_schedule": [np.nan]}, "sigma_schedule"),
    ({"newton_tol": -1.0}, "newton_tol"),
    ({"newton_tol": np.inf}, "newton_tol"),
    ({"eps_neg": -1.0}, "eps_neg"),
    ({"eps_neg": np.nan}, "eps_neg"),
    ({"max_newton": -1}, "max_newton"),
    ({"newton_cutoff": 0}, "newton_cutoff"),
    ({"spectrum_cutoff": -1}, "spectrum_cutoff")])
def test_config_rejects_out_of_range(bad, field):
    # a value no stage can use is refused when the config is built
    with pytest.raises(OutOfRange) as err:
        continuation.ContinuationConfig(**{"sigma_schedule": [0.5], **bad})
    assert err.value.field == field


def test_semicontinuity_verdict_logic():
    out = continuation.semicontinuity_verdict(5, [0, 0, 5, 5], tail_start=2)
    assert out["pass"]
    assert out["detail"]["tail_min_index"] == 5
    out = continuation.semicontinuity_verdict(5, [5, 5, 3, 3], tail_start=2)
    assert not out["pass"]
    with pytest.raises(EmptyTail):
        continuation.semicontinuity_verdict(5, [5, 5], tail_start=2)


def test_semicontinuity_verdict_integer_stages_count_as_converged():
    out = continuation.semicontinuity_verdict(5, [0, 0, 5, 5], tail_start=2)
    assert out["detail"]["unconverged_stages"] == []


def test_cutoff_spec_validation():
    with pytest.raises(BadDelta):
        continuation.CutoffSpec([(1.0, 1.0)], 0.3)
    with pytest.raises(BadDelta):
        continuation.CutoffSpec([(1.0, 1.0)], 1e-3, smoothing=0.5)
    with pytest.raises(BadDelta):
        continuation.CutoffSpec([], 1e-3)
    with pytest.raises(BadDelta):
        # two centers closer than the outer cutoff radii
        continuation.CutoffSpec([(1.0, 1.0), (1.0, 1.0 + 1e-3)], 1e-2)


def test_chi_profile_shape():
    spec = continuation.CutoffSpec([(0.0, 0.0)], 1e-3)
    s = np.array([1e-4, 1e-3, 5e-3, np.sqrt(1e-3), 0.5, 2.0])
    chi, dchi = continuation.chi_profile(s, spec)
    assert chi[0] == 0.0 and dchi[0] == 0.0
    assert chi[-1] == 1.0 and dchi[-1] == 0.0
    assert np.all((chi >= 0.0) & (chi <= 1.0))
    # interior derivative matches a finite difference
    mid = np.array([4e-3])
    h = 1e-9
    chi_p, _ = continuation.chi_profile(mid + h, spec)
    chi_m, _ = continuation.chi_profile(mid - h, spec)
    _, dchi_mid = continuation.chi_profile(mid, spec)
    assert_allclose(dchi_mid, (chi_p - chi_m) / (2 * h), rtol=1e-5)


def test_cutoff_values_product(clifford):
    spec = continuation.CutoffSpec([(1.0, 1.0), (4.0, 4.0)], 1e-3)
    chi = continuation.cutoff_values(clifford.basis.grid_points, spec)
    assert np.min(chi) >= 0.0 and np.max(chi) <= 1.0
    # vanishes at each center, one far away
    at = continuation.cutoff_values(np.array([[1.0, 1.0], [4.0, 4.0],
                                              [2.5, 5.5]]), spec)
    assert at[0] == 0.0 and at[1] == 0.0
    assert at[2] > 0.999


def test_capacity_decay(clifford):
    # W^{1,2} transfer error shrinks like 1/log(1/delta): the product
    # err^2 log(1/delta) is asymptotically flat across three decades
    w = surface.random_variation(clifford, seed=1, amplitude=0.1, band=1,
                                 tangent=True)
    products = []
    for delta in (1e-2, 1e-3, 1e-4):
        spec = continuation.CutoffSpec([(3.0, 3.0)], delta)
        out = continuation.cutoff_transfer(w, spec)
        products.append(out["w12_error"] ** 2 * np.log(1.0 / delta))
    ratios = [products[1] / products[0], products[2] / products[1]]
    for r in ratios:
        assert abs(r - 1.0) <= 0.25


def test_transport_variation(clifford, equator):
    w = surface.random_variation(clifford, seed=3, amplitude=0.02, band=2,
                                 tangent=True)
    with pytest.raises(ShapeMismatch):
        continuation.transport_variation(w, equator)
    moved = surface.SampledImmersion.from_samples(
        clifford.ambient, clifford.topology, clifford.basis,
        clifford.samples() * 1.0)
    w2 = continuation.transport_variation(w, moved)
    assert w2.tangency_defect() <= 1e-8


def test_w12_norm_scaling(clifford):
    w = surface.random_variation(clifford, seed=6, amplitude=0.05, band=2)
    n1 = continuation.w12_norm(w)
    n2 = continuation.w12_norm(w * 3.0)
    assert n1 > 0
    assert_allclose(n2, 3.0 * n1, rtol=1e-12)


def test_solve_critical_point_fixed_point(clifford):
    out = continuation.solve_critical_point(clifford, 0.1)
    assert out["converged"]
    assert out["iterations"] == 0
    assert out["grad_norm"] <= 1e-10


def test_solve_critical_point_basin():
    im = surface.make_preset("perturbed_clifford", resolution=16,
                             amplitude=0.02, seed=1)
    out = continuation.solve_critical_point(im, 0.05)
    assert out["converged"]
    assert out["grad_norm"] <= continuation.NEWTON_TOL
    # the solution is a reparametrized clifford torus: invariant defects
    defect = continuation.clifford_defect(out["immersion"])
    assert defect["mean_curvature"] <= 1e-4
    assert defect["ii_norm2"] <= 1e-4
    assert defect["gauss"] <= 1e-4


def test_clifford_defect_reference(clifford, perturbed_clifford):
    d0 = continuation.clifford_defect(clifford)
    assert d0["mean_curvature"] <= 1e-10
    assert d0["ii_norm2"] <= 1e-10
    d1 = continuation.clifford_defect(perturbed_clifford)
    assert d1["ii_norm2"] > 1e-3


def test_run_continuation_small():
    im = surface.make_preset("equator_s2_in_s3", resolution=8)
    cfg = continuation.ContinuationConfig(sigma_schedule=[0.5, 0.25],
                                          spectrum_cutoff=3)
    out = continuation.run_continuation(cfg, im)
    stages = out["stages"]
    assert len(stages) == 2
    for st in stages:
        assert st.converged
        assert st.grad_norm <= 1e-8
        assert st.spectrum.index == 1
        assert st.spectrum.nullity == 3
    # closed forms: F = 4 pi at the equator, so the entropy products are
    # pi log 2 and (pi log 2) / 2
    assert_allclose(stages[0].entropy_product, PI * np.log(2.0), rtol=1e-10)
    assert_allclose(stages[1].entropy_product, 0.5 * PI * np.log(2.0),
                    rtol=1e-10)
    assert out["entropy_nonincreasing"]
    assert out["verdict"]["pass"]
    assert out["limit_spectrum"].index == 1
    assert_allclose(out["limsup_a_sigma"], 5 * PI, rtol=1e-10)


def test_run_continuation_empty_schedule(equator):
    cfg = continuation.ContinuationConfig(sigma_schedule=[])
    out = continuation.run_continuation(cfg, equator)
    assert out["stages"] == []
    assert out["verdict"] is None
    assert out["limit_spectrum"] is None


def test_stage_record_dict(equator):
    im = surface.make_preset("equator_s2_in_s3", resolution=8)
    cfg = continuation.ContinuationConfig(sigma_schedule=[0.5],
                                          spectrum_cutoff=2)
    out = continuation.run_continuation(cfg, im)
    d = out["stages"][0].to_dict()
    for key in ("sigma", "grad_norm", "converged", "iterations", "area",
                "f_energy", "a_sigma", "entropy_product", "index",
                "nullity"):
        assert key in d
    assert d["sigma"] == 0.5
    assert d["index"] == 1


def test_hessian_convergence_probe(clifford):
    # transporting one variation along a trivial sequence reproduces the
    # constrained second variation at each member
    w = surface.random_variation(clifford, seed=12, amplitude=0.01, band=1,
                                 tangent=True)
    seq = [clifford, clifford]
    vals = continuation.hessian_convergence_probe(seq, w, sigma=0.0)
    assert len(vals) == 2
    assert_allclose(vals[0], vals[1], rtol=1e-12)
    direct = energy.second_variation_constrained(clifford, w, sigma=0.0)
    assert_allclose(vals[0], direct, rtol=1e-12)


def _counted(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's first
    argument; returns the record."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_continuation_builds_one_kernel_pass(monkeypatch, clifford):
    # every stage solve stays at the symmetric torus, so one sigma pencil
    # serves the four stage spectra and the sigma = 0 limit, and Newton
    # takes no step, so no diagonal pass runs
    builds = _counted(monkeypatch, energy, "_node_kernel_blocks")
    cfg = continuation.ContinuationConfig(
        sigma_schedule=[0.5, 0.25, 0.125, 0.0625], spectrum_cutoff=2)
    out = continuation.run_continuation(cfg, clifford)
    assert [s.immersion for s in out["stages"]] == [clifford] * 4
    assert builds == [clifford]
    assert [s.spectrum.index for s in out["stages"]] == [0, 0, 5, 5]
    assert out["limit_spectrum"].index == 5


def test_continuation_kernel_pass_per_stage_immersion(monkeypatch):
    # Newton moves the perturbed equator at every stage here: one kernel
    # pass per stage immersion, and one diagonal pass per Newton step
    builds = _counted(monkeypatch, energy, "_node_kernel_blocks")
    diagonals = _counted(monkeypatch, continuation, "hessian_diagonal")
    im = surface.make_preset("perturbed_equator", resolution=8)
    cfg = continuation.ContinuationConfig(sigma_schedule=[0.5, 0.25, 0.125],
                                          spectrum_cutoff=2)
    stages = continuation.run_continuation(cfg, im)["stages"]
    moved = [s.immersion for i, s in enumerate(stages)
             if i == 0 or s.immersion is not stages[i - 1].immersion]
    assert len(moved) == 3
    assert len(diagonals) == sum(s.iterations for s in stages) > 0
    # each diagonal pass is a kernel pass too; the others are the pencils'
    pencils = list(builds)
    for diagonal in diagonals:
        pencils.remove(diagonal)
    assert len(pencils) == 3 and all(a is b for a, b in zip(pencils, moved))


def test_newton_diagonal_pass_once_per_step(monkeypatch, clifford):
    # the gradient decides every exit, so the diagonal pass runs only for
    # the steps taken: none at a critical point, one per step otherwise
    diagonals = _counted(monkeypatch, continuation, "hessian_diagonal")
    out = continuation.solve_critical_point(clifford, 0.1)
    assert out["iterations"] == 0 and diagonals == []
    im = surface.make_preset("perturbed_equator", resolution=8)
    out = continuation.solve_critical_point(im, 0.5, cutoff=4)
    assert out["iterations"] > 0
    assert len(diagonals) == out["iterations"]


def test_newton_synthesizes_each_basis_once(monkeypatch):
    # one batched synthesis of the variation basis per iteration and no
    # per-field synthesis; the gradient is one contraction, so the only
    # kernel passes are the diagonal passes of the steps taken
    families = []
    chart_derivatives = surface._chart_derivatives

    def counted(basis, coeffs):
        if coeffs.ndim == (4 if isinstance(basis, FourierBasis) else 3):
            families.append(coeffs.shape[-2])
        return chart_derivatives(basis, coeffs)

    monkeypatch.setattr(surface, "_chart_derivatives", counted)
    fields = _counted(monkeypatch, surface.Variation, "derivatives")
    passes = _counted(monkeypatch, energy, "_node_kernel_blocks")
    im = surface.make_preset("perturbed_equator", resolution=8)
    out = continuation.solve_critical_point(im, 0.5, cutoff=4)
    assert out["iterations"] > 0
    assert families == [25] * (out["iterations"] + 1)
    assert fields == []
    assert len(passes) == out["iterations"]


@pytest.fixture(scope="module")
def perturbed_clifford_stage(perturbed_clifford):
    """A converged Newton stage from perturbed_clifford at sigma 0.05."""
    result = continuation.solve_critical_point(perturbed_clifford, 0.05)
    assert result["converged"]
    return result["immersion"]


@pytest.mark.parametrize("target", ["perturbed_clifford",
                                    "perturbed_clifford_stage"])
def test_transport_lands_in_the_tangent_bundle(request, clifford, target):
    # both targets sit a few 1e-10 off the sphere, inside the tolerance
    # every immersion is held to
    im = request.getfixturevalue(target)
    w = surface.random_variation(clifford, seed=12, amplitude=0.01, band=1,
                                 tangent=True)
    u = continuation.transport_variation(w, im)
    assert u.immersion is im
    assert u.tangency_defect() <= 1e-8


@pytest.mark.parametrize("sigma", [0.0, 0.17])
def test_probe_converges_to_the_limit_second_variation(clifford, sigma):
    # the convergence step of the semicontinuity argument: a test variation
    # of the limit, transported onto immersions approaching it, has
    # constrained second variations converging to its own, at first order
    # in the distance
    w = surface.random_variation(clifford, seed=12, amplitude=0.01, band=1,
                                 tangent=True)
    limit = energy.second_variation_constrained(clifford, w, sigma=sigma)
    amplitudes = (0.02, 0.002, 0.0002)
    seq = [surface.make_preset("perturbed_clifford", 16, amplitude=a)
           for a in amplitudes]
    vals = continuation.hessian_convergence_probe(seq, w, sigma=sigma)
    for a, v in zip(amplitudes, vals):
        assert abs(v - limit) <= 0.5 * a * abs(limit)
