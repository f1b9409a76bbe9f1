"""Vanishing-viscosity continuation.

Drives the relaxed energy A^sigma = Area + sigma^2 F down a decreasing
sigma schedule, re-solving for a critical point at each stage (damped
Newton in the normal-coefficient chart, warm-started from the previous
stage), and records energies, the entropy product sigma^2 F log(1/sigma),
and the constrained spectrum.  The endgame is the semicontinuity verdict:
the Morse index of the sigma=0 limit must not exceed the tail indices of
the stages.

Also houses the annular log-cutoff, pointwise projection transport between
nearby immersions, and the hessian convergence probe built from the two.
"""

import numpy as np

from .energy import evaluate_energies, second_variation_constrained
from .errors import (BadDelta, EmptyTail, NoConvergence, OutOfRange,
                     ShapeMismatch)
from .morse import (_grad_norm, basis_gradient, hessian_diagonal,
                    normal_variation_basis, pencil_spectrum, sigma_pencil)
# not called here; bench/spans.py looks jacobi_spectrum up in this module
from .morse import jacobi_spectrum  # noqa: F401
from .surface import SampledImmersion, Variation, tangent_project

NEWTON_TOL = 1e-8
MAX_NEWTON = 40
TRUST_RADIUS = 0.1         # Newton step cap, L2(dvol) norm
# log-radial Gauss nodes and angular nodes per cutoff ball (cutoff_transfer)
TRANSFER_RADIAL = 48
TRANSFER_ANGULAR = 64


def default_schedule(stages=10):
    """sigma_k = 2^-k for k = 1..stages."""
    return [2.0 ** -(k + 1) for k in range(stages)]


def entropy_product(sigma, f_energy):
    """sigma^2 F log(1/sigma), continuously extended by 0 at sigma=0."""
    if sigma <= 0.0:
        return 0.0
    return sigma ** 2 * f_energy * np.log(1.0 / sigma)


def _positive(field, value):
    """value as a positive, finite float, or OutOfRange on field."""
    x = float(value)
    if not 0.0 < x < np.inf:
        raise OutOfRange(field, f"must be positive and finite, got {x}")
    return x


def _at_least(field, value, low):
    """value as an int >= low, or OutOfRange on field."""
    x = int(value)
    if x < low:
        raise OutOfRange(field, f"must be at least {low}, got {x}")
    return x


class ContinuationConfig:
    """Parameters of a continuation run; OutOfRange names a bad value."""

    def __init__(self, sigma_schedule=None, newton_tol=NEWTON_TOL,
                 max_newton=MAX_NEWTON, newton_cutoff=4, spectrum_cutoff=4,
                 eps_neg=None, seed=0):
        if sigma_schedule is None:
            sigma_schedule = default_schedule()
        self.sigma_schedule = [_positive("sigma_schedule", s)
                               for s in sigma_schedule]
        for a, b in zip(self.sigma_schedule, self.sigma_schedule[1:]):
            if not b < a:
                raise OutOfRange("sigma_schedule",
                                 "schedule must be strictly decreasing")
        self.newton_tol = _positive("newton_tol", newton_tol)
        self.max_newton = _at_least("max_newton", max_newton, 0)
        self.newton_cutoff = _at_least("newton_cutoff", newton_cutoff, 1)
        self.spectrum_cutoff = _at_least("spectrum_cutoff", spectrum_cutoff, 1)
        self.eps_neg = (None if eps_neg is None
                        else _positive("eps_neg", eps_neg))
        self.seed = int(seed)

    def to_dict(self):
        return {
            "sigma_schedule": list(self.sigma_schedule),
            "newton_tol": self.newton_tol,
            "max_newton": self.max_newton,
            "newton_cutoff": self.newton_cutoff,
            "spectrum_cutoff": self.spectrum_cutoff,
            "eps_neg": self.eps_neg,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


class StageRecord:
    """One stage of the continuation: converged immersion plus reports."""

    def __init__(self, sigma, immersion, grad_norm, energies, spectrum,
                 converged, iterations, initial_grad_norm, checkpoint=None):
        self.sigma = float(sigma)
        self.immersion = immersion
        self.grad_norm = float(grad_norm)
        self.energies = energies
        self.entropy_product = entropy_product(sigma, energies.f_energy)
        self.spectrum = spectrum
        self.converged = bool(converged)
        self.iterations = int(iterations)
        self.initial_grad_norm = float(initial_grad_norm)
        self.checkpoint = checkpoint

    def to_dict(self):
        return {
            "sigma": self.sigma,
            "grad_norm": self.grad_norm,
            "initial_grad_norm": self.initial_grad_norm,
            "converged": self.converged,
            "iterations": self.iterations,
            "area": self.energies.area,
            "f_energy": self.energies.f_energy,
            "a_sigma": self.energies.a_sigma,
            "entropy_product": self.entropy_product,
            "index": self.spectrum.index,
            "nullity": self.spectrum.nullity,
            "checkpoint": self.checkpoint,
        }


def solve_critical_point(immersion, sigma, newton_tol=NEWTON_TOL,
                         max_newton=MAX_NEWTON, cutoff=None):
    """Drive grad A^sigma to zero over normal-mode coefficients.

    Mode-preconditioned Newton over the full representable band (cutoff
    defaults to everything the sample grid carries): on the symmetric
    fixtures the normal modes diagonalize the constrained hessian, so the
    per-mode diagonal is the Newton denominator at a fraction of a dense
    assembly, and the off-diagonal coupling it ignores shrinks with the
    distance to the critical orbit.  Directions inside the relative null
    band are frozen (they move along the orbit), steps are capped at
    TRUST_RADIUS in the L2(dvol) norm, and each update is re-projected
    onto the ambient.  Saddles are legitimate targets, so nothing descends:
    progress is measured on the gradient norm alone.  Each iteration
    synthesizes its mode family once (VariationBasis.triples), takes the
    gradient from one contraction against the node covectors of the first
    variation (basis_gradient) and decides every exit on it; the diagonal
    (hessian_diagonal, one kernel pass contracted block by block) runs
    only when a step is taken, so a start that is already critical costs
    no kernel pass at all.  The update reads
    the mode samples from the same synthesis.

    Returns a dict with the final immersion, grad_norm, iterations,
    converged flag and the gradient history.  On stall, or when an update
    cannot be refitted onto the ambient (NoConvergence from the refit), the
    best iterate is returned with converged=False rather than raising.
    """
    im = immersion
    if cutoff is None:
        cutoff = im.basis.degree
    history = []
    best = None
    initial_grad = None
    iterations = 0
    for it in range(max_newton + 1):
        basis = normal_variation_basis(im, cutoff)
        gram_diag, g = basis_gradient(im, basis, sigma)
        grad_norm = _grad_norm(g, gram_diag)
        history.append(grad_norm)
        if initial_grad is None:
            initial_grad = grad_norm
        if best is None or grad_norm < best[0]:
            best = (grad_norm, im)
        if grad_norm <= newton_tol or it == max_newton:
            iterations = it
            break
        if it >= 4 and history[-1] > 0.5 * history[-4]:
            iterations = it
            break
        diag = hessian_diagonal(im, basis, sigma)
        rayleigh = diag / gram_diag
        floor = 1e-6 * max(1.0, float(np.max(np.abs(rayleigh))))
        live = np.abs(rayleigh) > floor
        step = np.where(live, -g / np.where(live, diag, 1.0), 0.0)
        step_norm = float(np.sqrt(np.sum(step * step * gram_diag)))
        if step_norm > TRUST_RADIUS:
            step *= TRUST_RADIUS / step_norm
        update = np.einsum("a,anq->nq", step, basis.triples()[0])
        try:
            im = SampledImmersion.from_samples(im.ambient, im.topology,
                                               im.basis, im.samples() + update)
        except NoConvergence:
            # the band-limited refit cannot put this update back on the
            # ambient: end the solve at the best iterate so far
            iterations = it
            break
    grad_norm, im = best
    return {
        "immersion": im,
        "grad_norm": grad_norm,
        "iterations": iterations,
        "converged": grad_norm <= newton_tol,
        "initial_grad_norm": initial_grad,
        "history": history,
    }


def run_continuation(config, immersion):
    """Walk the sigma schedule, warm-starting each stage from the last.

    Returns a dict with the stage records, the sigma=0 spectrum of the
    final immersion, the semicontinuity verdict over the tail (second half
    of the schedule), and the entropy/energy monitors.  Stage-level
    convergence failures are recorded on the StageRecord, the run
    continues.

    The spectra come from one sigma_pencil per distinct stage immersion
    (a stage whose solve does not move keeps the previous one), built at
    spectrum_cutoff and held only in this call: each stage spectrum and
    the sigma=0 limit of the final immersion are read from it.
    """
    stages = []
    im = immersion
    pencil_im = pencil = None
    for sigma in config.sigma_schedule:
        result = solve_critical_point(
            im, sigma, newton_tol=config.newton_tol,
            max_newton=config.max_newton, cutoff=config.newton_cutoff)
        im = result["immersion"]
        if im is not pencil_im:
            pencil_im = im
            pencil = sigma_pencil(im, normal_variation_basis(
                im, config.spectrum_cutoff))
        energies = evaluate_energies(im, sigma)
        spectrum = pencil_spectrum(pencil, sigma, config.eps_neg)
        stages.append(StageRecord(
            sigma, im, result["grad_norm"], energies, spectrum,
            result["converged"], result["iterations"],
            result["initial_grad_norm"]))
    if not stages:
        return {"stages": [], "limit_spectrum": None, "verdict": None,
                "entropy_nonincreasing": True, "limsup_a_sigma": None}
    limit_spectrum = pencil_spectrum(pencil, 0.0, config.eps_neg)
    tail_start = len(stages) // 2
    verdict = semicontinuity_verdict(limit_spectrum, stages, tail_start)
    tail_entropy = [s.entropy_product for s in stages[tail_start:]]
    nonincreasing = all(b <= a + 1e-15 for a, b in
                        zip(tail_entropy, tail_entropy[1:]))
    a_sigmas = [s.energies.a_sigma for s in stages]
    return {
        "stages": stages,
        "limit_spectrum": limit_spectrum,
        "verdict": verdict,
        "entropy_nonincreasing": nonincreasing,
        "limsup_a_sigma": float(np.max(a_sigmas)),
    }


def _stage_index(stage):
    if isinstance(stage, (int, np.integer)):
        return int(stage)
    return stage.spectrum.index


def semicontinuity_verdict(limit_spectrum, stages, tail_start=0):
    """Check index(limit) <= min index over the stage tail.

    stages entries may be StageRecords or bare integer indices (handy for
    synthetic trajectories).  tail_start indexes into the stage list;
    an empty tail raises EmptyTail.  The detail names the stages whose
    solve did not converge (unconverged_stages, positions in the stage
    list; an integer stage counts as converged); the pass rule does not
    read them.
    """
    trajectory = [_stage_index(s) for s in stages]
    tail = trajectory[tail_start:]
    if not tail:
        raise EmptyTail(f"no stages at tail_start={tail_start} "
                        f"(run has {len(trajectory)})")
    limit_index = (int(limit_spectrum)
                   if isinstance(limit_spectrum, (int, np.integer))
                   else limit_spectrum.index)
    tail_min = min(tail)
    return {
        "pass": limit_index <= tail_min,
        "detail": {
            "limit_index": limit_index,
            "stage_indices": trajectory,
            "tail_start": tail_start,
            "tail_min_index": tail_min,
            "unconverged_stages": [
                k for k, s in enumerate(stages)
                if not getattr(s, "converged", True)],
        },
    }


# ---------------------------------------------------------------------------
# annular cutoff and projection transport
# ---------------------------------------------------------------------------

class CutoffSpec:
    """Annular log-cutoff parameters.

    The profile vanishes inside radius delta, follows
    log(s/delta)/log(1/sqrt(delta)) across the annulus and reaches 1 at
    sqrt(delta), with C^1 cubic blending over [delta, smoothing*delta] and
    [sqrt(delta)/smoothing, sqrt(delta)].
    """

    def __init__(self, centers, delta, smoothing=2.0):
        self.centers = [(float(u), float(v)) for (u, v) in centers]
        self.delta = float(delta)
        self.smoothing = float(smoothing)
        if not self.centers:
            raise BadDelta("at least one cutoff center is required")
        if not 0.0 < self.delta < 0.25:
            raise BadDelta(f"delta must lie in (0, 1/4), got {self.delta}")
        if self.smoothing <= 1.0:
            raise BadDelta("smoothing factor must exceed 1")
        root = np.sqrt(self.delta)
        if self.smoothing * self.delta >= root / self.smoothing:
            raise BadDelta("smoothing zones overlap; reduce delta or "
                           "smoothing")
        for i, a in enumerate(self.centers):
            for b in self.centers[i + 1:]:
                if _torus_distance(np.array([a]), b)[0] <= 2.0 * root:
                    raise BadDelta("cutoff balls overlap between centers")


def _torus_distance(points, center):
    d = points - np.asarray(center, dtype=float)
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    return np.sqrt(np.sum(d * d, axis=-1))


def _cubic_ramp(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t), 6.0 * t * (1.0 - t)


def chi_profile(s, spec):
    """Cutoff profile and its radial derivative at radii s.

    Piecewise: 0 below delta, the log ramp over the annulus with cubic
    blending at both edges, 1 beyond sqrt(delta).
    """
    s = np.asarray(s, dtype=float)
    delta = spec.delta
    root = np.sqrt(delta)
    L = np.log(1.0 / root)
    safe = np.maximum(s, delta * 1e-12)
    ell = np.log(safe / delta) / L
    dell = 1.0 / (safe * L)
    chi = np.clip(ell, 0.0, 1.0)
    dchi = np.where((s > delta) & (s < root), dell, 0.0)
    # inner blend: multiply the ramp in
    lo, hi = delta, spec.smoothing * delta
    m = (s > lo) & (s < hi)
    t = (s - lo) / (hi - lo)
    h, dh = _cubic_ramp(t)
    chi = np.where(m, ell * h, chi)
    dchi = np.where(m, dell * h + ell * dh / (hi - lo), dchi)
    # outer blend: relax onto the constant 1
    lo2, hi2 = root / spec.smoothing, root
    m2 = (s > lo2) & (s < hi2)
    t2 = (hi2 - s) / (hi2 - lo2)
    h2, dh2 = _cubic_ramp(t2)
    chi = np.where(m2, 1.0 - (1.0 - ell) * h2, chi)
    dchi = np.where(m2, dell * h2 + (1.0 - ell) * dh2 / (hi2 - lo2), dchi)
    chi = np.where(s <= lo, 0.0, chi)
    chi = np.where(s >= hi2, 1.0, chi)
    dchi = np.where((s <= lo) | (s >= hi2), 0.0, dchi)
    return chi, dchi


def cutoff_values(points, spec):
    """Product of the cutoff over all centers, sampled at chart points."""
    chi = np.ones(len(points))
    for center in spec.centers:
        c, _ = chi_profile(_torus_distance(points, center), spec)
        chi = chi * c
    return chi


def cutoff_transfer(w, spec):
    """Apply the annular cutoff to a variation and measure the damage.

    Returns {"w_delta": Variation, "w12_error": scalar, ...} where the
    error is the flat-chart W^{1,2} norm of w_delta - w, integrated on a
    log-radial Gauss grid over each cutoff ball (the balls are far below
    the sample grid spacing for interesting delta, so the fixed grid never
    sees them).
    """
    im = w.immersion
    basis = im.basis
    coeffs = basis.fit(w.values)
    chi_grid = cutoff_values(basis.grid_points, spec)
    w_delta = Variation(im, samples=w.values * chi_grid[:, None])

    root = np.sqrt(spec.delta)
    # radial nodes, log-spaced over [delta, sqrt(delta)]: s = delta e^{tL}
    L = np.log(1.0 / root)
    tg, tw = np.polynomial.legendre.leggauss(TRANSFER_RADIAL)
    t = 0.5 * (tg + 1.0)
    tw = 0.5 * tw
    radii = spec.delta * np.exp(t * L)
    jac = radii * radii * L      # s ds = s^2 L dt, polar area element
    theta = 2.0 * np.pi * np.arange(TRANSFER_ANGULAR) / TRANSFER_ANGULAR
    ang_w = 2.0 * np.pi / TRANSFER_ANGULAR
    grad_sq = 0.0
    val_sq = 0.0
    for center in spec.centers:
        offs = np.stack([np.outer(radii, np.cos(theta)),
                         np.outer(radii, np.sin(theta))], axis=-1)
        pts = (np.asarray(center) + offs).reshape(-1, 2)
        vals = basis.evaluate_at(coeffs, pts).real
        du = basis.evaluate_at(coeffs, pts, deriv=(1, 0)).real
        dv = basis.evaluate_at(coeffs, pts, deriv=(0, 1)).real
        s = np.repeat(radii, TRANSFER_ANGULAR)
        chi, dchi = chi_profile(s, spec)
        ct = np.tile(np.cos(theta), TRANSFER_RADIAL)
        st = np.tile(np.sin(theta), TRANSFER_RADIAL)
        diff = (chi - 1.0)[:, None] * vals
        gu = (chi - 1.0)[:, None] * du + (dchi * ct)[:, None] * vals
        gv = (chi - 1.0)[:, None] * dv + (dchi * st)[:, None] * vals
        weight = np.repeat(jac * tw, TRANSFER_ANGULAR) * ang_w
        val_sq += float(np.sum(np.sum(diff * diff, axis=-1) * weight))
        grad_sq += float(np.sum((np.sum(gu * gu, axis=-1)
                                 + np.sum(gv * gv, axis=-1)) * weight))
    return {
        "w_delta": w_delta,
        "w12_error": float(np.sqrt(val_sq + grad_sq)),
        "l2_error_sq": val_sq,
        "grad_error_sq": grad_sq,
    }


def transport_variation(w, target):
    """w moved onto the target immersion: the band-limited tangent
    projection of its grid samples along the target (tangent_project), so
    the result passes the tangency gate of the constrained hessian."""
    im = w.immersion
    if target.basis.to_dict() != im.basis.to_dict():
        raise ShapeMismatch("transport needs a shared sample grid")
    return tangent_project(target, w.values)


def w12_norm(w):
    """Flat-chart W^{1,2} norm of a variation on its own sample grid."""
    im = w.immersion
    basis = im.basis
    _, Wd, _ = w.derivatives()
    weights = basis.chart_weights
    total = np.sum(w.values ** 2, axis=-1) + np.sum(Wd ** 2, axis=(-2, -1))
    return float(np.sqrt(np.sum(total * weights)))


def hessian_convergence_probe(sequence, w, spec=None, sigma=0.0):
    """Constrained D2 A^sigma along a sequence of immersions.

    The probe variation is cut off (when a CutoffSpec is given) on its
    home immersion, transported onto each member of the sequence
    (transport_variation), and fed to the constrained second variation.
    """
    if spec is not None:
        w = cutoff_transfer(w, spec)["w_delta"]
    values = []
    for im in sequence:
        u = transport_variation(w, im)
        values.append(second_variation_constrained(im, u, sigma=sigma))
    return values


def clifford_defect(immersion):
    """Sup deviation of the cliffordness invariants.

    A minimal torus in the 3-sphere with |II|^2 identically 2 is congruent
    to the square Clifford torus, so the three sups below vanish exactly
    on the orbit and grow linearly with the distance from it.
    """
    geom = immersion.geometry
    h = np.linalg.norm(geom.trace_II, axis=-1)
    return {
        "mean_curvature": float(np.max(h)),
        "ii_norm2": float(np.max(np.abs(geom.II_norm2 - 2.0))),
        "gauss": float(np.max(np.abs(geom.gauss_curvature))),
    }
