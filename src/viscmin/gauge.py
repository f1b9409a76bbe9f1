"""Coulomb-slice gauge machinery on conformal torus charts.

Tangential reparametrization freedom along an immersion is represented by
complex fields a = X^1 + i X^2 (chart components of the generating vector
field). The d-bar operator diagonalizes on the Fourier grid, so solving the
gauge equation is exact mode division; the only analysis is in the
normalizations: solvable right-hand sides have zero plain mean, the kernel
constant is fixed by weighted orthogonality to the holomorphic fields, and
marked points pin the leftover finite-dimensional freedom.

Everything here requires a conformal chart (the flat-torus presets are;
polar sphere charts are not and are rejected).
"""

import numpy as np

from .errors import (NoConvergence, NonConformalChart, NotInRange,
                     NotInSlice, ShapeMismatch)
from .surface import Variation, as_variation, tangential_field

__all__ = [
    "conformal_check", "dzbar_field", "dbar_solve",
    "coulomb_operator", "gauge_decompose", "GaugeDecomposition",
    "slice_retract", "coupling_residual", "symbol_check",
    "hol1_dimension",
]

CONFORMAL_TOL = 1e-8
MEAN_TOL = 1e-10
SLICE_TOL = 1e-8
SLICE_RADIUS = 0.05
SLICE_MAX_ITER = 50
IN_SLICE_TOL = 1e-6


def conformal_check(immersion):
    """Max relative conformal defect; raises off conformal charts."""
    geom = immersion.geometry
    defect = geom.conformal_defect
    if defect > CONFORMAL_TOL:
        raise NonConformalChart(
            f"chart is not conformal (defect {defect:.2e} > "
            f"{CONFORMAL_TOL:.0e})")
    return defect


def _require_torus(immersion):
    if immersion.basis.genus != 1:
        raise ShapeMismatch("gauge machinery lives on torus charts")
    return immersion.basis


def _wirtinger(basis, coeffs, bar=False, solve=False):
    """Grid samples of d/dz, (d_u - i d_v)/2, or when bar of d/dzbar,
    (d_u + i d_v)/2, of the field with these (n, n, ...) coefficients.
    With solve, the Fourier symbol divides instead, on the band's modes
    where it does not vanish, and the other modes are dropped."""
    f = basis.freqs
    mult = 0.5 * ((1j * f[:, None] - f[None, :]) if bar
                  else (f[None, :] + 1j * f[:, None]))
    c = np.asarray(coeffs).reshape(basis.n, basis.n, -1)
    if solve:
        out = np.zeros_like(c)
        nz = basis.mode_mask & (np.abs(mult) > 0)
        out[nz] = c[nz] / mult[nz][:, None]
    else:
        out = c * mult[:, :, None]
    return basis.evaluate(out.reshape(np.shape(coeffs)))


def dzbar_field(basis, samples):
    """d/dzbar of a complex grid field, spectrally (d_u + i d_v)/2."""
    return _wirtinger(basis, basis.fit(samples), bar=True)


def dbar_solve(immersion, rhs):
    """Solve d/dzbar a = rhs on the torus chart.

    The right-hand side must have zero plain mean (the grid image of the
    operator); NotInRange otherwise. The additive kernel constant is fixed
    by weighted mean zero with weight e^{4 lambda}, which is L2(g)
    orthogonality of the solution against the holomorphic fields
    (constants). Returns (a_samples, residual).
    """
    basis = _require_torus(immersion)
    conformal_check(immersion)
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.shape != (basis.num_nodes,):
        raise ShapeMismatch("rhs must be a complex scalar grid field")
    c = basis.fit(rhs[:, None])
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if abs(c[0, 0, 0]) > MEAN_TOL * scale:
        raise NotInRange(
            f"rhs has nonzero mean {abs(c[0, 0, 0]):.2e}; not in the range "
            f"of dbar")
    a = _wirtinger(basis, c, bar=True, solve=True)[:, 0]
    # kernel normalization: weighted mean zero, weight e^{4 lambda}
    w4 = immersion.geometry.conformal_factor ** 2
    a = a - np.sum(a * w4) / np.sum(w4)
    resid = dzbar_field(basis, a[:, None])[:, 0] - rhs
    return a, float(np.max(np.abs(resid)))


def coulomb_operator(immersion, w):
    """Quadratic-differential pairing q_w = dz w . dz Phi, with its
    component along the holomorphic quadratic differentials removed.

    Returns (q_projected, removed_mean). w is in the Coulomb slice of the
    immersion exactly when the projected part vanishes.
    """
    basis = _require_torus(immersion)
    conformal_check(immersion)
    Wc = as_variation(immersion, w).coeffs
    P, Pd, _ = immersion.derivatives()
    dzPhi = 0.5 * (Pd[:, 0, :] - 1j * Pd[:, 1, :])
    q = np.sum(_wirtinger(basis, Wc) * dzPhi, axis=-1)
    # the derivative product carries content past the band edge; its
    # discrete representative is the band-limited synthesis (the grid's
    # Nyquist lines are outside every representable mode)
    q = basis.evaluate(basis.fit(q))
    # holomorphic quadratic differentials on the torus: constants; the
    # L2(g) pairing carries the weight e^{-2 lambda}
    e2l = immersion.geometry.conformal_factor
    wgt = 1.0 / e2l
    mean = np.sum(q * wgt) / np.sum(wgt)
    return q - mean, mean


class GaugeDecomposition:
    """Result of splitting a variation against the Coulomb slice."""

    def __init__(self, f_samples, h_const, X, residual):
        self.f_samples = f_samples    # complex gauge potential, Hol-orthogonal
        self.h_const = h_const        # marked-point correction (complex)
        self.X = X                    # (N, 2) chart vector field
        self.residual = residual

    @property
    def X_perp(self):
        return np.column_stack([-self.X[:, 1], self.X[:, 0]])


def gauge_decompose(immersion, v):
    """Split a variation into slice part plus reparametrization.

    Solves for the chart field X with v - dPhi . X in the Coulomb slice and
    X vanishing at the marked point. Returns a GaugeDecomposition; the
    reparametrization field is dPhi . X, and v - dPhi . X is the slice
    representative.
    """
    basis = _require_torus(immersion)
    v = as_variation(immersion, v)
    q, _ = coulomb_operator(immersion, v)
    e2l = immersion.geometry.conformal_factor
    # reparametrization fields b have q_{dPhi.X} = e^{2 lambda} dz(bbar);
    # match projected pairings: dz bbar = e^{-2 lambda} P(q_v), so
    # dzbar b = conj of that. The weighted projection makes the plain mean
    # of the contracted rhs vanish identically.
    rhs = np.conj(q / e2l)
    b, resid_dbar = dbar_solve(immersion, rhs)
    a1 = immersion.topology.marked_points[0]
    b_at_marked = basis.evaluate_at(basis.fit(b[:, None]), a1[None, :])[0, 0]
    h_const = -b_at_marked
    b_tot = b + h_const
    X = np.column_stack([b_tot.real, b_tot.imag])
    w_rest = v.values - tangential_field(immersion, X).values
    q_rest, _ = coulomb_operator(immersion, w_rest)
    residual = float(np.max(np.abs(q_rest)))
    return GaugeDecomposition(b, h_const, X, residual)


def slice_retract(immersion, target):
    """Reparametrize a nearby immersion into the Coulomb slice.

    Finds a chart diffeomorphism psi with w = target o psi - Phi in the
    slice (projected pairing zero) and psi fixing the marked point.
    Returns (w, info dict). The diffeomorphism is tracked by its
    displacement field; each step composes with the backward flow of the
    decomposed reparametrization field (4 Euler substeps, spectral
    evaluation, oversampled refits).
    """
    basis = _require_torus(immersion)
    conformal_check(immersion)
    if target.basis.to_dict() != basis.to_dict():
        raise ShapeMismatch("target must share the source chart")
    gap = float(np.max(np.linalg.norm(
        target.samples() - immersion.samples(), axis=-1)))
    if gap > SLICE_RADIUS:
        raise NotInRange(
            f"target is {gap:.3f} away in sup norm, outside the slice "
            f"neighborhood r_slice={SLICE_RADIUS}")
    pts = basis.grid_points
    # the diffeomorphism lives on an oversampled grid: band-limiting the
    # accumulated displacement to the coarse band would feed its truncation
    # tail back into the slice residual every sweep
    fine = basis.resample(2 * basis.n + 1)
    disp_fine = np.zeros((fine.num_nodes, 2))
    resid = np.inf
    for it in range(SLICE_MAX_ITER):
        disp_c = fine.fit(disp_fine)
        disp_coarse = fine.evaluate_at(disp_c, pts).real
        w_samples = target.basis.evaluate_at(
            target.coeffs, pts + disp_coarse).real - immersion.samples()
        q, _ = coulomb_operator(immersion, w_samples)
        resid = float(np.max(np.abs(q)))
        if resid <= SLICE_TOL:
            break
        dec = gauge_decompose(immersion, w_samples)
        X_c = basis.fit(dec.X)
        # compose psi with the time-1 backward flow of X (4 Euler substeps)
        flow = fine.grid_points.copy()
        for _ in range(4):
            flow = flow - 0.25 * basis.evaluate_at(X_c, flow).real
        disp_fine = (fine.evaluate_at(disp_c, flow).real
                     + (flow - fine.grid_points))
    else:
        raise NoConvergence(
            f"slice retraction: residual {resid:.2e} after {SLICE_MAX_ITER} "
            f"steps")
    w = Variation(immersion, samples=w_samples)
    disp_c = fine.fit(disp_fine)
    psi = pts + fine.evaluate_at(disp_c, pts).real
    info = {
        "iterations": it,
        "residual": resid,
        "psi": psi,
        "displacement_sup": float(np.max(np.linalg.norm(disp_fine, axis=-1))),
    }
    return w, info


def coupling_residual(immersion, w):
    """Defect of the gauge-coupling identity for a slice variation.

    For w in the Coulomb slice, dzbar(a_w) - pi_n(w) . H must lie in the
    span of e^{-2 lambda} (H is the dzbar-derivative of the weighted
    antiholomorphic frame, a normal-valued field). Returns the sup norm of
    the component orthogonal to that span. NotInSlice if w is not actually
    in the slice.
    """
    basis = _require_torus(immersion)
    conformal_check(immersion)
    w = as_variation(immersion, w)
    q, _ = coulomb_operator(immersion, w)
    if np.max(np.abs(q)) > IN_SLICE_TOL:
        raise NotInSlice(
            f"variation is not in the Coulomb slice "
            f"(pairing sup {np.max(np.abs(q)):.2e})")
    geom = immersion.geometry
    P, Pd, _ = immersion.derivatives()
    dzbarPhi = 0.5 * (Pd[:, 0, :] + 1j * Pd[:, 1, :])
    e2l = geom.conformal_factor
    a_w = np.sum(w.values * dzbarPhi, axis=-1) / e2l
    dzbar_a = dzbar_field(basis, a_w[:, None])[:, 0]
    H = dzbar_field(basis, dzbarPhi / e2l[:, None])
    wn = geom.project_normal(w.values)
    r = dzbar_a - np.sum(wn * H, axis=-1)
    span = 1.0 / e2l
    r = r - span * (np.sum(r * span) / np.sum(span * span))
    return float(np.max(np.abs(r)))


def symbol_check(immersion, xi):
    """Principal symbol of the fourth-order normal operator at a covector.

    Returns the min eigenvalue of the normal block over the whole grid (must
    be positive: uniform ellipticity on the slice) and the exact degree-4
    homogeneity defect under xi -> 2 xi.
    """
    conformal_check(immersion)
    geom = immersion.geometry
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (2,):
        raise ShapeMismatch("xi must be a chart covector of length 2")

    def normal_block_eigs(x):
        x2 = float(x[0] ** 2 + x[1] ** 2)
        A = (geom.II[:, 0, 0] * x[0] * x[0]
             + 2.0 * geom.II[:, 0, 1] * x[0] * x[1]
             + geom.II[:, 1, 1] * x[1] * x[1])
        e2l = geom.conformal_factor
        base = 2.0 / e2l * (1.0 + geom.II_norm2) * x2 ** 2
        rank1 = 4.0 / e2l ** 3 * np.sum(A * A, axis=-1)
        codim = geom.ambient.dim - geom.ambient.frame_size
        if codim >= 2:
            return base, base + rank1
        return base + rank1, base + rank1

    lo, hi = normal_block_eigs(xi)
    lo2, hi2 = normal_block_eigs(2.0 * xi)
    homo = max(float(np.max(np.abs(lo2 - 16.0 * lo))),
               float(np.max(np.abs(hi2 - 16.0 * hi))))
    return {
        "min_eig": float(np.min(lo)),
        "max_eig": float(np.max(hi)),
        "homogeneity_defect": homo,
    }


def hol1_dimension(genus):
    """Complex dimension of the holomorphic-field normalization space."""
    if genus == 1:
        return 1
    if genus == 0:
        return 3
    raise ShapeMismatch("only genus 0 and 1")
