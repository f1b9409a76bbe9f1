"""Relaxed-area energies and their first and second variations.

Three independent evaluation routes coexist on purpose:

* explicit tensor formulas for the first variation (metric sweep of the
  area form, normal-hessian pairing for the curvature energy, plus the
  position term of the moving frame, scaled by the ambient's curvature
  constant kappa), gathered into per-node covectors that any batch of
  variations is contracted against;
* exact derivatives for second variations (no truncation error, uniform
  over ambients).  The hessian kernels behind every spectrum take the
  gradient and hessian of the node densities as functions of the 21 dot
  products of each node's six vectors, plus kappa times the retraction
  form (the Gram route, _node_kernel_blocks, block by block, which the
  sigma pencil and the Newton diagonal contract as it goes, so no
  kernel of the whole grid is ever held).
  At node vectors whose second derivatives are sheared off the frame,
  nine of those products (the metric and the normal pairings) carry a
  second-order adjoint and the cross products a closed-form block; the
  order-2 vector jets of the pointwise geometry pipeline along whole
  fields (second_variation_ambient, batched_quadratic) stay as their
  oracle.  Both routes run one density algebra (surface._ii_norm2 and
  _node_densities) and differ only in how they form the normal
  pairings: plain dot products of sheared vectors against dot products
  of projected vectors;
* plain path evaluators (energies of the deformed map at finite t, the
  constrained path through the ambient's retract) that feed the
  finite-difference oracles in the tests and the variation-check CLI.

The ambient enters through its frame size, its retract and its curvature
constant kappa (second fundamental form -kappa (X . Y) z), never its kind.

Cross-checking these against each other is what the test suite does.
"""

import numpy as np

from .errors import NotTangent, ShapeMismatch
from .jets import Jet2, gradient_hessian, jet_sqrt
from .surface import (Variation, _frame_cofactors, _ii_norm2, as_variation,
                      pointwise_geometry)

__all__ = [
    "EnergyReport", "evaluate_energies", "first_variation",
    "first_variation_samples", "covariant_hessian",
    "second_variation_ambient", "second_variation_constrained",
    "second_variation_area_terms", "free_path_energies",
    "projected_path_energies", "fd_first", "fd_second",
    "batched_quadratic", "batched_linear", "node_coordinates",
    "AmbientField",
    "polynomial_field", "composed_variation_bounds",
]

TANGENT_TOL = 1e-8


class EnergyReport:
    """Area, curvature energy and the relaxed combination at one sigma."""

    def __init__(self, area, f_energy, sigma=0.0):
        self.area = float(area)
        self.f_energy = float(f_energy)
        self.sigma = float(sigma)

    @property
    def a_sigma(self):
        return self.area + self.sigma ** 2 * self.f_energy

    def to_dict(self):
        return {"area": self.area, "f_energy": self.f_energy,
                "sigma": self.sigma, "a_sigma": self.a_sigma}

    def __repr__(self):
        return (f"EnergyReport(area={self.area:.12g}, "
                f"f={self.f_energy:.12g}, sigma={self.sigma:g})")


def evaluate_energies(immersion, sigma=0.0):
    """Area and integral of (1 + |II|^2)^2 over the immersed surface."""
    geom = immersion.geometry
    f = geom.integrate((1.0 + geom.II_norm2) ** 2)
    return EnergyReport(geom.area, f, sigma)


# ---------------------------------------------------------------------------
# first variation, explicit formulas
# ---------------------------------------------------------------------------

def covariant_hessian(immersion, w):
    """Covariant chart hessian of a variation: W_ij - g^{rs}(P_r.P_ij) W_s."""
    geom = immersion.geometry
    if isinstance(w, Variation):
        _, Wd, Wdd = w.derivatives()
    else:
        raise ShapeMismatch("covariant_hessian needs a Variation")
    return _covariant_hessian_samples(geom, Wd, Wdd)


def _christoffel(geom):
    """Christoffel symbols gamma^s_ij = g^{rs} (P_r . P_ij), as [i, j, s]."""
    tang = np.einsum("...rq,...ijq->...ijr", geom.Pd, geom.Pdd)
    return np.einsum("...rs,...ijr->...ijs", geom.ginv, tang)


def _covariant_hessian_samples(geom, Wd, Wdd):
    return Wdd - np.einsum("...ijs,...sq->...ijq", _christoffel(geom), Wd)


def first_variation(immersion, w):
    """dArea and dF along a variation, by the explicit tensor formulas."""
    w = as_variation(immersion, w)
    W, Wd, Wdd = w.derivatives()
    return first_variation_samples(immersion, W, Wd, Wdd)


def first_variation_samples(immersion, W, Wd, Wdd):
    """Same as first_variation but on raw (W, Wd, Wdd) sample triples.

    The triple must be chart-consistent (Wd, Wdd the actual chart
    derivatives of W); no band-limit is assumed, which lets callers push
    product-rule fields (like retraction curvatures) through exactly.
    """
    geom = immersion.geometry
    d_area, d_f = _first_variation_densities(immersion, W, Wd, Wdd)
    return {"d_area": geom.integrate(d_area), "d_f": geom.integrate(d_f)}


def _strain(geom, Wd):
    """Metric variation u_ij = sym(P_i . W_j) and its trace tr_g u."""
    u = 0.5 * (np.einsum("...iq,...jq->...ij", geom.Pd, Wd)
               + np.einsum("...iq,...jq->...ij", Wd, geom.Pd))
    return u, np.einsum("...ij,...ij->...", geom.ginv, u)


def _first_variation_covectors(immersion):
    """Per-node covectors of the first variations of the area and F
    densities.

    Both variations are linear in the node coordinates (W, W_i, W_ij), so
    along any field they are pairings of the field's sample triple with
    coefficient tensors built once from the geometry, to be integrated
    against dvol.  With II^{kl} = g^{ik} g^{jl} II_ij and e = 1 + |II|^2:
    the area covector on W_j is A_j = g^{ij} P_i (tr_g u = A_j . W_j), and
    the F covector is
        on W_ij  4e II^{ij},
        on W_s   e (-4 Gamma^s_kl II^{kl} - 8 R_sb P_b) + e^2 A_s,
        on W     4 kappa e tr_g II (the position vector, a frame vector
                 when kappa != 0, moves with the family),
    with Gamma^s_kl = g^{rs} (P_r . P_kl), R = g^-1 S g^-1, S_ik =
    g^{jl} II_ij . II_kl and kappa the ambient's curvature constant.
    Returns (A, (f, f_d, f_dd)) shaped like the (Wd) and (W, Wd, Wdd)
    samples of one field.
    """
    geom = immersion.geometry
    ginv, Pd, II = geom.ginv, geom.Pd, geom.II
    A = np.einsum("...ij,...iq->...jq", ginv, Pd)
    II_up = np.einsum("...ik,...jl,...ijq->...klq", ginv, ginv, II,
                      optimize=True)
    S = np.einsum("...jl,...ijq,...klq->...ik", ginv, II, II, optimize=True)
    R = ginv @ S @ ginv
    e = 1.0 + geom.II_norm2
    f_d = (e[:, None, None]
           * (-4.0 * np.einsum("...kls,...klq->...sq", _christoffel(geom),
                               II_up)
              - 8.0 * np.einsum("...sb,...bq->...sq", R, Pd))
           + (e * e)[:, None, None] * A)
    f_dd = (4.0 * e)[:, None, None, None] * II_up
    kappa = immersion.ambient.curvature_constant
    f = (4.0 * kappa * e)[:, None] * geom.trace_II
    return A, (f, f_d, f_dd)


def _first_variation_densities(immersion, W, Wd, Wdd):
    """Per-node first variations of the area and F densities, to be
    integrated against dvol; leading batch axes of the triple pass through.
    Pairs the triple with the node covectors of _first_variation_covectors."""
    # contiguous, so that one field pairs to the bits it gets in a stacked
    # batch: einsum sums a strided operand (a .real view) in another order
    W, Wd, Wdd = (np.ascontiguousarray(x) for x in (W, Wd, Wdd))
    A, (f, f_d, f_dd) = _first_variation_covectors(immersion)
    d_area = np.einsum("...iq,...iq->...", Wd, A)
    d_f = (np.einsum("...ijq,...ijq->...", Wdd, f_dd)
           + np.einsum("...iq,...iq->...", Wd, f_d)
           + np.einsum("...q,...q->...", W, f))
    return d_area, d_f


# ---------------------------------------------------------------------------
# second variation via jets
# ---------------------------------------------------------------------------

def _node_densities(pw, weights):
    """Per-node area and F densities, sqrt_det w and (1 + |II|^2)^2 sqrt_det w,
    from pointwise geometry (plain values or jets)."""
    area = pw["sqrt_det"] * weights
    e = 1.0 + pw["II2"]
    return area, e * e * pw["sqrt_det"] * weights


def _jet_densities(immersion, W, Wd, Wdd):
    """Per-node (area, f) densities as Jet2 along the linear family Phi + t w.

    The jet values stay unbatched (one copy of Phi for the whole batch of
    directions); only the derivative components carry the batch axes.
    """
    P, Pd, Pdd = immersion.derivatives()
    pw = pointwise_geometry(Jet2(P, W), Jet2(Pd, Wd), Jet2(Pdd, Wdd),
                            immersion.ambient)
    return _node_densities(pw, immersion.basis.chart_weights)


def _jet_energies(immersion, W, Wd, Wdd):
    """(area, f) as Jet2 scalars along the linear family Phi + t w."""
    area, f = _jet_densities(immersion, W, Wd, Wdd)
    return area.sum(axis=-1), f.sum(axis=-1)


def second_variation_ambient(immersion, w, w_other=None):
    """Exact second derivatives of (Area, F) along the free ambient family.

    For two different directions the polarized value
    (1/4)[q(w + w') - q(w - w')] is returned.
    """
    w = as_variation(immersion, w)
    if w_other is None or w_other is w:
        W, Wd, Wdd = w.derivatives()
        area, f = _jet_energies(immersion, W, Wd, Wdd)
        return {"d2_area": float(area.c), "d2_f": float(f.c),
                "d_area": float(area.b), "d_f": float(f.b)}
    plus = second_variation_ambient(immersion, w + w_other)
    minus = second_variation_ambient(immersion, w - w_other)
    return {"d2_area": 0.25 * (plus["d2_area"] - minus["d2_area"]),
            "d2_f": 0.25 * (plus["d2_f"] - minus["d2_f"])}


def second_variation_area_terms(immersion, w):
    """Explicit three-term area hessian (cross-check of the jet route):
    integral of <dw;dw>_g + (tr_g u)^2 - 2 <u,u>_g."""
    w = as_variation(immersion, w)
    geom = immersion.geometry
    _, Wd, _ = w.derivatives()
    u, tr_u = _strain(geom, Wd)
    dw2 = np.einsum("...ij,...iq,...jq->...", geom.ginv, Wd, Wd)
    uu = np.einsum("...ik,...jl,...ij,...kl->...",
                   geom.ginv, geom.ginv, u, u)
    return geom.integrate(dw2 + tr_u * tr_u - 2.0 * uu)


def _retraction_curvature_triple(P, Pd, Pdd, Wa, Wad, Wadd, Wb, Wbd, Wbdd):
    """Samples and chart derivatives of the polarized retraction curvature
    field -(w_a . w_b) Phi, by the product rule (exact, no refit).

    Takes sample triples of Phi and of both fields; leading batch axes of
    the fields broadcast against Phi.
    """
    s = np.einsum("...q,...q->...", Wa, Wb)
    s_i = (np.einsum("...iq,...q->...i", Wad, Wb)
           + np.einsum("...q,...iq->...i", Wa, Wbd))
    s_ij = (np.einsum("...ijq,...q->...ij", Wadd, Wb)
            + np.einsum("...iq,...jq->...ij", Wad, Wbd)
            + np.einsum("...jq,...iq->...ij", Wad, Wbd)
            + np.einsum("...q,...ijq->...ij", Wa, Wbdd))
    V = -s[..., None] * P
    Vd = -(s_i[..., None] * P[..., None, :] + s[..., None, None] * Pd)
    Vdd = -(s_ij[..., None] * P[..., None, None, :]
            + s_i[..., :, None, None] * Pd[..., None, :, :]
            + s_i[..., None, :, None] * Pd[..., :, None, :]
            + s[..., None, None, None] * Pdd)
    return V, Vd, Vdd


def second_variation_constrained(immersion, w, w_other=None, sigma=0.0,
                                 tangent_tol=TANGENT_TOL):
    """Second variation of A^sigma along the constrained (retracted) family.

    Equals the ambient hessian plus the first variation evaluated on the
    retraction curvature -kappa (w . w') Phi, the ambient's second
    fundamental form on (w, w'). Requires variations tangent to the
    ambient (ambient.normal_component within tangent_tol).
    """
    w = as_variation(immersion, w)
    wb = w if w_other is None else as_variation(immersion, w_other)
    for field in [w] if wb is w else [w, wb]:
        defect = field.tangency_defect()
        if defect > tangent_tol:
            raise NotTangent(
                f"variation leaves the tangent bundle by {defect:.2e}")
    amb = second_variation_ambient(immersion, w, None if wb is w else wb)
    d2 = amb["d2_area"] + sigma ** 2 * amb["d2_f"]
    kappa = immersion.ambient.curvature_constant
    V, Vd, Vdd = (kappa * x for x in _retraction_curvature_triple(
        *immersion.derivatives(), *w.derivatives(), *wb.derivatives()))
    fv = first_variation_samples(immersion, V, Vd, Vdd)
    d2 += fv["d_area"] + sigma ** 2 * fv["d_f"]
    return float(d2)


# ---------------------------------------------------------------------------
# batched forms for hessian assembly
# ---------------------------------------------------------------------------

def batched_quadratic(immersion, W, Wd, Wdd, sigma):
    """d2 A^sigma (ambient, diagonal) for a batch of variation triples.

    W : (B, N, Q), Wd : (B, N, 2, Q), Wdd : (B, N, 2, 2, Q)
    Returns (d2_asigma (B,), d_asigma (B,)).
    """
    area, f = _jet_energies(immersion, W, Wd, Wdd)
    return area.c + sigma ** 2 * f.c, area.b + sigma ** 2 * f.b


def batched_linear(immersion, V, Vd, Vdd, sigma):
    """DA^sigma on a batch of raw sample triples (B,) results: one
    contraction against the node covectors, built once per call."""
    dvol = immersion.geometry.dvol
    d_area, d_f = _first_variation_densities(immersion, V, Vd, Vdd)
    return (np.sum(d_area * dvol, axis=-1)
            + sigma ** 2 * np.sum(d_f * dvol, axis=-1))


# ---------------------------------------------------------------------------
# per-node second-derivative kernels
# ---------------------------------------------------------------------------
#
# The energies are weighted sums over nodes of a density of the node
# coordinates x_n = (P, P_u, P_v, P_uu, P_uv, P_vv) in R^{6Q}, and along
# Phi + t w those coordinates move linearly.  So the exact hessian along
# the free family is H_ab = sum_n y_a(n)^T K_n y_b(n), with y_a(n) the same
# six samples of w_a and K_n the 6Q x 6Q hessian of the node density.
#
# Both densities reach the six node vectors X_p only through their dot
# products, so each is a function phi(Gamma) of the 21 entries
# Gamma_pq = X_p . X_q (p <= q) of their Gram matrix, in every ambient.
# With J = dGamma/dx, linear in the node vectors,
#     K = J^T (d2 phi) J + (D (x) I_Q),    g = J^T (d phi),
# where D_pq = d phi / d Gamma_pq off the diagonal and twice that on it
# (along a line, Gamma_pq has second derivative 2 dX_p . dX_q).
#
# phi reads the second-derivative slots X_a (a = uu, uv, vv) only through
# their normal pairings N_ab = Gamma_ab - c_a^T F^-1 c_b, with F the Gram
# matrix of the frame and c_fa = X_f . X_a the cross entries, so
# phi = psi(g11, g12, g22, N) for the density algebra psi of
# _nine_entry_densities.  The kernels are taken where the cross entries
# vanish (_gram_coordinates), and there dN/dc and dN/dF vanish too: the
# gradient of phi is psi's on its nine entries and 0 elsewhere, and the
# hessian is psi's 9 x 9 hessian plus the cross block
#     d2 phi / dc_fa dc_hb = -S_ab (F^-1)_fh,
# with S_ab = d psi / dN_ab off the diagonal and twice that on it.  psi's
# gradient and hessian come from jets.gradient_hessian: one forward pass
# with tangents along the nine entries and one reverse sweep, for both
# densities at once.

# nodes per block of the kernel pass; does not change any result.  A
# block's pass is about 45 values of Python arithmetic and a few dozen
# small array operations, a fixed overhead that larger blocks amortize,
# until past a few hundred nodes the per-node arrays of the pull-back
# outgrow the cache (equator at degree 16 on a 2-core machine, one
# thread: 0.039, 0.035, 0.030 and 0.036 s per pass with 64, 128, 256 and
# 528 nodes)
_NODE_BLOCK = 256

# psi's nine Gram entries (p, q) in the order of the adjoint's inputs: the
# metric (P_u, P_v) and the normal pairings of (P_uu, P_uv, P_vv)
_PSI_P = np.array([1, 1, 2, 3, 3, 3, 4, 4, 5])
_PSI_Q = np.array([1, 2, 2, 3, 4, 5, 4, 5, 5])


def node_coordinates(W, Wd, Wdd):
    """Stack a sample triple into node coordinates (..., N, 6Q), ordered
    (W, W_u, W_v, W_uu, W_uv, W_vv)."""
    return np.concatenate([W, Wd[..., 0, :], Wd[..., 1, :],
                           Wdd[..., 0, 0, :], Wdd[..., 0, 1, :],
                           Wdd[..., 1, 1, :]], axis=-1)


def _nine_entry_densities(entries, weights):
    """Per-node (area, f) densities psi from the metric and the normal
    pairings: entries (g11, g12, g22, N_00, N_01, N_02, N_11, N_12, N_22)
    in the order of _PSI_P, _PSI_Q, as plain values or adjoint values,
    with N_ab the pairing of the normal parts of slots a, b of (uu, uv,
    vv).  The algebra is pointwise_geometry's (surface._ii_norm2 and
    _node_densities).
    """
    g11, g12, g22, n00, n01, n02, n11, n12, n22 = entries
    normal = ((n00, n01, n02), (n01, n11, n12), (n02, n12, n22))
    det = g11 * g22 - g12 * g12
    II2 = _ii_norm2(g11, g12, g22, det, lambda a, b: normal[a][b])
    return _node_densities({"sqrt_det": jet_sqrt(det), "II2": II2}, weights)


def _gram_coordinates(X, frame):
    """Node vectors at which the Gram route keeps its digits.

    X (B, 6, Q) holds the node vectors, frame their frame slots.  Returns
    (X', L, scale) with X' = L X per node (L of shape (B, 6, 6) acting on
    the slots) and phi(X) = scale * phi(X') for both densities:
    * the second-derivative slots are sheared off the frame, X_a - sum_f
      c_fa X_f with c the least-squares coefficients of X_a on the frame
      vectors, found twice: the second pass solves against what the first
      leaves, which brings the cross entries X'_f . X'_a from about 1e-10
      to roundoff of |X'_f| |X'_a| next to the poles of the sphere chart.
      The densities see X_a only through its normal part, so they do not
      change, and at X' the cross entries the kernels drop are zero;
    * the chart is scaled by powers of two, u -> 2^-a u and v -> 2^-b v,
      so that |X'_u| and |X'_v| lie in [1/2, 1) and the Gram matrix is not
      badly scaled where the sphere chart's metric degenerates.  |II|^2
      does not change and the area form gains 2^-(a+b), so scale is
      2^(a+b); the scaling is exact in floating point.
    """
    F = X[:, frame]
    FF = np.einsum("nfq,nhq->nfh", F, F)
    L = np.broadcast_to(np.eye(6), (len(X), 6, 6)).copy()
    Xs = X.copy()
    for _ in range(2):
        coef = np.linalg.solve(FF, np.einsum("nfq,naq->nfa", F, Xs[:, 3:]))
        L[:, 3:, frame] -= np.swapaxes(coef, 1, 2)
        Xs[:, 3:] -= np.einsum("nfa,nfq->naq", coef, F)
    _, a = np.frexp(np.sqrt(np.sum(X[:, 1] * X[:, 1], axis=-1)))
    _, b = np.frexp(np.sqrt(np.sum(X[:, 2] * X[:, 2], axis=-1)))
    s = np.ldexp(1.0, -np.stack([0 * a, a, b, 2 * a, a + b, 2 * b], -1))
    return Xs * s[..., None], L * s[..., None], np.ldexp(1.0, a + b)


def _node_kernel_blocks(immersion):
    """Constrained node hessians and gradients of the area and F densities,
    block by block.

    Yields (lo, hi, K_area, K_f, g_area, g_f) for consecutive blocks of
    _NODE_BLOCK nodes, with K of shape (hi - lo, 6Q, 6Q) and g of shape
    (hi - lo, 6Q), in the coordinates of node_coordinates (_kernel_block).
    The kernels are written into buffers that every block of the pass
    reuses, as are the block's other large arrays, so that a pass maps
    them once: the caller may read and change the kernels until it asks
    for the next block.  With the last block the pass holds nothing but
    its kernels.  A node's kernels do not depend on the block it is in.
    The cost does not depend on any variation basis, and on Q only
    through the pull-back.
    """
    N = immersion.basis.num_nodes
    Q = immersion.ambient.dim
    X = node_coordinates(*immersion.derivatives()).reshape(N, 6, Q)
    weights = immersion.basis.chart_weights
    # allocated once per pass: arrays of this size, freed block by block,
    # would go back to the operating system and be faulted in again
    rows = len(_PSI_P) + 3 * immersion.ambient.frame_size
    B = min(N, _NODE_BLOCK)
    work = [np.empty((B,) + shape) for shape in
            ((rows, 6 * Q), (rows, 6 * Q), (rows, rows), (6 * Q, 6 * Q),
             (6 * Q, 6 * Q))]
    for lo in range(0, N, _NODE_BLOCK):
        hi = min(N, lo + _NODE_BLOCK)
        kernels = _kernel_block(immersion.ambient, X[lo:hi], weights[lo:hi],
                                [x[:hi - lo] for x in work])
        if hi == N:
            # the caller of the last block holds its kernels and nothing
            # more of the pass
            del work
        yield (lo, hi, *kernels)


def _kernel_block(ambient, X, weights, work):
    """(K_area, K_f, g_area, g_f) of one block of node vectors X (B, 6, Q)
    with quadrature weights (B,); work holds the block's buffers, shaped
    (B, R, 6Q) twice, (B, R, R) and (B, 6Q, 6Q) twice for the R rows of
    d2phi below, and the kernels are the last two.

    Each density is phi(Gamma) of the node Gram matrix, evaluated at the
    node vectors X' = L X of _gram_coordinates, where the cross entries
    vanish.  A second-order adjoint over psi's nine entries
    (_nine_entry_densities, jets.gradient_hessian) gives the gradient and
    the hessian of both densities, the hessian symmetrized and joined by
    the closed-form cross block, and
        K = J^T d2phi J + (L^T D L + r) (x) I_Q,    g = J^T dphi,
    with J = J'(L (x) I_Q) over the Gram entries whose rows of d2phi are
    not zero (the nine and the cross entries), pull them back to the node
    coordinates; r is kappa times the retraction form of g
    (_retraction_kernel), so K is the kernel of the constrained hessian.
    """
    B, _, Q = X.shape
    kappa = ambient.curvature_constant
    frame_size = ambient.frame_size
    frame = [1, 2, 0][:frame_size]
    # rows of d2phi: psi's nine entries, then the cross entries (f, a),
    # a-major, so that the cross block is -S (x) F^-1
    rows_p = np.concatenate([_PSI_P, np.tile(frame, 3)])
    rows_q = np.concatenate([_PSI_Q, np.repeat([3, 4, 5], frame_size)])
    rows = np.arange(len(rows_p))
    nine, cross = slice(0, 9), slice(9, None)
    # J' and then d2phi J share the first buffer
    HJ, J, hess, *kernels = work

    Xs, L, scale = _gram_coordinates(X, frame)
    gram = np.sum(Xs[:, :, None, :] * Xs[:, None, :, :], axis=-1)
    w = weights * scale
    _, grads, hessians = gradient_hessian(
        lambda x: _nine_entry_densities(x, w), gram[:, _PSI_P, _PSI_Q].T)
    # the inverse Gram matrix of the frame, in the order of frame
    s = None if frame_size == 2 else (gram[:, 1, 0], gram[:, 2, 0],
                                      gram[:, 0, 0])
    cof, det_frame = _frame_cofactors(gram[:, 1, 1], gram[:, 1, 2],
                                      gram[:, 2, 2], s)
    F_inv = np.moveaxis(np.array(cof), -1, 0) / det_frame[:, None, None]
    # row (p, q) of J' holds X'_q in slot p and X'_p in slot q
    Jp = HJ.reshape(B, len(rows), 6, Q)
    Jp[...] = 0.0
    Jp[:, rows, rows_q] = Xs[:, rows_p]
    Jp[:, rows, rows_p] += Xs[:, rows_q]
    np.matmul(np.swapaxes(L, 1, 2)[:, None], Jp, out=J.reshape(Jp.shape))
    Jt = np.swapaxes(J, 1, 2)
    gradients = []
    for dpsi, h, K in zip(grads, hessians, kernels):
        dpsi = dpsi.T
        D = np.zeros((B, 6, 6))
        D[:, _PSI_P, _PSI_Q] = dpsi
        D[:, _PSI_Q, _PSI_P] = dpsi
        D[:, range(6), range(6)] *= 2.0
        h = np.moveaxis(h, -1, 0)
        hess[...] = 0.0
        hess[:, nine, nine] = 0.5 * (h + np.swapaxes(h, 1, 2))
        S = D[:, 3:, 3:]
        hess[:, cross, cross] = -(
            S[:, :, None, :, None] * F_inv[:, None, :, None, :]
        ).reshape(B, 3 * frame_size, 3 * frame_size)
        np.matmul(Jt, np.matmul(hess, J, out=HJ), out=K)
        g = (Jt[:, :, nine] @ dpsi[..., None])[..., 0]
        r = np.swapaxes(L, 1, 2) @ D @ L
        r += kappa * _retraction_kernel(X, g)
        _add_kron_identity(K, r)
        gradients.append(g)
    return (*kernels, *gradients)


def _add_kron_identity(K, r):
    """K += r (x) I_Q in place, for K (N, 6Q, 6Q) and r (N, 6, 6)."""
    Q = K.shape[-1] // 6
    blocks = np.reshape(K, (len(K), 6, Q, 6, Q), copy=False)
    for q in range(Q):
        blocks[:, :, q, :, q] += r


def _retraction_kernel(X, g):
    """Node kernel of the bilinear form (w_a, w_b) -> DA(-(w_a . w_b) Phi).

    X (N, 6, Q) and g (N, 6Q) are the node vectors of Phi and the node
    gradient of the density.  The product rule of
    _retraction_curvature_triple, paired with g, gives coefficients on
    s = w_a . w_b and its chart derivatives; each is a bilinear form whose
    blocks are multiples of the Q x Q identity.  Returns those multiples,
    r of shape (N, 6, 6): the kernel is r (x) I_Q (_add_kron_identity).
    """
    G = g.reshape(X.shape)

    def dot(slot, y):
        return np.einsum("...q,...q->...", G[..., slot, :], y)

    P, P_u, P_v = X[..., 0, :], X[..., 1, :], X[..., 2, :]
    c_s = -np.einsum("...sq,...sq->...", G, X)
    c_u = -(dot(1, P) + 2.0 * dot(3, P_u) + dot(4, P_v))
    c_v = -(dot(2, P) + dot(4, P_u) + 2.0 * dot(5, P_v))
    c_uu, c_uv, c_vv = (-dot(slot, P) for slot in (3, 4, 5))
    # s_ij = W_a,ij . W_b + W_a,i . W_b,j + W_a,j . W_b,i + W_a . W_b,ij
    terms = [((0, 0), c_s),
             ((1, 0), c_u), ((0, 1), c_u), ((2, 0), c_v), ((0, 2), c_v),
             ((3, 0), c_uu), ((0, 3), c_uu), ((1, 1), 2.0 * c_uu),
             ((4, 0), c_uv), ((0, 4), c_uv), ((1, 2), c_uv), ((2, 1), c_uv),
             ((5, 0), c_vv), ((0, 5), c_vv), ((2, 2), 2.0 * c_vv)]
    r = np.zeros(c_s.shape + (6, 6))
    for (p, q), coeff in terms:
        r[..., p, q] += coeff
    return r


# ---------------------------------------------------------------------------
# path evaluators (feed the finite-difference oracles)
# ---------------------------------------------------------------------------

def _path_energies(immersion, w, t, retract):
    """(area, f) of the map retract(Phi + t w), evaluated pointwise."""
    w = as_variation(immersion, w)
    P, Pd, Pdd = immersion.derivatives()
    W, Wd, Wdd = w.derivatives()
    pw = pointwise_geometry(*retract(P + t * W, Pd + t * Wd, Pdd + t * Wdd),
                            immersion.ambient)
    area, f = _node_densities(pw, immersion.basis.chart_weights)
    return float(np.sum(area)), float(np.sum(f))


def free_path_energies(immersion, w, t):
    """(area, f) of the map Phi + t w, evaluated pointwise (no refit)."""
    return _path_energies(immersion, w, t, lambda *z: z)


def projected_path_energies(immersion, w, t):
    """(area, f) of the retracted map pi(Phi + t w), pointwise.

    Chart derivatives of the retracted map come from the ambient's
    closed-form retract (the chain rule through z -> z/|z| on the sphere,
    the free path in flat space), so no spectral refit enters: this is the
    independent constrained-path oracle.
    """
    return _path_energies(immersion, w, t, immersion.ambient.retract)


def fd_first(path_fn, h=1e-3):
    """Richardson-extrapolated central first difference of a scalar path."""
    def central(step):
        return (path_fn(step) - path_fn(-step)) / (2.0 * step)
    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def fd_second(path_fn, h=1e-3):
    """Richardson-extrapolated central second difference of a scalar path."""
    base = path_fn(0.0)

    def central(step):
        return (path_fn(step) - 2.0 * base + path_fn(-step)) / step ** 2
    return (4.0 * central(h / 2.0) - central(h)) / 3.0


# ---------------------------------------------------------------------------
# ambient fields and composition bounds
# ---------------------------------------------------------------------------

class AmbientField:
    """Vector field on the ambient space with analytic first/second
    derivatives, used for composition estimates v o Phi."""

    def __init__(self, value, jacobian, hessian):
        self.value = value        # (.., Q) -> (.., Q)
        self.jacobian = jacobian  # (.., Q) -> (.., Q, Q)  dv_a/dz_b
        self.hessian = hessian    # (.., Q) -> (.., Q, Q, Q) d2v_a/dz_b dz_c


def polynomial_field(const, lin=None, quad=None):
    """Quadratic ambient polynomial v_a(z) = c_a + L_ab z_b + z^T Q_a z."""
    const = np.asarray(const, dtype=float)
    Q = const.shape[0]
    lin = np.zeros((Q, Q)) if lin is None else np.asarray(lin, dtype=float)
    quad = np.zeros((Q, Q, Q)) if quad is None else np.asarray(quad, dtype=float)
    quad = 0.5 * (quad + np.swapaxes(quad, 1, 2))

    def value(z):
        return (const + np.einsum("ab,...b->...a", lin, z)
                + np.einsum("abc,...b,...c->...a", quad, z, z))

    def jacobian(z):
        return lin + 2.0 * np.einsum("abc,...c->...ab", quad, z)

    def hessian(z):
        return np.broadcast_to(2.0 * quad, z.shape[:-1] + quad.shape).copy()

    return AmbientField(value, jacobian, hessian)


def composed_variation_bounds(immersion, field):
    """Pointwise composition estimates for w = v o Phi.

    Verifies the chain-rule bounds
        |grad w|_g       <= sqrt(2) sup |Dv|
        |covhess w|_g    <= 2 sup |D2v| + sup |Dv| * sup |covhess Phi|_g
    and returns both sides (lhs always <= rhs up to roundoff).
    """
    geom = immersion.geometry
    P, Pd, Pdd = immersion.derivatives()
    J = field.jacobian(P)
    H = field.hessian(P)
    W = field.value(P)
    Wd = np.einsum("...ab,...ib->...ia", J, Pd)
    Wdd = (np.einsum("...abc,...ib,...jc->...ija", H, Pd, Pd)
           + np.einsum("...ab,...ijb->...ija", J, Pdd))
    grad2 = np.einsum("...ij,...ia,...ja->...", geom.ginv, Wd, Wd)
    lhs1 = float(np.sqrt(np.max(grad2)))
    jnorm = np.linalg.norm(J, ord=2, axis=(-2, -1))
    rhs1 = float(np.sqrt(2.0) * np.max(jnorm))

    ch = _covariant_hessian_samples(geom, Wd, Wdd)
    ch2 = np.einsum("...ik,...jl,...ija,...kla->...",
                    geom.ginv, geom.ginv, ch, ch)
    lhs2 = float(np.sqrt(np.max(ch2)))
    # covariant hessian of Phi itself: II plus the radial block on spheres
    cphi = _covariant_hessian_samples(geom, Pd, Pdd)
    cphi2 = np.einsum("...ik,...jl,...ija,...kla->...",
                      geom.ginv, geom.ginv, cphi, cphi)
    hnorm = np.max(np.sqrt(np.sum(H * H, axis=(-3, -2, -1))))
    rhs2 = float(2.0 * hnorm + np.max(jnorm) * np.sqrt(np.max(cphi2)))
    return {"grad_lhs": lhs1, "grad_rhs": rhs1,
            "hess_lhs": lhs2, "hess_rhs": rhs2}
