"""Relaxed-area energies and their first and second variations.

Three independent evaluation routes coexist on purpose:

* explicit tensor formulas for the first variation (metric sweep of the
  area form, normal-hessian pairing for the curvature energy, plus the
  radial-frame correction in the sphere ambient), gathered into per-node
  covectors that any batch of variations is contracted against;
* exact order-2 jets for second variations (no truncation error, uniform
  over ambients).  The hessian kernels behind every spectrum take scalar
  jets of the node densities as functions of the 21 dot products of each
  node's six vectors (the Gram route, _node_kernels); the vector jets of
  the pointwise geometry pipeline along whole fields
  (second_variation_ambient, batched_quadratic) stay as their oracle and
  serve the Newton diagonal;
* plain path evaluators (energies of the deformed map at finite t, chain
  rule through the radial projection for the constrained path) that feed
  the finite-difference oracles in the tests and the variation-check CLI.

Cross-checking these against each other is what the test suite does.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import NotTangent, ShapeMismatch
from .jets import Jet2, jet_sqrt
from .surface import Variation, pointwise_geometry, vdot

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
    if not isinstance(w, Variation):
        w = Variation(immersion, samples=np.asarray(w, dtype=float))
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
        on W     4e tr_g II (sphere ambient only: the radial frame vector
                 moves with the family),
    with Gamma^s_kl = g^{rs} (P_r . P_kl), R = g^-1 S g^-1 and
    S_ik = g^{jl} II_ij . II_kl.  Returns (A, (f, f_d, f_dd)) shaped like
    the (Wd) and (W, Wd, Wdd) samples of one field; f is None in flat
    space.
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
    f = None
    if immersion.ambient.kind == "sphere":
        f = (4.0 * e)[:, None] * geom.trace_II
    return A, (f, f_d, f_dd)


def _first_variation_densities(immersion, W, Wd, Wdd):
    """Per-node first variations of the area and F densities, to be
    integrated against dvol; leading batch axes of the triple pass through.
    Pairs the triple with the node covectors of _first_variation_covectors."""
    A, (f, f_d, f_dd) = _first_variation_covectors(immersion)
    d_area = np.einsum("...iq,...iq->...", Wd, A)
    d_f = (np.einsum("...ijq,...ijq->...", Wdd, f_dd)
           + np.einsum("...iq,...iq->...", Wd, f_d))
    if f is not None:
        d_f = d_f + np.einsum("...q,...q->...", W, f)
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
    if not isinstance(w, Variation):
        w = Variation(immersion, samples=np.asarray(w, dtype=float))
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
    if not isinstance(w, Variation):
        w = Variation(immersion, samples=np.asarray(w, dtype=float))
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
    retraction curvature -(w . w') Phi. Requires tangent variations in the
    sphere ambient.
    """
    if not isinstance(w, Variation):
        w = Variation(immersion, samples=np.asarray(w, dtype=float))
    wb = w if w_other is None else w_other
    if not isinstance(wb, Variation):
        wb = Variation(immersion, samples=np.asarray(wb, dtype=float))
    if immersion.ambient.kind == "sphere":
        fields = [w] if wb is w else [w, wb]
        for field in fields:
            defect = field.tangency_defect()
            if defect > tangent_tol:
                raise NotTangent(
                    f"variation leaves the tangent bundle by {defect:.2e}")
    amb = second_variation_ambient(immersion, w, None if wb is w else wb)
    d2 = amb["d2_area"] + sigma ** 2 * amb["d2_f"]
    if immersion.ambient.kind == "sphere":
        V, Vd, Vdd = _retraction_curvature_triple(
            *immersion.derivatives(), *w.derivatives(), *wb.derivatives())
        fv = first_variation_samples(immersion, V, Vd, Vdd)
        d2 += fv["d_area"] + sigma ** 2 * fv["d_f"]
    return float(d2)


# ---------------------------------------------------------------------------
# batched forms for hessian assembly
# ---------------------------------------------------------------------------

# jet directions in flight per diagonal pass (batched_quadratic over a
# family), split over the workers; bounds the memory of the jet arrays and
# does not change any result
_IN_FLIGHT = 64


def _cpu_count():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_pieces(immersion, total, run, step=None):
    """Call run(lo, hi) over consecutive pieces covering range(total), on
    every CPU.

    Pieces hold step items, by default ceil(min(_IN_FLIGHT, total) /
    workers) directions, so that about _IN_FLIGHT directions are in flight
    at once.  The calling thread takes pieces alongside workers - 1 pool
    threads; leaving it idle behind a pool of workers threads costs one
    more malloc arena of freed jet temporaries (on 2 CPUs, 4-8 MB more
    peak RSS for a Clifford torus spectrum and 19 MB for the equator's,
    measured on the vector-jet kernel pass).  Each piece must write only
    its own slices.  The immersion's lazy caches are filled here, on the
    calling thread, before any piece runs.  If pieces fail, the exception
    of the first of them is re-raised unchanged.
    """
    if total == 0:
        return
    immersion.derivatives()
    _ = immersion.geometry
    workers = _cpu_count()
    if step is None:
        step = -(-min(_IN_FLIGHT, total) // workers)
    starts = iter(range(0, total, step))
    lock = threading.Lock()
    errors = {}

    def drain():
        while True:
            with lock:
                lo = None if errors else next(starts, None)
            if lo is None:
                return
            try:
                run(lo, min(total, lo + step))
            except BaseException as exc:
                with lock:
                    errors[lo] = exc
                return

    with ThreadPoolExecutor(workers) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
    for future in helpers:
        future.result()
    if errors:
        raise errors[min(errors)]


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
# (along a line, Gamma_pq has second derivative 2 dX_p . dX_q).  The
# 21 x 21 hessian of phi comes from one scalar jet pass over the 231
# polarized Gram directions.

# nodes per piece of the kernel pass; bounds the memory of the jet arrays
# and does not change any result
_NODE_BLOCK = 64

# the Gram entries (p, q), p <= q, in the order of the jet directions
_GRAM_P, _GRAM_Q = np.triu_indices(6)


def node_coordinates(W, Wd, Wdd):
    """Stack a sample triple into node coordinates (..., N, 6Q), ordered
    (W, W_u, W_v, W_uu, W_uv, W_vv)."""
    return np.concatenate([W, Wd[..., 0, :], Wd[..., 1, :],
                           Wdd[..., 0, 0, :], Wdd[..., 0, 1, :],
                           Wdd[..., 1, 1, :]], axis=-1)


def _gram_densities(G, frame_size, weights):
    """Per-node (area, f) densities from the Gram matrix of the node vectors.

    G[p][q] = X_p . X_q for the node vectors (P, P_u, P_v, P_uu, P_uv,
    P_vv), as plain values or jets, with G[q][p] the same object.  The
    frame is (P_u, P_v), joined by P when frame_size is 3.  The normal
    parts of the second derivatives pair as
        N_ab = G_ab - c_a^T gram_inv c_b,   c_a = (X_f . X_a) over the frame,
    and |II|^2 = g^ir g^js N_(ij)(rs).  Built from +, -, *, / and sqrt
    only, like pointwise_geometry, so jets propagate exact derivatives.
    """
    g11, g12, g22 = G[1][1], G[1][2], G[2][2]
    det = g11 * g22 - g12 * g12
    if frame_size == 3:
        frame = (1, 2, 0)
        s1, s2, s0 = G[1][0], G[2][0], G[0][0]
        c01 = s2 * s1 - g12 * s0
        c02 = g12 * s2 - g22 * s1
        c12 = g12 * s1 - g11 * s2
        c00 = g22 * s0 - s2 * s2
        cof = ((c00, c01, c02), (c01, g11 * s0 - s1 * s1, c12),
               (c02, c12, det))
        det_frame = g11 * c00 + g12 * c01 + s1 * c02
    else:
        frame = (1, 2)
        cof = ((g22, -1.0 * g12), (-1.0 * g12, g11))
        det_frame = det
    inv_frame = 1.0 / det_frame
    k = len(frame)
    cross = [[G[f][a] for f in frame] for a in (3, 4, 5)]
    adj = [[sum(cof[f][h] * c[h] for h in range(k)) for f in range(k)]
           for c in cross]

    def normal(a, b):
        proj = sum(cross[a][f] * adj[b][f] for f in range(k))
        return G[3 + a][3 + b] - proj * inv_frame

    # g^-1 = adj(g) / det; the arguments of normal are (uu, uv, vv) slots
    II2 = (g22 * g22 * normal(0, 0) - 4.0 * g22 * g12 * normal(0, 1)
           + 2.0 * g12 * g12 * normal(0, 2)
           + 2.0 * (g11 * g22 + g12 * g12) * normal(1, 1)
           - 4.0 * g11 * g12 * normal(1, 2) + g11 * g11 * normal(2, 2)) \
        / (det * det)
    return _node_densities({"sqrt_det": jet_sqrt(det), "II2": II2}, weights)


def _gram_coordinates(X, frame):
    """Node vectors at which the Gram route keeps its digits.

    X (B, 6, Q) holds the node vectors, frame their frame slots.  Returns
    (X', L, scale) with X' = L X per node (L of shape (B, 6, 6) acting on
    the slots) and phi(X) = scale * phi(X') for both densities:
    * the second-derivative slots are sheared off the frame, X_a - sum_f
      c_fa X_f with c the least-squares coefficients of X_a on the frame
      vectors.  The densities see X_a only through its normal part, so
      they do not change, and the Gram route pairs nearly normal vectors
      instead of subtracting large tangential parts, as it must next to
      the poles of the sphere chart;
    * the chart is scaled by powers of two, u -> 2^-a u and v -> 2^-b v,
      so that |X'_u| and |X'_v| lie in [1/2, 1) and the Gram matrix is not
      badly scaled where the sphere chart's metric degenerates.  |II|^2
      does not change and the area form gains 2^-(a+b), so scale is
      2^(a+b); the scaling is exact in floating point.
    """
    F = X[:, frame]
    coef = np.linalg.solve(np.einsum("nfq,nhq->nfh", F, F),
                           np.einsum("nfq,naq->nfa", F, X[:, 3:]))
    L = np.broadcast_to(np.eye(6), (len(X), 6, 6)).copy()
    L[:, 3:, frame] = -np.swapaxes(coef, 1, 2)
    Xs = X.copy()
    Xs[:, 3:] -= np.einsum("nfa,nfq->naq", coef, F)
    _, a = np.frexp(np.sqrt(np.sum(X[:, 1] * X[:, 1], axis=-1)))
    _, b = np.frexp(np.sqrt(np.sum(X[:, 2] * X[:, 2], axis=-1)))
    s = np.ldexp(1.0, -np.stack([0 * a, a, b, 2 * a, a + b, 2 * b], -1))
    return Xs * s[..., None], L * s[..., None], np.ldexp(1.0, a + b)


def _node_kernels(immersion):
    """Node hessians and gradients of the area and F densities.

    Returns (K_area, K_f, g_area, g_f) with K of shape (N, 6Q, 6Q) and g of
    shape (N, 6Q), in the coordinates of node_coordinates.  Each density
    is phi(Gamma) of the node Gram matrix (_gram_densities), evaluated at
    the node vectors X' = L X of _gram_coordinates.  One scalar jet pass
    over the 231 Gram directions gives its gradient and hessian, diagonals
    from e_a and off-diagonals from e_a + e_b by polarization, and
        K = J^T d2phi J + (L^T D L) (x) I_Q,    g = J^T dphi,
    with J = J'(L (x) I_Q), pull them back to the node coordinates.  The
    pass runs in pieces of _NODE_BLOCK nodes, each carrying all 231
    directions, on every CPU by _run_pieces; a node's kernels do not
    depend on the piece it is in.  The cost does not depend on any
    variation basis, and on Q only through the pull-back.
    """
    Q = immersion.ambient.dim
    n = 6 * Q
    N = immersion.basis.num_nodes
    frame_size = immersion.ambient.frame_size
    frame = [1, 2, 0][:frame_size]
    X = node_coordinates(*immersion.derivatives()).reshape(N, 6, Q)
    weights = immersion.basis.chart_weights
    entries = np.arange(len(_GRAM_P))
    ii, jj = np.triu_indices(len(entries))
    E = np.zeros((len(ii), len(entries)))
    E[np.arange(len(ii)), ii] = 1.0
    E[np.arange(len(ii)), jj] = 1.0
    diag = ii == jj
    kernels = (np.empty((N, n, n)), np.empty((N, n, n)))
    gradients = (np.empty((N, n)), np.empty((N, n)))

    def run(lo, hi):
        Xs, L, scale = _gram_coordinates(X[lo:hi], frame)
        gram = np.sum(Xs[:, :, None, :] * Xs[:, None, :, :], axis=-1)
        G = [[None] * 6 for _ in range(6)]
        for k, (p, q) in enumerate(zip(_GRAM_P, _GRAM_Q)):
            G[p][q] = G[q][p] = Jet2(gram[:, p, q], E[:, k, None])
        dens = _gram_densities(G, frame_size, weights[lo:hi] * scale)
        # row (p, q) of J' holds X'_q in slot p and X'_p in slot q
        Jp = np.zeros((hi - lo, len(entries), 6, Q))
        Jp[:, entries, _GRAM_Q] = Xs[:, _GRAM_P]
        Jp[:, entries, _GRAM_P] += Xs[:, _GRAM_Q]
        J = np.einsum("nasq,nst->natq", Jp, L).reshape(hi - lo, -1, n)
        Jt = np.swapaxes(J, 1, 2)
        for d, K, g in zip(dens, kernels, gradients):
            c = d.c.T
            cd = c[:, diag]
            vals = np.where(diag, c, 0.5 * (c - cd[:, ii] - cd[:, jj]))
            hess = np.empty((hi - lo, len(entries), len(entries)))
            hess[:, ii, jj] = vals
            hess[:, jj, ii] = vals
            dphi = d.b[diag].T
            D = np.empty((hi - lo, 6, 6))
            D[:, _GRAM_P, _GRAM_Q] = dphi
            D[:, _GRAM_Q, _GRAM_P] = dphi
            D[:, range(6), range(6)] *= 2.0
            Kb = (Jt @ (hess @ J)).reshape(hi - lo, 6, Q, 6, Q)
            LDL = np.swapaxes(L, 1, 2) @ D @ L
            for q in range(Q):
                Kb[:, :, q, :, q] += LDL
            K[lo:hi] = Kb.reshape(hi - lo, n, n)
            g[lo:hi] = (Jt @ dphi[..., None])[..., 0]

    _run_pieces(immersion, N, run, step=_NODE_BLOCK)
    return kernels + gradients


def _retraction_kernel(P, Pd, Pdd, g):
    """Node kernel of the bilinear form (w_a, w_b) -> DA(-(w_a . w_b) Phi).

    g (N, 6Q) is the node gradient of the density.  The product rule of
    _retraction_curvature_triple, paired with g, gives coefficients on
    s = w_a . w_b and its chart derivatives; each is a bilinear form whose
    blocks are multiples of the Q x Q identity.
    """
    Q = P.shape[-1]
    G = g.reshape(g.shape[:-1] + (6, Q))
    X = node_coordinates(P, Pd, Pdd).reshape(G.shape)

    def dot(slot, y):
        return np.einsum("...q,...q->...", G[..., slot, :], y)

    P_u, P_v = X[..., 1, :], X[..., 2, :]
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
    return np.einsum("...pr,qs->...pqrs", r, np.eye(Q)).reshape(
        c_s.shape + (6 * Q, 6 * Q))


# ---------------------------------------------------------------------------
# path evaluators (feed the finite-difference oracles)
# ---------------------------------------------------------------------------

def free_path_energies(immersion, w, t):
    """(area, f) of the map Phi + t w, evaluated pointwise (no refit)."""
    if not isinstance(w, Variation):
        w = Variation(immersion, samples=np.asarray(w, dtype=float))
    P, Pd, Pdd = immersion.derivatives()
    W, Wd, Wdd = w.derivatives()
    pw = pointwise_geometry(P + t * W, Pd + t * Wd, Pdd + t * Wdd,
                            immersion.ambient)
    area, f = _node_densities(pw, immersion.basis.chart_weights)
    return float(np.sum(area)), float(np.sum(f))


def projected_path_energies(immersion, w, t):
    """(area, f) of the radially retracted map pi(Phi + t w), pointwise.

    Chart derivatives of the retracted map come from the closed-form chain
    rule through z -> z/|z|, so no spectral refit enters: this is the
    independent constrained-path oracle.
    """
    if immersion.ambient.kind != "sphere":
        return free_path_energies(immersion, w, t)
    if not isinstance(w, Variation):
        w = Variation(immersion, samples=np.asarray(w, dtype=float))
    P, Pd, Pdd = immersion.derivatives()
    W, Wd, Wdd = w.derivatives()
    z = P + t * W
    zd = Pd + t * Wd
    zdd = Pdd + t * Wdd
    r2 = np.sum(z * z, axis=-1)
    r = np.sqrt(r2)
    inv_r = 1.0 / r
    y = z * inv_r[..., None]
    zdotzd = np.einsum("...q,...iq->...i", z, zd)
    yd = zd * inv_r[..., None, None] \
        - z[..., None, :] * (zdotzd * inv_r[..., None] ** 3)[..., None]
    zdotzdd = np.einsum("...q,...ijq->...ij", z, zdd)
    zdzd = np.einsum("...iq,...jq->...ij", zd, zd)
    inv_r3 = inv_r ** 3
    inv_r5 = inv_r ** 5
    ydd = (zdd * inv_r[..., None, None, None]
           - zd[..., :, None, :] * (zdotzd * inv_r3[..., None])[..., None, :, None]
           - zd[..., None, :, :] * (zdotzd * inv_r3[..., None])[..., :, None, None]
           - z[..., None, None, :] * ((zdzd + zdotzdd) * inv_r3[..., None, None])[..., None]
           + 3.0 * z[..., None, None, :] * (zdotzd[..., :, None] * zdotzd[..., None, :]
                                            * inv_r5[..., None, None])[..., None])
    pw = pointwise_geometry(y, yd, ydd, immersion.ambient)
    area, f = _node_densities(pw, immersion.basis.chart_weights)
    return float(np.sum(area)), float(np.sum(f))


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
