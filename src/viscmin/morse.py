"""Variation bases, hessian assembly, and Morse index bookkeeping.

The index of a critical point is counted on a finite-dimensional family of
band-limited variations: scalar spectral modes times orthonormal normal
frame fields (plus, optionally, tangential reparametrization fields, which
sit in the radical of the hessian at critical points). At a fixed
immersion the constrained hessian of the relaxed energy is the pencil
H_area + sigma^2 H_F; both parts are contracted from one pass of per-node
second-derivative kernels of the energy densities (exact jet propagation
in Gram coordinates, with the retraction-curvature first-variation term
folded in), so one pencil serves every sigma.  The index/nullity come
from the generalized symmetric eigenproblem against the L2 Gram matrix.
A basis fits and synthesizes its whole family in one pass each and keeps
the triples.  The gradient contraction and the per-field diagonal pass
serve only the critical point solver.
"""

import warnings

import numpy as np
import scipy.linalg

from .errors import GramNotSPD, NonCriticalWarning, ShapeMismatch
from .fourier import FourierBasis
from .sphharm import SphHarmBasis
from .surface import (Variation, _family_derivatives, normal_frame,
                      tangential_field)
from . import energy

__all__ = [
    "VariationBasis", "SpectrumReport", "scalar_modes",
    "normal_variation_basis", "reparametrization_basis", "sigma_pencil",
    "assemble_hessian", "spectrum_index", "pencil_spectrum", "jacobi_spectrum",
    "CRITICAL_GRAD_TOL",
]

CRITICAL_GRAD_TOL = 1e-6


def scalar_modes(immersion, cutoff):
    """Real scalar mode samples on the immersion grid, with labels.

    Torus: 1, cos/sin(mu + nv) over the canonical half-space with
    |m|, |n| <= cutoff. Sphere: real spherical harmonics with degree
    <= cutoff. Both families are L2-orthogonal on their round reference
    measures, and band-limited by construction.
    """
    basis = immersion.basis
    pts = basis.grid_points
    fields = []
    labels = []
    if isinstance(basis, FourierBasis):
        c = min(cutoff, basis.mmax)
        fields.append(np.ones(len(pts)))
        labels.append("const")
        pairs = [(0, n) for n in range(1, c + 1)]
        for m in range(1, c + 1):
            pairs += [(m, n) for n in range(-c, c + 1)]
        for m, n in pairs:
            phase = m * pts[:, 0] + n * pts[:, 1]
            fields.append(np.cos(phase))
            labels.append(f"cos({m},{n})")
            fields.append(np.sin(phase))
            labels.append(f"sin({m},{n})")
    elif isinstance(basis, SphHarmBasis):
        # the basis already tabulates every harmonic at its own nodes,
        # row ell^2 + ell + m, so the modes are read off, not re-evaluated
        c = min(cutoff, basis.degree)
        fields = list(basis._tables[:(c + 1) ** 2, 0].copy())
        labels = [f"Y({ell},{m})" for ell in range(c + 1)
                  for m in range(-ell, ell + 1)]
    else:
        raise ShapeMismatch("unsupported basis type")
    return fields, labels


class VariationBasis:
    """A finite family of variations along one immersion."""

    def __init__(self, immersion, fields, labels):
        self.immersion = immersion
        self.fields = list(fields)
        self.labels = list(labels)
        if len(self.fields) != len(self.labels):
            raise ShapeMismatch("fields and labels differ in length")
        self._triples = None

    def __len__(self):
        return len(self.fields)

    def triples(self):
        """Stacked (W, Wd, Wdd) arrays over the whole family.

        The fields' coefficients are stacked and synthesized together, one
        basis evaluation per chart derivative for the whole family; the
        arrays are kept on the basis, read-only.
        """
        if self._triples is None:
            coeffs = np.stack([f.coeffs for f in self.fields], axis=-2)
            self._triples = _family_derivatives(self.immersion.basis, coeffs)
            for x in self._triples:
                x.flags.writeable = False
        return self._triples

    def gram(self):
        """L2(dvol) Gram matrix of the family."""
        W = self.triples()[0]
        return np.einsum("anq,bnq,n->ab", W, W, self.immersion.geometry.dvol)

    def extend(self, other):
        if other.immersion is not self.immersion:
            raise ShapeMismatch("bases live on different immersions")
        return VariationBasis(self.immersion, self.fields + other.fields,
                              self.labels + other.labels)


def normal_variation_basis(immersion, cutoff):
    """Scalar modes times orthonormal normal frame fields."""
    modes, mode_labels = scalar_modes(immersion, cutoff)
    frames = normal_frame(immersion)
    # every field's samples stacked (N, M, Q), fitted in one call
    samples = np.stack([s[:, None] * nu for nu in frames for s in modes],
                       axis=1)
    coeffs = immersion.basis.fit(samples)
    fields = [Variation(immersion, coeffs=coeffs[..., k, :])
              for k in range(samples.shape[1])]
    labels = [lab + (f"*nu{a}" if len(frames) > 1 else "*nu")
              for a in range(len(frames)) for lab in mode_labels]
    return VariationBasis(immersion, fields, labels)


def reparametrization_basis(immersion, cutoff):
    """Tangential fields d Phi . X for band-limited chart fields X."""
    modes, mode_labels = scalar_modes(immersion, cutoff)
    fields, labels = [], []
    for s, lab in zip(modes, mode_labels):
        for k in range(2):
            X = np.zeros((len(s), 2))
            X[:, k] = s
            fields.append(tangential_field(immersion, X))
            labels.append(f"{lab}*d{k + 1}")
    return VariationBasis(immersion, fields, labels)


def sigma_pencil(immersion, basis):
    """The sigma-split of the constrained hessian on a variation basis.

    Returns (H_area, H_F, G, grad_area, grad_F): at this immersion the
    constrained A^sigma hessian is exactly H_area + sigma^2 H_F and the
    gradient grad_area + sigma^2 grad_F, for every sigma; G is the L2 Gram
    matrix.  One energy._node_kernels pass serves all of it: scalar jets
    of each node density over the 231 directions of its node Gram
    matrix, pulled back to the node coordinates.  The retraction form is
    linear in the node gradient, so in the sphere ambient each part's
    kernel gains its own retraction term, and the gradient is read off
    the node gradient, grad_a = sum_n g_n . y_a(n).  The pass runs in
    fixed blocks of nodes on every CPU, and the pencil is bit-identical
    for any CPU count.
    """
    K_area, K_f, g_area, g_f = energy._node_kernels(immersion)
    if immersion.ambient.kind == "sphere":
        P = immersion.derivatives()
        K_area += energy._retraction_kernel(*P, g_area)
        K_f += energy._retraction_kernel(*P, g_f)
    Y = energy.node_coordinates(*basis.triples())
    H_area, H_f = (np.einsum("anp,npq,bnq->ab", Y, K, Y, optimize=True)
                   for K in (K_area, K_f))
    grad_area, grad_f = (np.einsum("anp,np->a", Y, g)
                         for g in (g_area, g_f))
    return (0.5 * (H_area + H_area.T), 0.5 * (H_f + H_f.T), basis.gram(),
            grad_area, grad_f)


def _pencil_hessian(pencil, sigma):
    """(H, G, grad_norm) of a sigma_pencil at one sigma; grad_norm is the
    sup of |DA^sigma(w_a)| over Gram-normalized basis fields."""
    H_area, H_f, G, grad_area, grad_f = pencil
    grad = grad_area + sigma ** 2 * grad_f
    norms = np.sqrt(np.maximum(np.diag(G), 1e-300))
    return (H_area + sigma ** 2 * H_f, G,
            float(np.max(np.abs(grad) / norms)))


def assemble_hessian(immersion, basis, sigma, warn_critical=True):
    """Constrained hessian of A^sigma on a variation basis.

    Returns (H, G, grad_norm): the hessian matrix H_area + sigma^2 H_F of
    sigma_pencil, the L2 Gram matrix, and the sup of |DA^sigma(w_a)| over
    Gram-normalized basis fields.  Warns NonCriticalWarning when the
    gradient norm is not small.  Callers that need several sigma at one
    immersion keep the pencil instead (pencil_spectrum).
    """
    H, G, grad_norm = _pencil_hessian(sigma_pencil(immersion, basis), sigma)
    if warn_critical and grad_norm > CRITICAL_GRAD_TOL:
        warnings.warn(
            f"hessian assembled at a non-critical point "
            f"(gradient norm {grad_norm:.2e})", NonCriticalWarning)
    return H, G, grad_norm


def basis_gradient(immersion, basis, sigma):
    """Gram diagonal and gradient of A^sigma on a variation basis.

    Returns (gram_diag, grad).  The gradient is one contraction of the
    basis triples against the node covectors of the explicit
    first-variation formulas (energy.batched_linear), with no jet pass, so
    this scales to full-band bases where the dense assembly would not; the
    critical point solver's gradient.
    """
    W, Wd, Wdd = basis.triples()
    gram_diag = np.einsum("anq,anq,n->a", W, W, immersion.geometry.dvol)
    return gram_diag, energy.batched_linear(immersion, W, Wd, Wdd, sigma)


def hessian_diagonal(immersion, basis, sigma):
    """Diagonal of the constrained hessian, no off-diagonal.

    One jet pass per basis field, in pieces on every CPU with a bounded
    number in flight, so this scales to full-band bases where the dense
    assembly would not; the critical point solver's Newton denominators.
    In the sphere ambient the retraction term is the first variation
    (energy.batched_linear) of each field's retraction curvature.  The
    results are bit-identical for any CPU count.
    """
    W, Wd, Wdd = basis.triples()
    sphere = immersion.ambient.kind == "sphere"
    P, Pd, Pdd = immersion.derivatives()
    diag = np.empty(len(basis))

    def run(lo, hi):
        field = (W[lo:hi], Wd[lo:hi], Wdd[lo:hi])
        q, _ = energy.batched_quadratic(immersion, *field, sigma)
        if sphere:
            V, Vd, Vdd = energy._retraction_curvature_triple(
                P, Pd, Pdd, *field, *field)
            q = q + energy.batched_linear(immersion, V, Vd, Vdd, sigma)
        diag[lo:hi] = q

    energy._run_pieces(immersion, len(basis), run)
    return diag


class SpectrumReport:
    """Counted spectrum of a constrained hessian on a variation basis."""

    def __init__(self, eigenvalues, eps_neg, sigma, basis_size, grad_norm):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.eps_neg = float(eps_neg)
        self.sigma = float(sigma)
        self.basis_size = int(basis_size)
        self.grad_norm = float(grad_norm)

    @property
    def index(self):
        return int(np.sum(self.eigenvalues < -self.eps_neg))

    @property
    def nullity(self):
        return int(np.sum(np.abs(self.eigenvalues) <= self.eps_neg))

    def to_dict(self):
        return {
            "sigma": self.sigma,
            "index": self.index,
            "nullity": self.nullity,
            "eps_neg": self.eps_neg,
            "basis_size": self.basis_size,
            "grad_norm": self.grad_norm,
            "eigenvalues": self.eigenvalues.tolist(),
        }

    def __repr__(self):
        return (f"SpectrumReport(sigma={self.sigma:g}, index={self.index}, "
                f"nullity={self.nullity}, basis={self.basis_size})")


def spectrum_index(H, G, sigma=0.0, eps_neg=None, grad_norm=0.0):
    """Generalized eigenvalues of (H, G) with index/nullity counts.

    eps_neg defaults to 1e-6 * max(1, largest |eigenvalue|); eigenvalues in
    [-eps, eps] count as null.
    """
    H = np.asarray(H, dtype=float)
    G = np.asarray(G, dtype=float)
    try:
        scipy.linalg.cholesky(G)
    except scipy.linalg.LinAlgError as exc:
        raise GramNotSPD(f"Gram matrix is not positive definite: {exc}")
    try:
        vals = scipy.linalg.eigh(H, G, eigvals_only=True, driver="gvd")
    except scipy.linalg.LinAlgError:  # pragma: no cover - driver fallback
        vals = scipy.linalg.eigh(H, G, eigvals_only=True)
    if eps_neg is None:
        eps_neg = 1e-6 * max(1.0, float(np.max(np.abs(vals))))
    return SpectrumReport(vals, eps_neg, sigma, H.shape[0], grad_norm)


def pencil_spectrum(pencil, sigma, eps_neg=None):
    """spectrum_index of a sigma_pencil at one sigma, with its grad_norm."""
    H, G, grad_norm = _pencil_hessian(pencil, sigma)
    return spectrum_index(H, G, sigma=sigma, eps_neg=eps_neg,
                          grad_norm=grad_norm)


def jacobi_spectrum(immersion, sigma=0.0, cutoff=4, include_tangential=False,
                    eps_neg=None, warn_critical=True):
    """Spectrum of the constrained A^sigma hessian on the normal-mode basis."""
    basis = normal_variation_basis(immersion, cutoff)
    if include_tangential:
        basis = basis.extend(reparametrization_basis(immersion, cutoff))
    H, G, grad_norm = assemble_hessian(immersion, basis, sigma,
                                       warn_critical=warn_critical)
    return spectrum_index(H, G, sigma=sigma, eps_neg=eps_neg,
                          grad_norm=grad_norm)
