"""Variation bases, hessian assembly, and Morse index bookkeeping.

The index of a critical point is counted on a finite-dimensional family of
band-limited variations: scalar spectral modes times orthonormal normal
frame fields (plus, optionally, tangential reparametrization fields, which
sit in the radical of the hessian at critical points).  The chart basis
owns the scalar modes and their band (real_modes); a family is one stack
of coefficients, its samples formed by broadcasting and fitted in one
call, and synthesized once, by one chart_jet of the stack, into one
read-only node array (M, N, 6, Q) kept on the family
(VariationBasis.jet): field a's node coordinates y_a(n) are its row
[a, n].  At a fixed immersion the constrained hessian of the relaxed
energy is the pencil H_area + sigma^2 H_F; both parts are contracted
from one pass of per-node second-derivative kernels of the energy
densities (a second-order adjoint in Gram coordinates, with the
retraction-curvature first-variation term folded in), contracted in
fixed node chunks as the pass yields them, reading the node array in
place, so one pencil serves every sigma and no kernel of the whole grid
is ever held.  The index/nullity come from the generalized symmetric
eigenproblem against the L2 Gram matrix.  The gradient (one product of
the node array with the first variation's node covector) and the
diagonal (contracted in the pencil's chunks from the same kernel pass)
serve only the critical point solver.
"""

import warnings

import numpy as np

from .errors import GramNotSPD, NonCriticalWarning, ShapeMismatch
from .surface import Variation, _jet_triple, _read_only, normal_frame
from . import energy

__all__ = [
    "VariationBasis", "SpectrumReport",
    "normal_variation_basis", "reparametrization_basis", "sigma_pencil",
    "assemble_hessian", "spectrum_index", "pencil_spectrum", "jacobi_spectrum",
    "CRITICAL_GRAD_TOL",
]

CRITICAL_GRAD_TOL = 1e-6


class VariationBasis:
    """A finite family of variations along one immersion.

    Held as one coefficient stack in the immersion's basis, the family on
    axis -2 (before the ambient component axis), with one label per field.
    Its samples are one node array (jet), synthesized once.
    """

    def __init__(self, immersion, coeffs, labels):
        self.immersion = immersion
        self.coeffs = coeffs
        self.labels = list(labels)
        if coeffs.shape[-2] != len(self.labels):
            raise ShapeMismatch("coefficients and labels differ in length")
        self._fields = None
        self._jet = None
        self._triples = None

    def __len__(self):
        return len(self.labels)

    @property
    def fields(self):
        """The family as Variations on views of the stack."""
        if self._fields is None:
            self._fields = [Variation(self.immersion,
                                      coeffs=self.coeffs[..., k, :])
                            for k in range(len(self))]
        return self._fields

    def jet(self):
        """The family's values and chart derivatives on the grid, one node
        array (M, N, 6, Q) in the slot order of energy.node_coordinates, so
        that jet()[a, n] holds the node coordinates y_a(n).  One chart_jet
        of the whole stack, kept on the basis, read-only."""
        if self._jet is None:
            self._jet = _read_only(self.immersion.basis.chart_jet(
                self.coeffs))
        return self._jet

    def triples(self):
        """(W, Wd, Wdd) over the whole family: views of jet, kept on the
        basis."""
        if self._triples is None:
            self._triples = _jet_triple(self.jet())
        return self._triples

    def _values(self):
        """The value slot of jet as a contiguous (M, N, Q) copy: the one
        operand of gram and gram_diagonal, so that the diagonal is gram's
        bit for bit."""
        return np.ascontiguousarray(self.jet()[:, :, 0])

    def gram(self):
        """L2(dvol) Gram matrix of the family."""
        W = self._values()
        return np.einsum("anq,bnq,n->ab", W, W, self.immersion.geometry.dvol)

    def gram_diagonal(self):
        """The diagonal of gram, without the rest of it."""
        W = self._values()
        return np.einsum("anq,anq,n->a", W, W, self.immersion.geometry.dvol)

    def extend(self, other):
        if other.immersion is not self.immersion:
            raise ShapeMismatch("bases live on different immersions")
        return VariationBasis(
            self.immersion,
            np.concatenate([self.coeffs, other.coeffs], axis=-2),
            self.labels + other.labels)


def normal_variation_basis(immersion, cutoff):
    """Scalar modes times orthonormal normal frame fields."""
    basis = immersion.basis
    modes, mode_labels = basis.real_modes(cutoff)
    frames = np.stack(normal_frame(immersion), axis=1)      # (N, J, Q)
    # samples (N, J, K, Q) of frame field j times mode k, fitted in one call
    samples = modes.T[:, None, :, None] * frames[:, :, None]
    N, J, K, Q = samples.shape
    suffixes = ["*nu"] if J == 1 else [f"*nu{j}" for j in range(J)]
    labels = [lab + sfx for sfx in suffixes for lab in mode_labels]
    return VariationBasis(immersion, basis.fit(samples.reshape(N, J * K, Q)),
                          labels)


def reparametrization_basis(immersion, cutoff):
    """Tangential fields d Phi . X for the chart fields X = s e_1, s e_2 of
    the scalar modes s (surface.tangential_field, fitted in one call)."""
    basis = immersion.basis
    modes, mode_labels = basis.real_modes(cutoff)
    _, Pd, _ = immersion.derivatives()
    # samples (N, K, 2, Q) of mode k times the chart derivative P_i
    samples = modes.T[:, :, None, None] * Pd[:, None]
    N, K, _, Q = samples.shape
    return VariationBasis(immersion, basis.fit(samples.reshape(N, 2 * K, Q)),
                          [f"{lab}*d{i + 1}" for lab in mode_labels
                           for i in range(2)])


# nodes per chunk of the pencil's contraction.  The sums run chunk by
# chunk in this fixed grouping, whatever the block of the kernel pass, so
# the pencil's bits do not depend on energy._NODE_BLOCK
_PENCIL_CHUNK = 256


def _kernel_chunks(immersion):
    """The blocks of energy._node_kernel_blocks regrouped into consecutive
    chunks of _PENCIL_CHUNK nodes: yields (lo, hi, K_area, K_f, g_area,
    g_f) like the blocks.  A chunk that lies inside one block is a view of
    it; only a chunk that spans blocks is gathered into one buffer, reused
    for every such chunk."""
    N = immersion.basis.num_nodes
    gathered = None
    for lo, hi, *block in energy._node_kernel_blocks(immersion):
        pos = lo
        while pos < hi:
            start = pos - pos % _PENCIL_CHUNK
            stop = min(N, start + _PENCIL_CHUNK)
            end = min(hi, stop)
            parts = [x[pos - lo:end - lo] for x in block]
            if pos == start and end == stop:
                yield (start, stop, *parts)
            else:
                if gathered is None:
                    gathered = [np.empty((_PENCIL_CHUNK,) + x.shape[1:])
                                for x in block]
                for whole, part in zip(gathered, parts):
                    whole[pos - start:end - start] = part
                if end == stop:
                    yield (start, stop, *(x[:stop - start] for x in gathered))
            pos = end


def _node_chunks(immersion, nodes):
    """The chunks of _kernel_chunks with the family's node coordinates on
    them: yields (lo, hi, Y, YK, kernels) with Y = nodes[:, lo:hi] as
    (M, hi - lo, 6Q), a view of the node array nodes (M, N, 6, Q), and YK
    a field-major buffer of Y's shape, the same memory for every chunk."""
    M = len(nodes)
    buffer = None
    for lo, hi, *kernels in _kernel_chunks(immersion):
        if buffer is None:
            # taken once the first block is formed, so that the buffer and
            # the temporaries of that block are not held at once
            buffer = np.empty(M * _PENCIL_CHUNK * nodes[0, 0].size)
        Y = nodes[:, lo:hi].reshape(M, hi - lo, -1)
        yield lo, hi, Y, buffer[:Y.size].reshape(Y.shape), kernels


def _times_kernel(Y, K, YK):
    """YK = Y K node by node, (M, B, 6Q) from Y and K (B, 6Q, 6Q)."""
    np.matmul(np.swapaxes(Y, 0, 1), K, out=np.swapaxes(YK, 0, 1))
    return YK


def _add_chunk(sums, Y, YK, kernels):
    """Add the terms of one chunk to the pencil sums (H_area, H_f,
    grad_area, grad_f) in place, from its kernels (K_area, K_f, g_area,
    g_f) and its node coordinates Y, with YK the chunk's buffer
    (_node_chunks)."""
    Y_rows = Y.reshape(len(Y), -1)
    # (Y K) into the field-major buffer, then one matmul of its rows
    # against Y's rows
    for H, K in zip(sums[:2], kernels[:2]):
        H += _times_kernel(Y, K, YK).reshape(Y_rows.shape) @ Y_rows.T
    for grad, g in zip(sums[2:], kernels[2:]):
        grad += np.einsum("anp,np->a", Y, g)


def sigma_pencil(immersion, basis):
    """The sigma-split of the constrained hessian on a variation basis.

    Returns (H_area, H_F, G, grad_area, grad_F): at this immersion the
    constrained A^sigma hessian is exactly H_area + sigma^2 H_F and the
    gradient grad_area + sigma^2 grad_F, for every sigma; G is the L2 Gram
    matrix.  One pass of energy._node_kernel_blocks serves all of it: each
    part's constrained node kernel K_n and node gradient g_n, so that
    H_ab = sum_n y_a(n)^T K_n y_b(n) and grad_a = sum_n g_n . y_a(n) with
    y_a(n) the node coordinates of w_a, read in place from the basis's
    node array (VariationBasis.jet).  The sums are contracted chunk by
    chunk as the pass yields its kernels (_node_chunks), so no kernel of
    the whole grid is ever held, and the pencil is bit-identical for any
    block size of the pass.
    """
    M = len(basis)
    # -0.0 is the exact additive identity: the sums of a single chunk keep
    # their bits
    sums = [np.full((M, M), -0.0), np.full((M, M), -0.0),
            np.full(M, -0.0), np.full(M, -0.0)]
    for _, _, Y, YK, kernels in _node_chunks(immersion, basis.jet()):
        _add_chunk(sums, Y, YK, kernels)
    H_area, H_f, grad_area, grad_f = sums
    return (0.5 * (H_area + H_area.T), 0.5 * (H_f + H_f.T), basis.gram(),
            grad_area, grad_f)


def _grad_norm(grad, gram_diag):
    """sup_a |grad_a| / sqrt(G_aa): the sup of |DA^sigma(w_a)| over
    Gram-normalized basis fields."""
    return float(np.max(np.abs(grad)
                        / np.sqrt(np.maximum(gram_diag, 1e-300))))


def _pencil_hessian(pencil, sigma):
    """(H, G, grad_norm) of a sigma_pencil at one sigma (_grad_norm)."""
    H_area, H_f, G, grad_area, grad_f = pencil
    return (H_area + sigma ** 2 * H_f, G,
            _grad_norm(grad_area + sigma ** 2 * grad_f, np.diag(G)))


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

    Returns (gram_diag, grad).  The gradient is one matrix-vector product
    of the basis's node array with the node covector of the explicit
    first-variation formulas (energy._node_covector), with no jet pass, so
    this scales to full-band bases where the dense assembly would not; the
    critical point solver's gradient.
    """
    nodes = basis.jet()
    covector = energy._node_covector(immersion, sigma)
    return (basis.gram_diagonal(),
            nodes.reshape(len(nodes), -1) @ covector.ravel())


def hessian_diagonal(immersion, basis, sigma):
    """Diagonal of the constrained hessian, no off-diagonal.

    The diagonal H_aa = sum_n y_a(n)^T K_n y_a(n) of the assembly, with
    K = K_area + sigma^2 K_f the constrained node kernels, contracted chunk
    by chunk as the kernel pass yields them (_node_chunks, the pencil's
    chunks and buffer), so that no (N, 6Q, 6Q) array is ever held and the
    cost is one kernel pass plus one node-wise quadratic form per field;
    this scales to full-band bases where the dense assembly would not.
    The critical point solver's Newton denominators.  Each node's terms
    are summed over the nodes at the end, so the diagonal is bit-identical
    for any block size.
    """
    nodes = basis.jet()
    per_node = np.empty(nodes.shape[:2])
    for lo, hi, Y, YK, (K, K_f, _, _) in _node_chunks(immersion, nodes):
        K_f *= sigma ** 2
        K += K_f
        _times_kernel(Y, K, YK)
        YK *= Y
        YK.sum(axis=-1, out=per_node[:, lo:hi])
    return per_node.sum(axis=1)


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
        chol = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise GramNotSPD(f"Gram matrix is not positive definite: {exc}")
    # G = C C^T, so (H, G) has the eigenvalues of C^-1 H C^-T
    reduced = np.linalg.solve(chol, np.linalg.solve(chol, H).T)
    vals = np.linalg.eigvalsh(reduced)
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
