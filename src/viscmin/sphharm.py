"""Real spherical harmonics on the polar chart (theta, phi) of S^2.

Degree-L truncation on a Gauss-Legendre(2L) x uniform(2L+1) product grid.
The Gauss nodes sit strictly inside (0, pi), so chart quantities stay regular
on every node, and quadrature of band-limited integrands is exact (degree
4L-1 in cos theta, order 2L in phi).

Each real harmonic separates into a theta-factor and a phi-factor,
    R_{l,0} = T_l^0(theta),
    R_{l,m} = sqrt2 T_l^m(theta) cos(m phi)    (m > 0),
    R_{l,-m} = sqrt2 T_l^m(theta) sin(m phi)   (m > 0),
orthonormal for the round measure sin(theta) dtheta dphi.  The T_l^m are
the fully normalised associated Legendre functions without the
Condon-Shortley phase, from the standard sectoral and three-term
recurrences (Holmes & Featherstone, J. Geodesy 76, 2002); their theta
derivatives come from the ladder relation between neighbouring orders,
which never divides by sin(theta), and the phi derivatives are written
out.  So the tables are exact spectral derivatives at any point, poles
included, and need numpy only.  These are the usual real combinations
sqrt2 (-1)^m Re/Im Y_l^m of the complex harmonics.

The basis is the genus-0 chart, and it answers every chart question itself:
genus, resolution (the degree L that the constructor and resample take),
of_degree(d) (the chart of band d, here SphHarmBasis(d)), and its checkpoint
entry (to_dict and its inverse from_dict).  No other module tests the basis
type.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ResolutionTooLow, ShapeMismatch

__all__ = ["SphHarmBasis"]

_DERIV_SLOT = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (2, 0): 3, (1, 1): 4, (0, 2): 5}


def _theta_factors(L, theta):
    """T_l^m(theta) for 0 <= m <= l <= L as [L + 1, L + 2, npts].

    Entries with m > l are zero, so the ladder can read order m + 1.
    """
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    out = np.zeros((L + 1, L + 2, theta.size))
    out[0, 0] = 1.0 / np.sqrt(4.0 * np.pi)
    for ell in range(1, L + 1):
        out[ell, ell] = (np.sqrt((2 * ell + 1) / (2 * ell)) * sin_t
                         * out[ell - 1, ell - 1])
        out[ell, ell - 1] = np.sqrt(2 * ell + 1) * cos_t * out[ell - 1, ell - 1]
        m = np.arange(ell - 1)[:, None]
        a = np.sqrt((4 * ell * ell - 1) / (ell * ell - m * m))
        b = np.sqrt(((ell - 1) ** 2 - m * m) / (4 * (ell - 1) ** 2 - 1))
        out[ell, :ell - 1] = a * (cos_t * out[ell - 1, :ell - 1]
                                  - b * out[ell - 2, :ell - 1])
    return out


def _theta_derivative(T):
    """d/dtheta of a [L + 1, L + 2, npts] stack of theta-factors.

    dT_l^m = (sqrt((l+m)(l-m+1)) T_l^(m-1) - sqrt((l-m)(l+m+1)) T_l^(m+1)) / 2
    and dT_l^0 = -sqrt(l(l+1)) T_l^1; linear with constant coefficients, so
    applying it to the derivatives gives the second derivatives.
    """
    L = T.shape[0] - 1
    ell = np.arange(L + 1)[:, None]
    m = np.arange(1, L + 1)
    down = np.sqrt(np.maximum((ell + m) * (ell - m + 1), 0))[..., None]
    up = np.sqrt(np.maximum((ell - m) * (ell + m + 1), 0))[..., None]
    out = np.zeros_like(T)
    out[:, 0] = -np.sqrt(ell * (ell + 1)) * T[:, 1]
    out[:, 1:L + 1] = 0.5 * (down * T[:, :L] - up * T[:, 2:])
    return out


def _real_tables(L, theta, phi):
    """Stack [K, 6, npts] of R_k and its chart derivatives at given points.

    The theta-factors are computed once per distinct theta (2L of them on
    the product grid) and each table entry is one product of a theta-factor
    with a phi-factor; rows run l^2 + l + m.
    """
    theta_u, inv = np.unique(theta, return_inverse=True)
    t0 = _theta_factors(L, theta_u)
    t1 = _theta_derivative(t0)
    t2 = _theta_derivative(t1)
    m = np.arange(L + 1)[:, None]
    c = np.sqrt(2.0) * np.cos(m * phi)
    s = np.sqrt(2.0) * np.sin(m * phi)
    c[0], s[0] = 1.0, 0.0
    # per slot: which theta-factor, and the phi-factor of the rows m >= 0
    # (cos) and m < 0 (sin)
    slots = [(0, c, s), (1, c, s), (0, -m * s, m * c), (2, c, s),
             (1, -m * s, m * c), (0, -m * m * c, -m * m * s)]
    out = np.empty(((L + 1) ** 2, 6, theta.size))
    for ell in range(L + 1):
        t = [f[ell, :ell + 1][:, inv] for f in (t0, t1, t2)]
        block = out[ell * ell:(ell + 1) ** 2]
        for slot, (k, cos_f, sin_f) in enumerate(slots):
            np.multiply(t[k], cos_f[:ell + 1], out=block[ell:, slot])
            np.multiply(t[k][1:], sin_f[1:ell + 1],
                        out=block[:ell][::-1, slot])
    return out


class SphHarmBasis:
    """Real spherical harmonics up to degree L with exact chart derivatives."""

    kind = "sphharm"
    genus = 0

    def __init__(self, degree):
        L = int(degree)
        if L < 2:
            raise ResolutionTooLow("spherical harmonic degree must be >= 2")
        self.degree = L
        self.n_theta = 2 * L
        self.n_phi = 2 * L + 1
        x, w_gl = leggauss(self.n_theta)
        theta = np.arccos(x)
        phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        self.grid_points = np.column_stack([tt.ravel(), pp.ravel()])
        self.num_nodes = self.n_theta * self.n_phi
        sin_t = np.sin(tt).ravel()
        d_phi = 2.0 * np.pi / self.n_phi
        w_nodes = np.repeat(w_gl, self.n_phi) * d_phi
        # chart-measure weights: integrate f(theta, phi) dtheta dphi
        self.chart_weights = w_nodes / sin_t
        # round-measure weights: integrate f sin(theta) dtheta dphi
        self._round_weights = w_nodes
        self._tables = _real_tables(L, self.grid_points[:, 0],
                                    self.grid_points[:, 1])

    @classmethod
    def of_degree(cls, degree):
        """The sphere chart of band degree, the same as cls(degree)."""
        return cls(degree)

    @property
    def resolution(self):
        """The degree that the constructor and resample take."""
        return self.degree

    @property
    def mode_count(self):
        return (self.degree + 1) ** 2

    def real_modes(self, cutoff):
        """Real harmonics of degree <= cutoff on the grid, with labels.

        Returns (samples (K, N), labels), row l^2 + l + m for Y(l, m),
        read off the tables; orthonormal on the round sphere.
        """
        c = min(cutoff, self.degree)
        labels = [f"Y({ell},{m})" for ell in range(c + 1)
                  for m in range(-ell, ell + 1)]
        return self._tables[:(c + 1) ** 2, 0].copy(), labels

    # -- transforms ----------------------------------------------------------

    def fit(self, samples):
        """Quadrature projection onto the real harmonics (exact if band-limited).

        samples : (num_nodes, ...) real
        returns real coefficients (mode_count, ...).
        """
        samples = np.asarray(samples, dtype=float)
        if samples.shape[0] != self.num_nodes:
            raise ShapeMismatch(
                f"expected {self.num_nodes} samples, got {samples.shape[0]}")
        tail = samples.shape[1:]
        flat = samples.reshape(self.num_nodes, -1)
        coeffs = self._tables[:, 0, :] @ (self._round_weights[:, None] * flat)
        return coeffs.reshape((self.mode_count,) + tail)

    def evaluate(self, coeffs, deriv=(0, 0)):
        coeffs = np.asarray(coeffs, dtype=float)
        tail = coeffs.shape[1:]
        flat = coeffs.reshape(self.mode_count, -1)
        vals = self._tables[:, _DERIV_SLOT[deriv], :].T @ flat
        return vals.reshape((self.num_nodes,) + tail)

    def evaluate_at(self, coeffs, points, deriv=(0, 0)):
        coeffs = np.asarray(coeffs, dtype=float)
        points = np.asarray(points, dtype=float)
        tail = coeffs.shape[1:]
        tables = _real_tables(self.degree, points[:, 0], points[:, 1])
        flat = coeffs.reshape(self.mode_count, -1)
        vals = tables[:, _DERIV_SLOT[deriv], :].T @ flat
        return vals.reshape((len(points),) + tail)

    # -- packed real coefficients (already real; packing is the identity) ----

    def pack_real(self, coeffs):
        return np.array(coeffs, dtype=float)

    def unpack_real(self, vec):
        vec = np.asarray(vec, dtype=float)
        if vec.shape[0] != self.mode_count:
            raise ShapeMismatch("coefficient vector has the wrong length")
        return vec.copy()

    # -- misc ---------------------------------------------------------------

    def resample(self, degree):
        return SphHarmBasis(degree)

    def transfer(self, coeffs, target):
        if not isinstance(target, SphHarmBasis):
            raise ShapeMismatch("can only transfer between sphere bases")
        coeffs = np.asarray(coeffs, dtype=float)
        tail = coeffs.shape[1:]
        out = np.zeros((target.mode_count,) + tail)
        k = min(self.mode_count, target.mode_count)
        out[:k] = coeffs[:k]
        return out

    def to_dict(self):
        return {"type": self.kind, "degree": self.degree}

    @classmethod
    def from_dict(cls, d):
        return cls(d["degree"])

    def __repr__(self):
        return f"SphHarmBasis(degree={self.degree})"
