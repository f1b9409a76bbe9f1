"""Real spherical harmonics on the polar chart (theta, phi) of S^2.

Degree-L truncation on a Gauss-Legendre(2L) x uniform(2L+1) product grid.
The Gauss nodes sit strictly inside (0, pi), so chart quantities stay regular
on every node, and quadrature of band-limited integrands is exact (degree
4L-1 in cos theta, order 2L in phi). First and second chart derivatives come
from scipy.special.sph_harm_y_all, so spectral differentiation is exact too.

The real harmonics are the usual combinations of the complex ones,
    R_{l,0} = Y_l^0,
    R_{l,m} = sqrt2 (-1)^m Re Y_l^m   (m > 0),
    R_{l,-m} = sqrt2 (-1)^m Im Y_l^m  (m > 0),
orthonormal for the round measure sin(theta) dtheta dphi.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import sph_harm_y_all

from .errors import ResolutionTooLow, ShapeMismatch

__all__ = ["SphHarmBasis"]

_DERIV_SLOT = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (2, 0): 3, (1, 1): 4, (0, 2): 5}

# points per sph_harm_y_all call: at degree 16 the build takes as long with
# 4 points per call as with 66, and its transient memory grows with the
# points (about 8 MB more peak RSS at 33 points per call than at 4)
_POINTS_PER_CALL = 8


def _real_tables(L, theta, phi):
    """Stack [K, 6, npts] of R_k and its chart derivatives at given points.

    One sph_harm_y_all call tabulates every (l, m) at a block of
    _POINTS_PER_CALL points, which bounds its complex temporaries; the
    tables are bitwise those of one sph_harm_y call per (l, m).
    """
    npts = theta.size
    out = np.empty(((L + 1) ** 2, 6, npts))
    ell, m = np.array([(d, k) for d in range(L + 1)
                       for k in range(d + 1)]).T
    zero, pos = m == 0, m > 0
    sign = (np.sqrt(2.0) * (-1.0) ** m[pos])[:, None]
    row = ell * ell + ell
    for lo in range(0, npts, _POINTS_PER_CALL):
        hi = min(npts, lo + _POINTS_PER_CALL)
        y, grad, hess = sph_harm_y_all(L, L, theta[lo:hi], phi[lo:hi],
                                       diff_n=2)
        for slot, table in enumerate([y, grad[..., 0], grad[..., 1],
                                      hess[..., 0, 0], hess[..., 0, 1],
                                      hess[..., 1, 1]]):
            vals = table[ell, m]
            out[row[zero], slot, lo:hi] = vals[zero].real
            out[(row + m)[pos], slot, lo:hi] = sign * vals[pos].real
            out[(row - m)[pos], slot, lo:hi] = sign * vals[pos].imag
    return out


class SphHarmBasis:
    """Real spherical harmonics up to degree L with exact chart derivatives."""

    kind = "sphharm"

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

    @property
    def mode_count(self):
        return (self.degree + 1) ** 2

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
        return {"type": "sphharm", "degree": self.degree}

    def __repr__(self):
        return f"SphHarmBasis(degree={self.degree})"
