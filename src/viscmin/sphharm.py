"""Real spherical harmonics on the polar chart (theta, phi) of S^2.

Degree-L truncation on a Gauss-Legendre(2L) x uniform(2L+1) product grid.
The Gauss nodes sit strictly inside (0, pi), so chart quantities stay regular
on every node, and quadrature of band-limited integrands is exact (degree
4L-1 in cos theta, order 2L in phi); the weights are accurate to roundoff
(_gauss_legendre).

Each real harmonic separates into a theta-factor and a phi-factor,
    R_{l,0} = T_l^0(theta),
    R_{l,m} = sqrt2 T_l^m(theta) cos(m phi)    (m > 0),
    R_{l,-m} = sqrt2 T_l^m(theta) sin(m phi)   (m > 0),
orthonormal for the round measure sin(theta) dtheta dphi.  The T_l^m are
the fully normalised associated Legendre functions without the
Condon-Shortley phase, from the standard sectoral and three-term
recurrences (Holmes & Featherstone, J. Geodesy 76, 2002); their theta
derivatives come from the ladder relation between neighbouring orders,
which never divides by sin(theta), and the phi derivatives are factors
(i m)^b.  These are the usual real combinations sqrt2 (-1)^m Re/Im Y_l^m
of the complex harmonics.

On the grid the basis holds no table of the harmonics, only the
theta-factors and their two theta derivatives on the 2L latitude rings,
[3, L+1, 2L, L+1] doubles (5.5 MB at degree 48).  fit takes a real FFT in
phi on each ring and then one Gauss-weighted Legendre sum per order m;
evaluate takes one Legendre sum per order and one inverse real FFT per
ring (the separable transform of Driscoll & Healy, Adv. Appl. Math. 15,
1994): O(L^3) memory and O(L^3) work per field, against 24 L^4 doubles
for a dense table of the six chart slots.  chart_jet gives all six slots
of a field in one call, in the node layout (..., N, 6, Q), from one
Legendre sum per theta order, three in all: the phi-factor (i m)^b is a
factor of each order's sum, so it is applied after the sum.  At
arbitrary points, evaluate_at and real_modes tabulate the one slot they
need per point (_real_tables).  Both routes are exact spectral
derivatives, poles included, and need numpy only.

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

# fields per transform of chart_jet, so that its spectra and rings stay a
# few MB whatever the family
_JET_GROUP = 8


def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights of order n.

    numpy's leggauss nodes are accurate to roundoff, its weights are not
    (a relative error of 1e-12 at 64 nodes).  The weights are recomputed
    at those nodes as w = 2 / ((1 - x^2) P_n'(x)^2), with P_n and P_{n-1}
    from the three-term recurrence and
    P_n' = n (x P_n - P_{n-1}) / (x^2 - 1).
    """
    x, _ = leggauss(n)
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


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


def _chart_order(deriv):
    """(theta order, phi order) of one of the six chart slots.

    Raises ShapeMismatch for any other order: the tables carry derivatives
    up to second order only.
    """
    order = tuple(deriv)
    if order not in _DERIV_SLOT:
        raise ShapeMismatch(
            f"the sphere chart has no derivative of order {order}; it gives "
            f"the orders (a, b) with a + b <= 2")
    return order


def _real_tables(L, theta, phi, derivs=tuple(_DERIV_SLOT)):
    """Stack [K, len(derivs), npts] of R_k's chart derivatives at given points.

    The theta-factors are computed once per distinct theta (2L of them on
    the product grid), only up to the highest theta order asked for, and
    each table entry is one product of a theta-factor with a phi-factor;
    rows run l^2 + l + m.  A slot's entries do not depend on which other
    slots are asked for.
    """
    theta_u, inv = np.unique(theta, return_inverse=True)
    factors = [_theta_factors(L, theta_u)]
    while len(factors) <= max(a for a, _ in derivs):
        factors.append(_theta_derivative(factors[-1]))
    m = np.arange(L + 1)[:, None]
    c = np.sqrt(2.0) * np.cos(m * phi)
    s = np.sqrt(2.0) * np.sin(m * phi)
    c[0], s[0] = 1.0, 0.0

    def phi_factors(b):
        # the phi-factors of the rows m >= 0 (cos) and m < 0 (sin)
        if b == 0:
            return c, s
        if b == 1:
            return -m * s, m * c
        return -m * m * c, -m * m * s

    by_order = {b: phi_factors(b) for _, b in derivs}
    out = np.empty(((L + 1) ** 2, len(derivs), theta.size))
    for ell in range(L + 1):
        t = [f[ell, :ell + 1][:, inv] for f in factors]
        block = out[ell * ell:(ell + 1) ** 2]
        for slot, (a, b) in enumerate(derivs):
            cos_f, sin_f = by_order[b]
            np.multiply(t[a], cos_f[:ell + 1], out=block[ell:, slot])
            np.multiply(t[a][1:], sin_f[1:ell + 1],
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
        x, w_gl = _gauss_legendre(self.n_theta)
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
        # theta-factors and their two theta derivatives on the rings, as
        # [theta order, m, ring, l], with the sqrt2 of the m > 0 rows
        t0 = _theta_factors(L, theta)
        t1 = _theta_derivative(t0)
        stack = np.stack([t0, t1, _theta_derivative(t1)])[:, :, :L + 1]
        self._legendre = np.ascontiguousarray(stack.transpose(0, 2, 3, 1))
        self._legendre[:, 1:] *= np.sqrt(2.0)
        # coefficient row k holds the real (cos) or, negated, the imaginary
        # (sin) part of the order-m spectrum gamma_{l,m} = c_{l,m} - i c_{l,-m}
        ell = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
        m = np.arange(self.mode_count) - ell * ell - ell
        self._spectrum_index = (np.abs(m), ell, (m < 0).astype(int))
        self._spectrum_sign = np.where(m < 0, -1.0, 1.0)[:, None]
        # (i m)^b per phi order b, halved for m > 0: a real inverse FFT
        # counts each of those bins twice
        orders = np.arange(L + 1)
        half = np.where(orders == 0, 1.0, 0.5)
        self._phi_factors = [half * (1j * orders) ** b for b in range(3)]
        self._phi_orders = [(1j * orders) ** b for b in range(3)]

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
        tabulated at the grid nodes as evaluate_at does; orthonormal on the
        round sphere.
        """
        c = min(cutoff, self.degree)
        labels = [f"Y({ell},{m})" for ell in range(c + 1)
                  for m in range(-ell, ell + 1)]
        theta, phi = self.grid_points.T
        return _real_tables(c, theta, phi, [(0, 0)])[:, 0], labels

    # -- transforms ----------------------------------------------------------
    #
    # Each Legendre sum is a two-operand einsum, which accumulates every
    # field column on its own, so a field's values do not depend on how
    # many fields share the call (a stacked matmul does not keep that).

    def _spectra(self, flat):
        """Order spectra [m, l, width] of coefficient rows (K, width):
        gamma_{l,m} = c_{l,m} - i c_{l,-m}, zero where l < m."""
        L = self.degree
        spectra = np.zeros((L + 1, L + 1, flat.shape[1]), dtype=complex)
        m, ell, part = self._spectrum_index
        spectra.view(float).reshape(spectra.shape + (2,))[m, ell, :, part] \
            = self._spectrum_sign * flat
        return spectra

    def _rows(self, spectra):
        """Coefficient rows (K, width) of order spectra, inverse of _spectra."""
        m, ell, part = self._spectrum_index
        pairs = spectra.view(float).reshape(spectra.shape + (2,))
        return self._spectrum_sign * pairs[m, ell, :, part]

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
        L, width = self.degree, flat.shape[1]
        weighted = self._round_weights[:, None] * flat
        rings = np.fft.rfft(weighted.reshape(self.n_theta, self.n_phi, width),
                            axis=1).view(float)
        spectra = np.zeros((L + 1, L + 1, width), dtype=complex)
        sums = spectra.view(float)
        for m in range(L + 1):
            np.einsum("tl,tf->lf", self._legendre[0, m, :, m:], rings[:, m],
                      out=sums[m, m:])
        return self._rows(spectra).reshape((self.mode_count,) + tail)

    def evaluate(self, coeffs, deriv=(0, 0)):
        """A chart derivative of the fields on the grid, (num_nodes, ...)."""
        a, b = _chart_order(deriv)
        coeffs = np.asarray(coeffs, dtype=float)
        tail = coeffs.shape[1:]
        flat = coeffs.reshape(self.mode_count, -1)
        L, width = self.degree, flat.shape[1]
        spectra = self._spectra(flat)
        spectra *= self._phi_factors[b][:, None, None]
        terms = spectra.view(float)
        rings = np.empty((self.n_theta, L + 1, width), dtype=complex)
        sums = rings.view(float)
        for m in range(L + 1):
            np.einsum("tl,lf->tf", self._legendre[a, m, :, m:], terms[m, m:],
                      out=sums[:, m])
        vals = np.fft.irfft(rings, n=self.n_phi, axis=1, norm="forward")
        return vals.reshape((self.num_nodes,) + tail)

    def chart_jet(self, coeffs):
        """Values and chart derivatives of the fields on the grid.

        coeffs : (mode_count, ..., Q).  Returns (..., N, 6, Q), slot s
        holding the chart derivative of order s in _DERIV_SLOT (value,
        theta, phi, theta theta, theta phi, phi phi): the axes between the
        mode axis and the component axis (a family of fields) come first.
        The fields are transformed in groups of _JET_GROUP, each group's
        six slots in one inverse real FFT into the output.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        batch, Q = coeffs.shape[1:-1], coeffs.shape[-1]
        flat = coeffs.reshape(self.mode_count, -1, Q)
        L, B = self.degree, flat.shape[1]
        out = np.empty((B, self.n_theta, self.n_phi, 6, Q))
        for lo in range(0, B, _JET_GROUP):
            hi = min(B, lo + _JET_GROUP)
            width = (hi - lo) * Q
            spectra = self._spectra(flat[:, lo:hi].reshape(-1, width))
            spectra *= self._phi_factors[0][:, None, None]
            terms = spectra.view(float)
            # one Legendre sum per theta order a, rings[a] (ring, m, field)
            rings = np.empty((3, self.n_theta, L + 1, width), dtype=complex)
            sums = rings.view(float)
            for a in range(3):
                for m in range(L + 1):
                    np.einsum("tl,lf->tf", self._legendre[a, m, :, m:],
                              terms[m, m:], out=sums[a, :, m])
            # the phi-factor of each slot, then the slots' rings as
            # (field, ring, m, slot, component)
            spec = np.empty((hi - lo, self.n_theta, L + 1, 6, Q),
                            dtype=complex)
            for (a, b), slot in _DERIV_SLOT.items():
                np.multiply(
                    rings[a].reshape(self.n_theta, L + 1, hi - lo, Q),
                    self._phi_orders[b][:, None, None],
                    out=np.moveaxis(spec[..., slot, :], 0, 2))
            np.fft.irfft(spec, n=self.n_phi, axis=2, norm="forward",
                         out=out[lo:hi])
        return out.reshape(batch + (self.num_nodes, 6, Q))

    def evaluate_at(self, coeffs, points, deriv=(0, 0)):
        """A chart derivative of the fields at arbitrary chart points, from
        the per-point table of that one slot."""
        deriv = _chart_order(deriv)
        coeffs = np.asarray(coeffs, dtype=float)
        points = np.asarray(points, dtype=float)
        tail = coeffs.shape[1:]
        table = _real_tables(self.degree, points[:, 0], points[:, 1],
                             [deriv])[:, 0]
        flat = coeffs.reshape(self.mode_count, -1)
        vals = table.T @ flat
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
