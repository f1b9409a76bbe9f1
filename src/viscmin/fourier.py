"""Band-limited Fourier fields on the square torus chart [0, 2pi)^2.

The basis owns its collocation grid (n x n, uniform), the band limit
|m|, |n| <= (n-1)//2 (Nyquist bins are dropped so every retained mode has an
exact conjugate partner and real fields stay real bit-for-bit), exact
trapezoidal quadrature, and spectral derivatives of any order. Coefficients
are stored as the full complex FFT array with masked-out bins kept at zero;
a canonical packed real vector serves serialization, and the same mode
order gives the real scalar modes of the variation bases (real_modes).

The basis is the genus-1 chart, and it answers every chart question itself:
genus, resolution (the grid size n that the constructor and resample take),
of_degree(d) (the chart of band d, n = 2d + 1), and its checkpoint entry
(to_dict and its inverse from_dict).  No other module tests the basis type.

chart_jet synthesizes real fields with their five chart derivatives in one
call, from the half spectrum: the coefficients of a real field are
Hermitian, so each of the six slots is one complex inverse FFT over the
second chart axis and one real inverse FFT over the first, written straight
into the node layout (..., N, 6, Q).  A family is transformed in fixed
groups of _JET_GROUP fields, and every FFT line on its own, so a field's
jet has the same bits alone and in any stack.
"""

import numpy as np

from .errors import ResolutionTooLow, ShapeMismatch

__all__ = ["FourierBasis"]

# the six chart slots of a jet, (u order, v order) in the order of
# energy.node_coordinates: value, u, v, uu, uv, vv
_JET_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

# fields per real transform of chart_jet: one group's spectra and
# transforms stay small (a few hundred KB at n = 16), whatever the family
_JET_GROUP = 8


class FourierBasis:
    """Real trigonometric polynomials of two angles, degree <= (n-1)//2."""

    kind = "fourier"
    genus = 1

    def __init__(self, n):
        n = int(n)
        if n < 5:
            raise ResolutionTooLow("torus grid needs n >= 5")
        self.n = n
        self.degree = (n - 1) // 2
        freqs = np.fft.fftfreq(n, d=1.0 / n).astype(int)
        self.freqs = freqs
        self.mode_mask = (np.abs(freqs)[:, None] <= self.degree) & \
                         (np.abs(freqs)[None, :] <= self.degree)
        u = 2.0 * np.pi * np.arange(n) / n
        uu, vv = np.meshgrid(u, u, indexing="ij")
        self.grid_points = np.column_stack([uu.ravel(), vv.ravel()])
        self.num_nodes = n * n
        self.cell_weight = (2.0 * np.pi / n) ** 2
        self.chart_weights = np.full(self.num_nodes, self.cell_weight)
        self._modes = self._canonical_modes()
        # grid bins of the modes after (0, 0) and of their conjugates
        m, nn = self._modes[1:].T
        self._bins = (m % n, nn % n)
        self._conj_bins = ((-m) % n, (-nn) % n)

    def _canonical_modes(self):
        """Deterministic mode order for the packed real vector, as rows
        (m, n): (0, 0), then the half-space n > 0 of m = 0, then every n
        for each m > 0."""
        M = self.degree
        modes = [(0, 0)]
        modes += [(0, nn) for nn in range(1, M + 1)]
        for m in range(1, M + 1):
            modes += [(m, nn) for nn in range(-M, M + 1)]
        return np.array(modes)

    @classmethod
    def of_degree(cls, degree):
        """The torus chart whose band is |m|, |n| <= degree."""
        return cls(2 * degree + 1)

    @property
    def resolution(self):
        """The grid size n that the constructor and resample take."""
        return self.n

    @property
    def mode_count(self):
        """Real degrees of freedom per scalar component."""
        return (2 * self.degree + 1) ** 2

    def real_modes(self, cutoff):
        """Real scalar modes with |m|, |n| <= cutoff on the grid, with labels.

        Returns (samples (K, N), labels): 1, then cos and sin of
        m u + n v for each canonical mode in turn; L2-orthogonal on the
        flat torus.
        """
        modes = self._modes[1:]
        m, nn = modes[np.max(np.abs(modes), axis=1) <= cutoff].T
        phase = (m[:, None] * self.grid_points[:, 0]
                 + nn[:, None] * self.grid_points[:, 1])
        samples = np.empty((2 * len(m) + 1, self.num_nodes))
        samples[0] = 1.0
        samples[1::2] = np.cos(phase)
        samples[2::2] = np.sin(phase)
        labels = ["const"] + [f"{f}({a},{b})" for a, b in zip(m, nn)
                              for f in ("cos", "sin")]
        return samples, labels

    # -- transforms ----------------------------------------------------------

    def _as_grid(self, samples):
        samples = np.asarray(samples)
        if samples.shape[0] != self.num_nodes:
            raise ShapeMismatch(
                f"expected {self.num_nodes} samples, got {samples.shape[0]}")
        flat = samples.reshape(self.n, self.n, -1)
        return flat, samples.shape[1:]

    def fit(self, samples):
        """Least-squares (here: exact collocation) fit of grid samples.

        samples : (num_nodes, ...) real or complex
        returns complex coefficients shaped (n, n, ...) with masked bins zero.
        """
        grid, tail = self._as_grid(samples)
        coeffs = np.fft.fft2(grid, axes=(0, 1)) / self.num_nodes
        coeffs[~self.mode_mask] = 0.0
        return coeffs.reshape((self.n, self.n) + tail)

    def evaluate(self, coeffs, deriv=(0, 0)):
        """Evaluate (a derivative of) the field on the collocation grid.

        Always returns complex values; real fields have (numerically) zero
        imaginary part, take .real at the call site.
        """
        coeffs = np.asarray(coeffs)
        tail = coeffs.shape[2:]
        work = coeffs.reshape(self.n, self.n, -1)
        a, b = deriv
        if a or b:
            fm = (1j * self.freqs)[:, None, None]
            fn = (1j * self.freqs)[None, :, None]
            work = work * fm ** a * fn ** b
        vals = np.fft.ifft2(work * self.num_nodes, axes=(0, 1))
        return vals.reshape((self.num_nodes,) + tail)

    def chart_jet(self, coeffs):
        """Values and chart derivatives of real fields on the grid.

        coeffs : (n, n, ..., Q) Hermitian coefficients, as fit gives for
        real samples.  Returns (..., N, 6, Q) floats, slot s holding the
        derivative _JET_ORDERS[s]: the axes between the basis axes and the
        component axis (a family of fields) come first.  Only the half
        spectrum 0 <= m <= n // 2 of the first chart axis is read.
        """
        coeffs = np.asarray(coeffs)
        n, h = self.n, self.n // 2 + 1
        batch, Q = coeffs.shape[2:-1], coeffs.shape[-1]
        half = np.moveaxis(coeffs.reshape(n, n, -1, Q)[:h], 2, 0)
        B = len(half)
        fm = (1j * self.freqs[:h])[:, None, None]
        fn = (1j * self.freqs)[None, :, None]
        factors = [fm ** a * fn ** b for a, b in _JET_ORDERS[1:]]
        out = np.empty((B, n, n, 6, Q))
        spec = np.empty((min(B, _JET_GROUP), h, n, 6, Q), dtype=complex)
        for lo in range(0, B, _JET_GROUP):
            hi = min(B, lo + _JET_GROUP)
            group = spec[:hi - lo]
            group[..., 0, :] = half[lo:hi]
            for slot, f in enumerate(factors, 1):
                np.multiply(half[lo:hi], f, out=group[..., slot, :])
            # the two steps of an inverse irfft2, the complex one over the
            # second chart axis, so that the real one writes the output
            np.fft.ifft(group, axis=2, norm="forward", out=group)
            np.fft.irfft(group, n=n, axis=1, norm="forward", out=out[lo:hi])
        return out.reshape(batch + (self.num_nodes, 6, Q))

    def evaluate_at(self, coeffs, points, deriv=(0, 0)):
        """Evaluate at arbitrary chart points by direct trigonometric sums.

        Complex output, same convention as evaluate().
        """
        coeffs = np.asarray(coeffs)
        points = np.asarray(points, dtype=float)
        tail = coeffs.shape[2:]
        kept = self.mode_mask
        mm, nn = np.meshgrid(self.freqs, self.freqs, indexing="ij")
        ms, ns = mm[kept], nn[kept]
        ck = coeffs.reshape(self.n, self.n, -1)[kept]          # (K, comp)
        a, b = deriv
        if a or b:
            ck = ck * ((1j * ms) ** a * (1j * ns) ** b)[:, None]
        phase = np.exp(1j * (points[:, :1] * ms[None, :]
                             + points[:, 1:2] * ns[None, :]))  # (p, K)
        vals = phase @ ck
        return vals.reshape((len(points),) + tail)

    # -- packed real coefficients -------------------------------------------

    def pack_real(self, coeffs):
        """Canonical real coefficient vector(s), shape (mode_count, ...)."""
        coeffs = np.asarray(coeffs)
        tail = coeffs.shape[2:]
        c = coeffs.reshape(self.n, self.n, -1)
        out = np.empty((self.mode_count,) + c.shape[2:])
        out[0] = c[0, 0].real
        cm = c[self._bins]
        out[1::2] = 2.0 * cm.real
        out[2::2] = -2.0 * cm.imag
        return out.reshape((self.mode_count,) + tail)

    def unpack_real(self, vec):
        """Inverse of pack_real (exact round trip)."""
        vec = np.asarray(vec, dtype=float)
        tail = vec.shape[1:]
        v = vec.reshape(self.mode_count, -1)
        c = np.zeros((self.n, self.n, v.shape[1]), dtype=complex)
        c[0, 0] = v[0]
        half = 0.5 * (v[1::2] - 1j * v[2::2])
        c[self._bins] = half
        c[self._conj_bins] = np.conj(half)
        return c.reshape((self.n, self.n) + tail)

    # -- misc ---------------------------------------------------------------

    def resample(self, n2):
        return FourierBasis(n2)

    def transfer(self, coeffs, target):
        """Zero-pad / truncate coefficients onto another Fourier basis."""
        if not isinstance(target, FourierBasis):
            raise ShapeMismatch("can only transfer between torus bases")
        coeffs = np.asarray(coeffs)
        tail = coeffs.shape[2:]
        src = coeffs.reshape(self.n, self.n, -1)
        dst = np.zeros((target.n, target.n, src.shape[2]), dtype=complex)
        M = min(self.degree, target.degree)
        cols = np.arange(-M, M + 1)
        for m in range(-M, M + 1):
            dst[m % target.n, cols % target.n] = src[m % self.n, cols % self.n]
        return dst.reshape((target.n, target.n) + tail)

    def to_dict(self):
        return {"type": self.kind, "modes": self.n}

    @classmethod
    def from_dict(cls, d):
        return cls(d["modes"])

    def __repr__(self):
        return f"FourierBasis(n={self.n}, degree={self.degree})"
