"""Spectrally sampled immersed surfaces and their pointwise geometry.

A SampledImmersion is a band-limited map from a torus or sphere chart into
the ambient manifold, stored by its spectral coefficients. All geometric
quantities (metric, normal projector, second fundamental form, curvatures)
are computed per collocation node by one shared pipeline. The pipeline is
written against the small arithmetic protocol of jets.Jet2, so the exact
same code produces plain values (arrays in) and first/second variations
along a family (jets in).  Its jets serve the second variations along
whole fields (energy.second_variation_ambient and batched_quadratic, the
Newton diagonal), which are the oracle of the hessian kernels; those
kernels take their jets in Gram coordinates instead (energy._node_kernels).
"""

import operator

import numpy as np

from .ambient import AmbientManifold, Euclidean, UnitSphere, ambient_from_dict
from .errors import (DegenerateMetric, NoConvergence, OffManifold,
                     ResolutionTooLow, ShapeMismatch, UnknownPreset)
from .fourier import FourierBasis
from .jets import Jet2, jet_sqrt, jet_sum
from .sphharm import SphHarmBasis

__all__ = [
    "SurfaceTopology", "SampledImmersion", "Variation", "GeometryData",
    "vdot", "pointwise_geometry", "make_preset",
    "preset_names", "normal_frame", "project_normal_bundle",
    "tangential_field", "tangent_project", "random_variation",
    "gauss_bonnet_defect", "brioschi_curvature",
]

ON_MANIFOLD_TOL = 5e-9
DET_FLOOR = 1e-8


def vdot(x, y):
    """Last-axis dot product; works for plain arrays and jets."""
    return jet_sum(x * y, axis=-1)


def _ex(s):
    """Append a length-1 axis (scalar-field -> vector-field broadcasting)."""
    return s[..., None]


class SurfaceTopology:
    """Genus of the chart plus the marked points that pin reparametrizations.

    Genus 1 uses one marked point (translations of the flat torus), genus 0
    uses three (Moebius group of the round sphere).
    """

    def __init__(self, genus, marked_points=None):
        if genus not in (0, 1):
            raise ShapeMismatch("only genus 0 and 1 charts are supported")
        self.genus = genus
        if marked_points is None:
            if genus == 1:
                marked_points = [(0.0, 0.0)]
            else:
                marked_points = [(np.pi / 2, 0.0), (np.pi / 2, np.pi / 2),
                                 (np.pi / 2, np.pi)]
        marked_points = np.asarray(marked_points, dtype=float)
        need = 1 if genus == 1 else 3
        if marked_points.shape != (need, 2):
            raise ShapeMismatch(
                f"genus {genus} needs {need} marked points, got "
                f"{marked_points.shape}")
        if need > 1:
            for i in range(need):
                for j in range(i + 1, need):
                    if np.allclose(marked_points[i], marked_points[j]):
                        raise ShapeMismatch("marked points must be distinct")
        self.marked_points = marked_points

    @property
    def euler_char(self):
        return 2 - 2 * self.genus

    def to_dict(self):
        return {"genus": self.genus,
                "marked_points": self.marked_points.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(d["genus"], d["marked_points"])

    def __eq__(self, other):
        return (isinstance(other, SurfaceTopology)
                and self.genus == other.genus
                and np.array_equal(self.marked_points, other.marked_points))

    def __repr__(self):
        return f"SurfaceTopology(genus={self.genus})"


# ---------------------------------------------------------------------------
# pointwise geometry pipeline (arrays or jets)
# ---------------------------------------------------------------------------

def pointwise_geometry(P, Pd, Pdd, ambient):
    """Second-order pointwise geometry of an immersion.

    Parameters
    ----------
    P : (..., N, Q) array or Jet2
        Positions (ambient coordinates per node).
    Pd : (..., N, 2, Q)
        Chart first derivatives.
    Pdd : (..., N, 2, 2, Q)
        Chart second derivatives (symmetric in the two chart slots).
    ambient : AmbientManifold
        Supplies the frame size (2 Euclidean / 3 sphere: the position vector
        joins the frame so the normal projector kills the ambient radial
        direction too).

    Returns a dict of per-node quantities with the same leading shape.
    Everything is built from +,-,*,/ and sqrt only, so jets propagate
    exact first and second derivatives along a family.
    """
    P1 = Pd[..., 0, :]
    P2 = Pd[..., 1, :]
    g11 = vdot(P1, P1)
    g12 = vdot(P1, P2)
    g22 = vdot(P2, P2)
    det = g11 * g22 - g12 * g12
    inv_det = 1.0 / det if not isinstance(det, Jet2) else det.reciprocal()
    i11 = g22 * inv_det
    i12 = -1.0 * g12 * inv_det
    i22 = g11 * inv_det
    ginv = ((i11, i12), (i12, i22))

    if ambient.frame_size == 3:
        frame = (P1, P2, P)
        s1 = vdot(P1, P)
        s2 = vdot(P2, P)
        s0 = vdot(P, P)
        c00 = g22 * s0 - s2 * s2
        c01 = s2 * s1 - g12 * s0
        c02 = g12 * s2 - g22 * s1
        c11 = g11 * s0 - s1 * s1
        c12 = g12 * s1 - g11 * s2
        c22 = g11 * g22 - g12 * g12
        det3 = g11 * c00 + g12 * c01 + s1 * c02
        inv3 = 1.0 / det3 if not isinstance(det3, Jet2) else det3.reciprocal()
        t01, t02, t12 = c01 * inv3, c02 * inv3, c12 * inv3
        gram_inv = ((c00 * inv3, t01, t02),
                    (t01, c11 * inv3, t12),
                    (t02, t12, c22 * inv3))
    else:
        frame = (P1, P2)
        gram_inv = ((i11, i12), (i12, i22))

    k = len(frame)

    def project_normal(X):
        """Orthogonal projection onto the normal bundle of the frame."""
        dots = [vdot(f, X) for f in frame]
        out = X
        for a in range(k):
            coeff = 0.0
            for b in range(k):
                coeff = coeff + gram_inv[a][b] * dots[b]
            out = out - _ex(coeff) * frame[a]
        return out

    II = [[project_normal(Pdd[..., 0, 0, :]), project_normal(Pdd[..., 0, 1, :])],
          [None, project_normal(Pdd[..., 1, 1, :])]]
    II[1][0] = II[0][1]

    # |II|^2 = sum over (i, j, r, s) of g^ir g^js (II_ij . II_rs); the
    # symmetric slots share objects, so 9 distinct products of each kind
    # serve the 16 terms, summed in the same order
    slots = [(i, j, r, s) for i in range(2) for j in range(2)
             for r in range(2) for s in range(2)]
    weights = _each_product_once(
        [(ginv[i][r], ginv[j][s]) for i, j, r, s in slots],
        operator.mul)
    dots = _each_product_once(
        [(II[i][j], II[r][s]) for i, j, r, s in slots], vdot)
    II2 = 0.0
    for weight, dot in zip(weights, dots):
        II2 = II2 + weight * dot

    return {
        "g": (g11, g12, g22),
        "det": det,
        "sqrt_det": jet_sqrt(det),
        "ginv": (i11, i12, i22),
        "frame": frame,
        "gram_inv": gram_inv,
        "project_normal": project_normal,
        "II": II,
        "II2": II2,
    }


def _each_product_once(pairs, product):
    """Yield product(x, y) for each (x, y) of pairs in order, forming the
    product of the same two objects (in the same order) only once and
    dropping it after its last use."""
    last = {(id(x), id(y)): n for n, (x, y) in enumerate(pairs)}
    memo = {}
    for n, (x, y) in enumerate(pairs):
        key = (id(x), id(y))
        if key not in memo:
            memo[key] = product(x, y)
        yield memo.pop(key) if last[key] == n else memo[key]


class GeometryData:
    """Plain-value geometry of an immersion on its collocation grid."""

    def __init__(self, immersion):
        im = immersion
        self.immersion = im
        self.ambient = im.ambient
        self.points = im.basis.grid_points
        self.chart_weights = im.basis.chart_weights
        P, Pd, Pdd = im.derivatives()
        self.P, self.Pd, self.Pdd = P, Pd, Pdd
        pw = pointwise_geometry(P, Pd, Pdd, im.ambient)
        g11, g12, g22 = pw["g"]
        self.g = np.stack([np.stack([g11, g12], -1),
                           np.stack([g12, g22], -1)], -2)
        self.det_g = pw["det"]
        if np.min(self.det_g) < DET_FLOOR:
            raise DegenerateMetric(
                f"min det g = {np.min(self.det_g):.3e} below {DET_FLOOR:.0e}")
        self.sqrt_det = pw["sqrt_det"]
        i11, i12, i22 = pw["ginv"]
        self.ginv = np.stack([np.stack([i11, i12], -1),
                              np.stack([i12, i22], -1)], -2)
        self.dvol = self.sqrt_det * self.chart_weights
        II = pw["II"]
        self.II = np.stack([np.stack([II[0][0], II[0][1]], -2),
                            np.stack([II[0][1], II[1][1]], -2)], -3)
        self.II_norm2 = pw["II2"]
        self.trace_II = (_ex(i11) * II[0][0] + 2.0 * _ex(i12) * II[0][1]
                         + _ex(i22) * II[1][1])
        self.mean_curvature = 0.5 * self.trace_II
        # Gauss equation: ambient sectional curvature + II combination
        self.gauss_curvature = im.ambient.curvature_constant + (
            np.sum(II[0][0] * II[1][1], axis=-1)
            - np.sum(II[0][1] * II[0][1], axis=-1)) / self.det_g
        # conformal bookkeeping (gauge module needs these on flat charts)
        self.conformal_factor = 0.25 * (g11 + g22)  # dzPhi . dzbarPhi
        self.conformal_defect = float(np.max(
            np.maximum(np.abs(g11 - g22), 2.0 * np.abs(g12)) / (g11 + g22)))
        self._project_normal = pw["project_normal"]

    # -- projections ----------------------------------------------------------

    def project_normal(self, X):
        """Pointwise orthogonal projection onto the normal bundle."""
        return self._project_normal(np.asarray(X, dtype=float))

    def project_tangent(self, X):
        return np.asarray(X, dtype=float) - self.project_normal(X)

    # -- integrals -------------------------------------------------------------

    def integrate(self, density):
        """Integrate a per-node density against the volume form."""
        return float(np.sum(np.asarray(density) * self.dvol))

    @property
    def area(self):
        return float(np.sum(self.dvol))


def gauss_bonnet_defect(geometry, topology):
    """Integral of K dvol minus 2 pi chi; vanishes for exact geometry."""
    total = geometry.integrate(geometry.gauss_curvature)
    return total - 2.0 * np.pi * topology.euler_char


def brioschi_curvature(immersion):
    """Gauss curvature from the metric alone (Brioschi), torus charts only.

    Independent cross-check of the Gauss-equation route: uses only spectral
    derivatives of the first fundamental form.
    """
    im = immersion
    if not isinstance(im.basis, FourierBasis):
        raise ShapeMismatch("Brioschi route needs a periodic chart")
    geom = im.geometry
    basis = im.basis
    E = geom.g[:, 0, 0]
    F = geom.g[:, 0, 1]
    G = geom.g[:, 1, 1]
    cE, cF, cG = basis.fit(E), basis.fit(F), basis.fit(G)

    def d(c, a, b):
        return basis.evaluate(c, (a, b)).real

    Eu, Ev, Evv = d(cE, 1, 0), d(cE, 0, 1), d(cE, 0, 2)
    Fu, Fv, Fuv = d(cF, 1, 0), d(cF, 0, 1), d(cF, 1, 1)
    Gu, Gv, Guu = d(cG, 1, 0), d(cG, 0, 1), d(cG, 2, 0)
    m = np.stack([
        np.stack([-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev], -1),
        np.stack([Fv - 0.5 * Gu, E, F], -1),
        np.stack([0.5 * Gv, F, G], -1)], -2)
    p = np.stack([
        np.stack([np.zeros_like(E), 0.5 * Ev, 0.5 * Gu], -1),
        np.stack([0.5 * Ev, E, F], -1),
        np.stack([0.5 * Gu, F, G], -1)], -2)
    det_g = E * G - F * F
    return (np.linalg.det(m) - np.linalg.det(p)) / det_g ** 2


# ---------------------------------------------------------------------------
# immersions
# ---------------------------------------------------------------------------

class SampledImmersion:
    """Band-limited immersion of a torus or sphere chart into the ambient."""

    def __init__(self, ambient, topology, basis, coeffs, validate=True):
        if topology.genus == 1 and not isinstance(basis, FourierBasis):
            raise ShapeMismatch("genus 1 needs the torus basis")
        if topology.genus == 0 and not isinstance(basis, SphHarmBasis):
            raise ShapeMismatch("genus 0 needs the sphere basis")
        self.ambient = ambient
        self.topology = topology
        self.basis = basis
        # canonicalize: fitted coefficients carry conjugate-symmetry dust
        # at the last bit; storing the packed-real representative makes
        # every checkpoint round-trip bit-exact
        self.coeffs = basis.unpack_real(basis.pack_real(coeffs))
        self._cache = {}
        if validate:
            samples = self.samples()
            off = np.max(np.linalg.norm(
                samples - ambient.project_point(samples), axis=-1)) \
                if ambient.kind == "sphere" else 0.0
            if off > ON_MANIFOLD_TOL:
                raise OffManifold(
                    f"immersion leaves the ambient by {off:.2e} "
                    f"(tolerance {ON_MANIFOLD_TOL:.0e})")
            _ = self.geometry  # raises DegenerateMetric if g is singular

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_samples(cls, ambient, topology, basis, samples, max_sweeps=12):
        """Fit grid samples, alternating projection onto the ambient with
        band-limited refits until the synthesized field lies on the ambient.

        One project+fit sweep leaves an off-manifold tail of cubic order in
        the sample amplitude; iterating to a fixed point restores the
        on-manifold invariant at spectral accuracy.
        """
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (basis.num_nodes, ambient.dim):
            raise ShapeMismatch(
                f"samples must be ({basis.num_nodes}, {ambient.dim})")
        current = ambient.project_point(samples)
        coeffs = basis.fit(current)
        if ambient.kind == "sphere":
            for _ in range(max_sweeps):
                synth = _real(basis.evaluate(coeffs))
                off = np.max(np.abs(np.linalg.norm(synth, axis=-1) - 1.0))
                if off <= ON_MANIFOLD_TOL / 10.0:
                    break
                coeffs = basis.fit(ambient.project_point(synth))
            else:
                synth = _real(basis.evaluate(coeffs))
                off = np.max(np.abs(np.linalg.norm(synth, axis=-1) - 1.0))
                if off > ON_MANIFOLD_TOL:
                    raise NoConvergence(
                        f"projection sweeps stalled at off-manifold {off:.2e}")
        return cls(ambient, topology, basis, coeffs)

    # -- sampled values ----------------------------------------------------------

    def samples(self):
        if "P" not in self._cache:
            self._cache["P"] = _real(self.basis.evaluate(self.coeffs))
        return self._cache["P"]

    def derivatives(self):
        """(P, Pd, Pdd) on the grid: positions, chart 1st and 2nd derivatives."""
        if "d" not in self._cache:
            self._cache["d"] = _chart_derivatives(self.basis, self.coeffs)
        return (self.samples(), *self._cache["d"])

    @property
    def geometry(self):
        if "geom" not in self._cache:
            self._cache["geom"] = GeometryData(self)
        return self._cache["geom"]

    @property
    def resolution(self):
        return self.basis.n if isinstance(self.basis, FourierBasis) \
            else self.basis.degree

    def resample(self, resolution):
        """Same surface on a finer or coarser grid.

        Refining is exact (band-limited transfer); coarsening re-fits the
        surface sampled at the coarse nodes and re-projects.
        """
        target = self.basis.resample(resolution)
        if target.mode_count >= self.basis.mode_count:
            coeffs = self.basis.transfer(self.coeffs, target)
            return SampledImmersion(self.ambient, self.topology, target, coeffs)
        vals = _real(self.basis.evaluate_at(self.coeffs, target.grid_points))
        return SampledImmersion.from_samples(
            self.ambient, self.topology, target, vals)

    # -- serialization -------------------------------------------------------------

    def to_dict(self):
        packed = self.basis.pack_real(self.coeffs)
        return {
            "ambient": self.ambient.to_dict(),
            "topology": self.topology.to_dict(),
            "basis": self.basis.to_dict(),
            "coeffs": packed.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        ambient = ambient_from_dict(d["ambient"])
        topology = SurfaceTopology.from_dict(d["topology"])
        bd = d["basis"]
        basis = FourierBasis(bd["modes"]) if bd["type"] == "fourier" \
            else SphHarmBasis(bd["degree"])
        coeffs = basis.unpack_real(np.asarray(d["coeffs"], dtype=float))
        return cls(ambient, topology, basis, coeffs)

    def __repr__(self):
        return (f"SampledImmersion(genus={self.topology.genus}, "
                f"ambient={self.ambient!r}, res={self.resolution})")


def _real(x):
    return x.real if np.iscomplexobj(x) else x


def _chart_derivatives(basis, coeffs):
    """Chart first and second derivatives (d, dd) of the field synthesized
    from coeffs, shaped (N, 2, Q) and (N, 2, 2, Q).  Axes of coeffs between
    the basis axes and the component axis (a family of fields) come first
    in both.  Each derivative is written into its slot as soon as it is
    synthesized, so one synthesis at a time is in flight."""
    def synthesize(deriv):
        return np.moveaxis(_real(basis.evaluate(coeffs, deriv)), 0, -2)

    du = synthesize((1, 0))
    d = np.empty(du.shape[:-1] + (2,) + du.shape[-1:])
    dd = np.empty(du.shape[:-1] + (2, 2) + du.shape[-1:])
    d[..., 0, :] = du
    del du
    d[..., 1, :] = synthesize((0, 1))
    dd[..., 0, 0, :] = synthesize((2, 0))
    dd[..., 0, 1, :] = synthesize((1, 1))
    dd[..., 1, 0, :] = dd[..., 0, 1, :]
    dd[..., 1, 1, :] = synthesize((0, 2))
    return d, dd


def _family_derivatives(basis, coeffs):
    """(W, Wd, Wdd) of a family of fields, shaped (B, N, Q), (B, N, 2, Q)
    and (B, N, 2, 2, Q), from their coefficients stacked on the axis before
    the component axis: one synthesis for the whole family."""
    W = np.ascontiguousarray(
        np.moveaxis(_real(basis.evaluate(coeffs)), 0, -2))
    return (W, *_chart_derivatives(basis, coeffs))


# ---------------------------------------------------------------------------
# variations
# ---------------------------------------------------------------------------

class Variation:
    """A band-limited ambient vector field along an immersion.

    Stored by spectral coefficients in the immersion's own basis; values and
    chart derivatives are synthesized on demand. Constructing from samples
    fits them first, so the canonical representative is always band-limited.
    """

    def __init__(self, immersion, coeffs=None, samples=None):
        if (coeffs is None) == (samples is None):
            raise ShapeMismatch("pass exactly one of coeffs / samples")
        self.immersion = immersion
        if coeffs is None:
            samples = np.asarray(samples, dtype=float)
            if samples.shape != (immersion.basis.num_nodes,
                                 immersion.ambient.dim):
                raise ShapeMismatch("variation samples have the wrong shape")
            coeffs = immersion.basis.fit(samples)
        self.coeffs = coeffs
        self._cache = {}

    @property
    def values(self):
        if "W" not in self._cache:
            self._cache["W"] = _real(
                self.immersion.basis.evaluate(self.coeffs))
        return self._cache["W"]

    def derivatives(self):
        """(W, Wd, Wdd) on the grid: values, chart 1st and 2nd derivatives."""
        if "d" not in self._cache:
            self._cache["d"] = _chart_derivatives(self.immersion.basis,
                                                  self.coeffs)
        return (self.values, *self._cache["d"])

    def tangency_defect(self):
        """sup |Phi . w| (sphere ambient); 0 in Euclidean ambient."""
        if self.immersion.ambient.kind != "sphere":
            return 0.0
        return float(np.max(np.abs(np.sum(
            self.immersion.samples() * self.values, axis=-1))))

    def sup_norm(self):
        return float(np.max(np.linalg.norm(self.values, axis=-1)))

    def __add__(self, other):
        return Variation(self.immersion, coeffs=self.coeffs + other.coeffs)

    def __sub__(self, other):
        return Variation(self.immersion, coeffs=self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return Variation(self.immersion, coeffs=self.coeffs * float(scalar))

    __rmul__ = __mul__


def project_normal_bundle(immersion, samples):
    """Normal-bundle part of an ambient field, as a band-limited Variation."""
    geom = immersion.geometry
    return Variation(immersion, samples=geom.project_normal(samples))


def tangential_field(immersion, X):
    """Variation induced by a chart vector field: w = X^1 P_1 + X^2 P_2."""
    X = np.asarray(X, dtype=float)
    _, Pd, _ = immersion.derivatives()
    w = X[..., 0:1] * Pd[..., 0, :] + X[..., 1:2] * Pd[..., 1, :]
    return Variation(immersion, samples=w)


def tangent_project(immersion, samples, tol=5e-9, max_sweeps=80):
    """Band-limited field tangent to the ambient sphere, near the samples.

    Tangency (pointwise) and band limitation are both linear constraints, so
    alternating projection converges onto their intersection; the residual
    angle between the subspaces leaves a plateau around 1e-9, well below
    the 1e-8 tangency gate of the constrained hessian.
    """
    if immersion.ambient.kind != "sphere":
        return Variation(immersion, samples=samples)
    P = immersion.samples()
    basis = immersion.basis
    w = np.asarray(samples, dtype=float)
    for _ in range(max_sweeps):
        w = w - np.sum(P * w, axis=-1, keepdims=True) * P
        w = _real(basis.evaluate(basis.fit(w)))
        defect = np.max(np.abs(np.sum(P * w, axis=-1)))
        if defect <= tol:
            break
    else:
        raise NoConvergence(
            f"tangent projection stalled at defect {defect:.2e}")
    return Variation(immersion, samples=w)


def random_variation(immersion, seed, amplitude=1.0, band=None, tangent=False):
    """Seeded band-limited variation, optionally projected tangent to the
    ambient sphere (alternating projection, see tangent_project)."""
    basis = immersion.basis
    top = basis.mmax if isinstance(basis, FourierBasis) else basis.degree
    w = _seeded_samples(basis, seed, top if band is None else min(band, top),
                        immersion.ambient.dim)
    w *= amplitude / max(1e-300, np.max(np.linalg.norm(w, axis=-1)))
    if tangent and immersion.ambient.kind == "sphere":
        return tangent_project(immersion, w)
    return Variation(immersion, samples=w)


# ---------------------------------------------------------------------------
# normal frames
# ---------------------------------------------------------------------------

def _cross4(a, b, c):
    """Generalized cross product in R^4: the vector orthogonal to a, b, c
    with components from the Levi-Civita expansion (orientation-coherent)."""
    m = np.stack([a, b, c], axis=-2)  # (N, 3, 4)
    out = np.empty(a.shape[:-1] + (4,))
    sign = 1.0
    for alpha in range(4):
        keep = [j for j in range(4) if j != alpha]
        out[..., alpha] = sign * np.linalg.det(m[..., keep])
        sign = -sign
    return out


def normal_frame(immersion):
    """Orthonormal frames of the normal bundle, one (N, Q) array per field.

    Codimension 1 (sphere ambient in R^4, Euclidean R^3): a single field from
    the generalized cross product, smooth and deterministic. Euclidean R^4
    (codimension 2): first field is the normalized normal part of the
    position vector, second completes via the cross product; presets keep
    the first seed bounded away from zero.
    """
    geom = immersion.geometry
    P, Pd, _ = immersion.derivatives()
    P1, P2 = Pd[..., 0, :], Pd[..., 1, :]
    amb = immersion.ambient
    if amb.kind == "sphere" and amb.dim == 4:
        nu = _cross4(P1, P2, P)
        return [nu / np.linalg.norm(nu, axis=-1, keepdims=True)]
    if amb.kind == "euclidean" and amb.dim == 3:
        nu = np.cross(P1, P2)
        return [nu / np.linalg.norm(nu, axis=-1, keepdims=True)]
    if amb.kind == "euclidean" and amb.dim == 4:
        nu1 = geom.project_normal(P)
        norms = np.linalg.norm(nu1, axis=-1)
        if np.min(norms) < 0.1:
            raise DegenerateMetric(
                "position vector nearly tangent somewhere; no canonical "
                "normal frame for this surface")
        nu1 = nu1 / norms[..., None]
        nu2 = _cross4(P1, P2, nu1)
        nu2 = nu2 / np.linalg.norm(nu2, axis=-1, keepdims=True)
        return [nu1, nu2]
    raise ShapeMismatch(
        f"no normal frame recipe for {amb.kind} ambient of dim {amb.dim}")


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _sphere_chart_samples(basis, radius=1.0):
    th = basis.grid_points[:, 0]
    ph = basis.grid_points[:, 1]
    return radius * np.column_stack([np.sin(th) * np.cos(ph),
                                     np.sin(th) * np.sin(ph),
                                     np.cos(th)])


def _seeded_samples(basis, seed, band, width):
    """Seeded field of ``width`` components on the grid of basis: standard
    normal coefficients of a helper basis of the given band, synthesized."""
    rng = np.random.default_rng(seed)
    if isinstance(basis, FourierBasis):
        helper = FourierBasis(max(5, 2 * band + 1))
        coeffs = helper.unpack_real(
            rng.standard_normal((helper.mode_count, width)))
    else:
        helper = SphHarmBasis(max(2, band))
        coeffs = rng.standard_normal((helper.mode_count, width))
    return _real(helper.evaluate_at(coeffs, basis.grid_points))


_PRESETS = {}


def preset_names():
    return sorted(_PRESETS)


def _preset(name):
    def deco(fn):
        _PRESETS[name] = fn
        return fn
    return deco


def _product_torus_immersion(resolution, ambient, a):
    """The torus (a e^{iu}, b e^{iv}) with a^2 + b^2 = 1."""
    basis = FourierBasis(resolution)
    b = np.sqrt(1.0 - a * a)
    u = basis.grid_points[:, 0]
    v = basis.grid_points[:, 1]
    samples = np.column_stack([a * np.cos(u), a * np.sin(u),
                               b * np.cos(v), b * np.sin(v)])
    return SampledImmersion.from_samples(
        ambient, SurfaceTopology(1), basis, samples)


@_preset("clifford_torus")
def _clifford(resolution, **kw):
    return _product_torus_immersion(resolution, UnitSphere(4), np.sqrt(0.5))


@_preset("clifford_in_r4")
def _clifford_r4(resolution, **kw):
    return _product_torus_immersion(resolution, Euclidean(4), np.sqrt(0.5))


@_preset("product_torus")
def _product_torus(resolution, a=0.6, **kw):
    if not 0.05 < a < 0.999:
        raise UnknownPreset(f"product torus radius a={a} out of range")
    return _product_torus_immersion(resolution, UnitSphere(4), float(a))


@_preset("equator_s2_in_s3")
def _equator(resolution, **kw):
    basis = SphHarmBasis(resolution)
    s3 = np.zeros((basis.num_nodes, 4))
    s3[:, :3] = _sphere_chart_samples(basis)
    return SampledImmersion.from_samples(
        UnitSphere(4), SurfaceTopology(0), basis, s3)


@_preset("round_sphere_r3")
def _round_sphere(resolution, radius=1.0, **kw):
    basis = SphHarmBasis(resolution)
    samples = _sphere_chart_samples(basis, float(radius))
    return SampledImmersion.from_samples(
        Euclidean(3), SurfaceTopology(0), basis, samples)


def _perturbed(base_preset, direction=None):
    """Preset moving the base preset along a seeded scalar of unit sup norm
    times a direction field: a fixed ambient vector, or the first normal
    frame field when direction is None."""
    def build(resolution, amplitude=0.02, seed=1, band=2, **kw):
        base = base_preset(resolution)
        s = _seeded_samples(base.basis, seed, band, 1)[:, 0]
        s = s / np.max(np.abs(s)) * float(amplitude)
        nu = normal_frame(base)[0] if direction is None else direction
        return SampledImmersion.from_samples(
            base.ambient, base.topology, base.basis,
            base.samples() + s[:, None] * nu)
    return build


_PRESETS["perturbed_clifford"] = _perturbed(_clifford)
_PRESETS["perturbed_equator"] = _perturbed(_equator, np.eye(4)[3])
_PRESETS["perturbed_round_sphere"] = _perturbed(_round_sphere)
_PRESETS["perturbed_clifford_in_r4"] = _perturbed(_clifford_r4)


def make_preset(name, resolution, **params):
    """Build a named preset immersion at the given spectral resolution."""
    if name not in _PRESETS:
        raise UnknownPreset(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return _PRESETS[name](resolution, **params)
