"""Ambient target manifolds: round unit spheres and flat Euclidean space.

The ambient owns its constraint and its curvature, so no other module
tests its kind: the per-point distance to the manifold (| |z| - 1 | on
the sphere), the normal component of a vector (z . X on the sphere; both
zero in flat space), the tangent and nearest-point projections, contains()
against the one tolerance ON_MANIFOLD_TOL; the curvature constant kappa,
which makes its second fundamental form in R^Q -kappa (X . Y) z; retract,
a chart family mapped onto it with its chart derivatives; and the
frame_size and normal_seeds of the one normal frame recipe.
"""

import numpy as np

from .errors import OffManifold, ShapeMismatch, ZeroPoint

__all__ = ["AmbientManifold", "UnitSphere", "Euclidean", "ambient_from_dict",
           "ON_MANIFOLD_TOL"]

# how far a point may sit off the manifold and still count as on it
ON_MANIFOLD_TOL = 5e-9


class AmbientManifold:
    """Common interface; use the UnitSphere / Euclidean constructors."""

    kind = None

    def __init__(self, dim):
        self.dim = int(dim)

    def contains(self, z):
        return float(np.max(self.distance(z))) <= ON_MANIFOLD_TOL

    def tangent_project(self, z, X):
        """X less its normal component at the base points z."""
        z = self._check_points(z)
        X = self._check_points(X)
        if not self.contains(z):
            raise OffManifold(f"base points are not on the {self.kind} "
                              "ambient")
        return X - self.normal_component(z, X)[..., None] * z

    # Serialization ----------------------------------------------------------

    def to_dict(self):
        return {"kind": self.kind, "dim": self.dim}

    def __eq__(self, other):
        return (isinstance(other, AmbientManifold)
                and self.kind == other.kind and self.dim == other.dim)

    def __repr__(self):
        return f"{type(self).__name__}({self.dim})"

    def _check_points(self, z):
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != self.dim:
            raise ShapeMismatch(
                f"points have last axis {z.shape[-1]}, ambient dim is {self.dim}")
        return z


class UnitSphere(AmbientManifold):
    """Round unit sphere S^{Q-1} inside R^Q, Q >= 4."""

    kind = "sphere"

    def __init__(self, dim):
        if dim < 4:
            raise ShapeMismatch(
                "sphere ambient needs dim >= 4 for immersed 2-surfaces "
                "with a normal bundle")
        super().__init__(dim)

    def project_point(self, z):
        z = self._check_points(z)
        r = np.linalg.norm(z, axis=-1, keepdims=True)
        if np.any(r < 1e-14):
            raise ZeroPoint("radial projection undefined at the origin")
        return z / r

    def retract(self, z, zd, zdd):
        """z / |z| and its chart derivatives by the closed-form chain rule."""
        inv_r = 1.0 / np.sqrt(np.sum(z * z, axis=-1))
        inv_r3 = inv_r ** 3
        zdotzd = np.einsum("...q,...iq->...i", z, zd)
        c = zdotzd * inv_r3[..., None]
        y = z * inv_r[..., None]
        yd = zd * inv_r[..., None, None] - z[..., None, :] * c[..., None]
        zdotzdd = np.einsum("...q,...ijq->...ij", z, zdd)
        zdzd = np.einsum("...iq,...jq->...ij", zd, zd)
        cc = (zdotzd[..., :, None] * zdotzd[..., None, :]
              * inv_r[..., None, None] ** 5)
        ydd = (zdd * inv_r[..., None, None, None]
               - zd[..., :, None, :] * c[..., None, :, None]
               - zd[..., None, :, :] * c[..., :, None, None]
               - z[..., None, None, :]
               * ((zdzd + zdotzdd) * inv_r3[..., None, None])[..., None]
               + 3.0 * z[..., None, None, :] * cc[..., None])
        return y, yd, ydd

    def normal_seeds(self, z):
        """Seeds of the normal frame: the last axis e_Q at every point."""
        return [np.broadcast_to(np.eye(self.dim)[-1], np.shape(z))]

    def distance(self, z):
        return np.abs(np.linalg.norm(self._check_points(z), axis=-1) - 1.0)

    def normal_component(self, z, X):
        return np.sum(self._check_points(z) * self._check_points(X), axis=-1)

    frame_size = 3  # tangent frame for normal projections: P_1, P_2, Phi
    curvature_constant = 1.0  # sectional curvature of the unit sphere


class Euclidean(AmbientManifold):
    """Flat R^Q, Q >= 3."""

    kind = "euclidean"

    def __init__(self, dim):
        if dim < 3:
            raise ShapeMismatch("euclidean ambient needs dim >= 3")
        super().__init__(dim)

    def project_point(self, z):
        return self._check_points(z)

    def distance(self, z):
        return np.zeros(self._check_points(z).shape[:-1])

    def normal_component(self, z, X):
        return np.zeros(self._check_points(X).shape[:-1])

    def retract(self, z, zd, zdd):
        """The identity: every chart map already lies in flat space."""
        return z, zd, zdd

    def normal_seeds(self, z):
        """Seeds of the normal frame: the position vector."""
        return [z]

    frame_size = 2  # tangent frame: P_1, P_2 only
    curvature_constant = 0.0


# the ambients by the kind their to_dict writes
_AMBIENTS = {cls.kind: cls for cls in (UnitSphere, Euclidean)}


def ambient_from_dict(d):
    kind = d["kind"]
    if kind not in _AMBIENTS:
        raise ShapeMismatch(f"unknown ambient kind {kind!r}")
    return _AMBIENTS[kind](d["dim"])
