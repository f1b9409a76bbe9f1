"""Ambient target manifolds: round unit spheres and flat Euclidean space.

The ambient type owns the pointwise operations every other module needs:
projection of nearby ambient points onto the manifold and tangential
projection of vectors, plus the frame size and sectional curvature that
the geometry pipeline reads.
"""

import numpy as np

from .errors import OffManifold, ShapeMismatch, ZeroPoint

__all__ = ["AmbientManifold", "UnitSphere", "Euclidean", "ambient_from_dict"]

_ON_MANIFOLD_TOL = 1e-10


class AmbientManifold:
    """Common interface; use the UnitSphere / Euclidean constructors."""

    kind = None

    def __init__(self, dim):
        self.dim = int(dim)

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

    def contains(self, z):
        z = self._check_points(z)
        return (float(np.max(np.abs(np.linalg.norm(z, axis=-1) - 1.0)))
                <= _ON_MANIFOLD_TOL)

    def tangent_project(self, z, X):
        z = self._check_points(z)
        X = self._check_points(X)
        if not self.contains(z):
            raise OffManifold("base points are not on the unit sphere")
        return X - np.sum(z * X, axis=-1, keepdims=True) * z

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

    def contains(self, z):
        self._check_points(z)
        return True

    def tangent_project(self, z, X):
        self._check_points(z)
        return self._check_points(X)

    frame_size = 2  # tangent frame: P_1, P_2 only
    curvature_constant = 0.0


def ambient_from_dict(d):
    kind = d["kind"]
    if kind == "sphere":
        return UnitSphere(d["dim"])
    if kind == "euclidean":
        return Euclidean(d["dim"])
    raise ShapeMismatch(f"unknown ambient kind {kind!r}")
