"""Exact first and second derivatives: order-2 Taylor jets along
one-parameter families, and gradients and hessians by a second-order
adjoint.

A Jet2 carries (value, first derivative, second derivative) of a quantity
along a path t -> q(t), evaluated at t = 0. Arithmetic pushes jets through
products, quotients and square roots with the exact Leibniz/chain rules, so
any pipeline built from those operations returns the exact t-derivatives of
its output (up to roundoff), with no finite-difference truncation error.

Components are plain numpy arrays (any broadcastable shapes). The geometry
pipeline in surface.py is written against the small protocol implemented
here (+, -, *, /, indexing, .sum, sqrt), so the same code runs on floats
and on jets.

gradient_hessian gives the full gradient and hessian of a few scalar
functions of n inputs at once, from n tangents per value and one reverse
sweep, where jets would need n(n + 1)/2 polarized directions.
"""

import numpy as np

__all__ = ["Jet2", "gradient_hessian", "jet_sqrt"]


class Jet2:
    """Value with first and second t-derivatives along a path.

    Parameters
    ----------
    a : ndarray
        Value at t = 0.
    b : ndarray, optional
        First derivative. Defaults to zeros.
    c : ndarray, optional
        Second derivative (the actual d2/dt2, not divided by 2).
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b=None, c=None):
        self.a = np.asarray(a, dtype=float)
        self.b = np.zeros_like(self.a) if b is None else np.asarray(b, dtype=float)
        self.c = np.zeros_like(self.a) if c is None else np.asarray(c, dtype=float)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.a + other.a, self.b + other.b, self.c + other.c)
        return Jet2(self.a + other, self.b, self.c)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.a, -self.b, -self.c)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet2) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet2):
            return Jet2(
                self.a * other.a,
                self.a * other.b + self.b * other.a,
                self.a * other.c + 2.0 * self.b * other.b + self.c * other.a,
            )
        return Jet2(self.a * other, self.b * other, self.c * other)

    __rmul__ = __mul__

    def reciprocal(self):
        a, b, c = self.a, self.b, self.c
        inv = 1.0 / a
        return Jet2(inv, -b * inv * inv, (2.0 * b * b - a * c) * inv * inv * inv)

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other.reciprocal()
        return Jet2(self.a / other, self.b / other, self.c / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    # -- array-like helpers --------------------------------------------------

    def __getitem__(self, key):
        return Jet2(self.a[key], self.b[key], self.c[key])

    def sum(self, axis=None):
        return Jet2(self.a.sum(axis=axis), self.b.sum(axis=axis),
                    self.c.sum(axis=axis))

    def sqrt(self):
        s = np.sqrt(self.a)
        ds = self.b / (2.0 * s)
        return Jet2(s, ds, (self.c - 2.0 * ds * ds) / (2.0 * s))

    @property
    def shape(self):
        return self.a.shape

    def __repr__(self):
        return f"Jet2(shape={self.a.shape})"


class _Unit:
    """Tangent e_k of input k of n, never stored as an array."""

    __slots__ = ("k", "n")

    def __init__(self, k, n):
        self.k, self.n = k, n


def _tangent(shape, *terms):
    """Sum of c * t over the (c, t) terms: c is None for 1, t a tangent
    array (n,) + shape or a _Unit.  Returns a new array."""
    out = None
    for c, t in terms:
        if isinstance(t, _Unit):
            continue
        if out is None:
            out = t.copy() if c is None else t * c
        else:
            out += t if c is None else t * c
    for c, t in terms:
        if isinstance(t, _Unit):
            if out is None:
                out = np.zeros((t.n,) + shape)
            out[t.k] += 1.0 if c is None else c
    return out


class _Adjoint2:
    """A value on a second-order adjoint tape over n inputs (the scalar type
    of gradient_hessian).

    Carries its value a, its tangent t = da/dx along all n unit input
    directions, shape (n,) + a.shape (a _Unit for an input), and one edge
    per operand: (operand, f, s, tt), where f = dv/du is the local partial
    (None for 1) and s * tt its tangent along the inputs (tt None when f
    is constant, s None for 1).  A value references its operands, never a
    tape, so values a computation drops are freed at once.  Speaks the
    protocol of the node density algebra: +, -, * with values and
    constants, / through reciprocal, jet_sqrt, and sum from 0.
    """

    __slots__ = ("a", "t", "edges", "bar", "dbar", "owned")
    # an array on the left defers to the reflected operators
    __array_ufunc__ = None

    def __init__(self, a, t, edges):
        self.a, self.t, self.edges = a, t, edges
        self.bar = self.dbar = None

    # the reverse sweep: bar is the adjoint of every output, (k,) + a.shape,
    # and dbar its tangent, (k, n) + a.shape, which this value may update
    # in place only when it owns the array (no other value holds it)

    def _add_dbar(self, d, owned):
        if self.dbar is None:
            self.dbar, self.owned = d, owned
        elif self.owned:
            self.dbar += d
        elif owned:
            d += self.dbar
            self.dbar, self.owned = d, True
        else:
            self.dbar, self.owned = self.dbar + d, True

    def _own_dbar(self, shape):
        if self.dbar is None:
            self.dbar, self.owned = np.zeros(shape), True
        elif not self.owned:
            self.dbar, self.owned = self.dbar.copy(), True
        return self.dbar

    def __add__(self, other):
        if isinstance(other, _Adjoint2):
            return _Adjoint2(self.a + other.a,
                             _tangent(self.a.shape, (None, self.t),
                                      (None, other.t)),
                             ((self, None, None, None),
                              (other, None, None, None)))
        if isinstance(other, int) and other == 0:
            return self  # sum() starts from 0
        return _Adjoint2(self.a + other, self.t, ((self, None, None, None),))

    __radd__ = __add__

    def __neg__(self):
        return _Adjoint2(-self.a, _tangent(self.a.shape, (-1.0, self.t)),
                         ((self, -1.0, None, None),))

    def __sub__(self, other):
        if isinstance(other, _Adjoint2):
            return _Adjoint2(self.a - other.a,
                             _tangent(self.a.shape, (None, self.t),
                                      (-1.0, other.t)),
                             ((self, None, None, None),
                              (other, -1.0, None, None)))
        return _Adjoint2(self.a - other, self.t, ((self, None, None, None),))

    def __rsub__(self, other):
        return _Adjoint2(other - self.a, _tangent(self.a.shape,
                                                  (-1.0, self.t)),
                         ((self, -1.0, None, None),))

    def __mul__(self, other):
        if other is self:
            return _Adjoint2(self.a * self.a,
                             _tangent(self.a.shape, (2.0 * self.a, self.t)),
                             ((self, 2.0 * self.a, 2.0, self.t),))
        if isinstance(other, _Adjoint2):
            return _Adjoint2(self.a * other.a,
                             _tangent(self.a.shape, (other.a, self.t),
                                      (self.a, other.t)),
                             ((self, other.a, None, other.t),
                              (other, self.a, None, self.t)))
        return _Adjoint2(self.a * other, _tangent(self.a.shape,
                                                  (other, self.t)),
                         ((self, other, None, None),))

    __rmul__ = __mul__

    def reciprocal(self):
        inv = 1.0 / self.a
        f = -inv * inv
        t = _tangent(inv.shape, (f, self.t))
        return _Adjoint2(inv, t, ((self, f, -2.0 * inv, t),))

    def __truediv__(self, other):
        if isinstance(other, _Adjoint2):
            return self * other.reciprocal()
        return _Adjoint2(self.a / other, _tangent(self.a.shape,
                                                  (1.0 / other, self.t)),
                         ((self, 1.0 / other, None, None),))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def sqrt(self):
        s = np.sqrt(self.a)
        f = 0.5 / s
        t = _tangent(s.shape, (f, self.t))
        return _Adjoint2(s, t, ((self, f, -f / s, t),))


def _swept_order(outputs):
    """The values the outputs reach, each after every value it reaches."""
    order, seen = [], set()
    for root in outputs:
        if id(root) in seen:
            continue
        seen.add(id(root))
        stack = [(root, 0)]
        while stack:
            v, i = stack.pop()
            if i == len(v.edges):
                order.append(v)
                continue
            stack.append((v, i + 1))
            u = v.edges[i][0]
            if id(u) not in seen:
                seen.add(id(u))
                stack.append((u, 0))
    return order


def gradient_hessian(f, inputs):
    """Values, gradients and hessians of the outputs of f at the inputs.

    inputs is a sequence of n arrays of one shape S; f maps n scalars to a
    sequence of k scalars, written with +, -, *, / (dividing by a scalar
    through its reciprocal), jet_sqrt and sum.  One forward pass carries
    every value's tangents along the n input directions, and one reverse
    sweep carries the adjoints of all k outputs and their tangents back to
    the inputs (forward-over-reverse; Griewank and Walther, Evaluating
    Derivatives, ch. 5).  Returns the values (k,) + S, bit for bit those of
    f on plain arrays, the gradients (k, n) + S and the hessians
    (k, n, n) + S, whose row i is the tangent of the adjoint of input i.
    The hessians are symmetric up to roundoff, not bitwise.
    """
    n = len(inputs)
    xs = [_Adjoint2(np.asarray(x, dtype=float), _Unit(i, n), ())
          for i, x in enumerate(inputs)]
    shape = xs[0].a.shape
    outputs = list(f(xs))
    k = len(outputs)
    values = np.stack([y.a for y in outputs])
    for j, y in enumerate(outputs):
        seed = np.zeros((k,) + shape)
        seed[j] = 1.0
        y.bar = seed if y.bar is None else y.bar + seed
    for v in reversed(_swept_order(outputs)):
        for u, df, s, tt in v.edges:
            bar = v.bar if df is None else v.bar * df
            u.bar = bar if u.bar is None else u.bar + bar
            if v.dbar is not None:
                u._add_dbar(v.dbar if df is None else v.dbar * df,
                            df is not None)
            if tt is None:
                continue
            w = v.bar if s is None else v.bar * s
            if isinstance(tt, _Unit):
                u._own_dbar((k, n) + shape)[:, tt.k] += w
            else:
                u._add_dbar(w[:, None] * tt, True)
        if v.edges:
            # swept: its tangent and partials are no longer needed
            v.t = v.edges = v.bar = v.dbar = None
    zero = np.zeros((k,) + shape)
    grad = np.stack([zero if x.bar is None else x.bar for x in xs], axis=1)
    hess = np.stack([np.zeros((k, n) + shape) if x.dbar is None else x.dbar
                     for x in xs], axis=1)
    return values, grad, hess


def jet_sqrt(x):
    """Square root that accepts plain arrays, jets and adjoint values."""
    if isinstance(x, (Jet2, _Adjoint2)):
        return x.sqrt()
    return np.sqrt(x)
