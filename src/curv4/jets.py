"""Forward-mode automatic differentiation with nestable dual numbers.

A Jet carries a value and a tuple of first-order partials.  Coefficients may
be floats, numpy arrays (batched evaluation over many points at once) or
other Jets: nesting jets two deep yields exact second derivatives, three
deep yields mixed third-order data (used when connection coefficients have
to be differentiated along an immersed surface).

All closed-form fields in this package (metric coefficients, Kahler
potentials, immersions, spherical harmonics) are written as plain
arithmetic over a generic scalar ring, so the same code path produces
values, gradients and Hessians depending on how the inputs are seeded.

The interface is arithmetic (``+ - * / **``), ``jsqrt``, ``jlog`` and the
functions below.  This module is the only one that reads the nested layout
(``.f``, ``.d``).  Everything else seeds with ``seedn(x, order)``, which
adds its layers outside whatever ring the entries of x already live in,
and reads results through

* ``value(x)``: the plain value, all jet layers stripped;
* ``partial(x, a)``: the a-th partial, one layer down (0 for constants);
* ``drop(x)``: the same jet one order lower, mapped over nested lists;
* ``array(x, shape)``, ``grad_array(x, shape, m)``,
  ``hess_array(x, shape, m)``: value, gradient and Hessian as float arrays
  with the partial indices last;
* ``from_arrays(v, d, d2)``: their inverse, from value, gradient and
  Hessian arrays (such as those of ``MetricField.jets``) back to a jet.

Constructing ``Jet(value, partials)`` directly stays allowed.  A jet times
the float 0.0 (a seed's or a constant's partial) is 0.0, so the layers of a
variable a function does not use cost nothing; a zero may lose its sign.
"""

import numpy as np


class Jet:
    __slots__ = ("f", "d")

    # keep numpy from consuming Jet operands elementwise
    __array_ufunc__ = None

    def __init__(self, f, d):
        self.f = f
        self.d = tuple(d)

    def __repr__(self):
        return "Jet(%r, %r)" % (self.f, self.d)

    # ---- arithmetic -------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.f + other.f,
                       tuple(a + b for a, b in zip(self.d, other.d)))
        return Jet(self.f + other, self.d)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.f, tuple(-a for a in self.d))

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.f - other.f,
                       tuple(a - b for a, b in zip(self.d, other.d)))
        return Jet(self.f - other, self.d)

    def __rsub__(self, other):
        return Jet(other - self.f, tuple(-a for a in self.d))

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.f * other.f,
                       tuple(a * other.f + self.f * b
                             for a, b in zip(self.d, other.d)))
        if other.__class__ is float and other == 0.0:
            return 0.0
        return Jet(self.f * other, tuple(a * other for a in self.d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            inv = 1.0 / other.f
            q = self.f * inv
            return Jet(q, tuple((a - q * b) * inv
                                for a, b in zip(self.d, other.d)))
        inv = 1.0 / other
        return Jet(self.f * inv, tuple(a * inv for a in self.d))

    def __rtruediv__(self, other):
        inv = 1.0 / self.f
        q = other * inv
        return Jet(q, tuple(-q * b * inv for b in self.d))

    def __pow__(self, p):
        if p == 2:
            return self * self
        fpm1 = self.f ** (p - 1)
        return Jet(fpm1 * self.f, tuple(p * fpm1 * a for a in self.d))


def jsqrt(x):
    if isinstance(x, Jet):
        r = jsqrt(x.f)
        return Jet(r, tuple(a * (0.5 / r) for a in x.d))
    return np.sqrt(x)


def jlog(x):
    if isinstance(x, Jet):
        return Jet(jlog(x.f), tuple(a / x.f for a in x.d))
    return np.log(x)


# ---- seeding ---------------------------------------------------------

def seedn(x, order):
    """Wrap coordinates in ``order`` nested dual layers.

    Derivative seeds at the outer layers are plain constants; arithmetic
    coercion keeps them in the right ring.
    """
    m = len(x)
    out = []
    for i in range(m):
        e = tuple(1.0 if j == i else 0.0 for j in range(m))
        xi = x[i]
        for _ in range(order):
            xi = Jet(xi, e)
        out.append(xi)
    return out


def value(x):
    """Strip all jet layers from x."""
    while isinstance(x, Jet):
        x = x.f
    return x


def partial(x, a):
    """The a-th partial coefficient of x, one layer down; constants give 0."""
    return x.d[a] if isinstance(x, Jet) else 0.0


def drop(x):
    """x with its outermost jet layer removed (a jet one order lower).

    Maps over nested lists and tuples; constants pass through."""
    if isinstance(x, (list, tuple)):
        return [drop(v) for v in x]
    return x.f if isinstance(x, Jet) else x


def array(x, shape):
    """The value of x as a float array of the given shape (broadcast)."""
    v = np.asarray(value(x), dtype=float)
    return v if v.shape == shape else np.broadcast_to(v, shape)


def grad_array(x, shape, m):
    """First partials of x as an array of shape ``shape + (m,)``."""
    return np.stack([array(partial(x, a), shape) for a in range(m)], axis=-1)


def hess_array(x, shape, m):
    """Second partials of x as an array of shape ``shape + (m, m)``."""
    return np.stack([grad_array(partial(x, a), shape, m) for a in range(m)],
                    axis=-2)


def from_arrays(v, d, d2=None):
    """The jet of value v, gradient d[..., a] and, if given, Hessian
    d2[..., a, b]: a 1-jet, or a 2-jet whose first partials are d at both
    layers.  The inverse of ``array``, ``grad_array`` and ``hess_array``."""
    grads = [d[..., a] for a in range(d.shape[-1])]
    if d2 is None:
        return Jet(v, grads)
    return Jet(Jet(v, grads), [from_arrays(g, d2[..., a, :])
                               for a, g in enumerate(grads)])
