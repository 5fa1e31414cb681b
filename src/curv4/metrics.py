"""Chart atlases and analytic metric fields for the model 4-manifolds.

Built-ins: flat space, the round 4-sphere, products of round 2-spheres,
the volume-normalized squashed product family, its potential-twisted
Kahler deformations, and Fubini-Study CP^2.

Every built-in is declared once, by coeffs(chart, s) -> (f0, f1, f12) over
a generic scalar ring, s = (|z1|^2, |z2|^2): g is f0 on the (x1, y1) block,
f1 on the (x2, y2) block and f12 times R = Re zbar_1 z_2 = x1 x2 + y1 y2 at
(x1, x2), (y1, y2) and I = Im zbar_1 z_2 = x1 y2 - y1 x2 at (x1, y2),
(x2, y1) with a minus, symmetric.  ``MetricField.jets`` seeds s with two
dual layers (curv4.jets) over plain arrays and goes to x by the chain rule
through s(x), d_k s_a = 2 x_k and d_l d_k s_a = 2 delta_kl on factor a.
It is the one route from the coefficients to the jets of g.  Central finite
differences are used only as a cross check in the test suite.

Every Kahler potential here is U(1)^2-invariant: a function
potential(chart, s), whose coefficients are f_a = 2 (Phi_a + Phi_aa s_a)
and f12 = 2 Phi_12 by H_ab = Phi_a delta_ab + Phi_ab zbar_a z_b (Guillemin,
J. Diff. Geom. 40, 1994).  The Kahler built-ins declare them in closed
form and keep the potential as ``kaehler``, the tests' oracle;
``toric_metric`` applies the rule to a potential, on two more dual layers.

Every curved built-in is invariant under the T^2 rotations
z_a -> e^{i theta_a} z_a in every chart, so ``volume`` integrates over the
orbit space (|z1|, |z2|) with a 2-D Gauss rule.  ``QuadSpec.n`` (the CLI's
``--quad``) is the node count per axis of both that rule and the surface
quadrature.  For the same reason every grid scan (the condition margins,
both eps searches, the Kahler residuals and the constructor's validation)
evaluates one representative per T^2 orbit that the grid meets
(``Chart.orbit_grid``) and not every grid point, and the surface geometry
(``surfaces.ChartGeometry``) is built at one node per S^1 orbit of the
surface, whose rotation moves the immersed point by a T^2 rotation, and
carried to the other nodes of that orbit.

Conventions
-----------
* All charts are positively oriented; stereographic pairs are glued by the
  holomorphic inversion z -> 1/z (realized on real coordinates), so that
  per-chart Kahler potentials differ by pluriharmonic terms only.
* A potential Phi produces the metric g = 2 Re(d^2 Phi / dz_a dzbar_b),
  i.e. a round 2-sphere of radius r is the potential 2 r^2 log(1+|z|^2)
  with line element 4 r^2 |dz|^2 / (1+|z|^2)^2.
"""

import functools
import inspect
import re

import numpy as np

from .errors import ChartDomainError, MetricConstructionError, SpecParseError
from .jets import (array, drop, grad_array, hess_array, jlog, partial,
                   seedn, value)

CHART_MARGIN = 0.1

# the complex structure of every Kahler built-in in every chart, on the
# coordinates (x1, y1, x2, y2) with z_a = x_a + i y_a (columns J(e_j))
J_STANDARD = [[0.0, -1.0, 0.0, 0.0],
              [1.0, 0.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, -1.0],
              [0.0, 0.0, 1.0, 0.0]]


def _grid_axis(b, n):
    """The n grid values of every axis of the sample box [-b, b]^4.
    Mirrored so that x -> -x maps them onto themselves in floats too
    (linspace alone does not), and x^2 takes ceil(n / 2) values, as in exact
    arithmetic."""
    a = np.linspace(-b, b, n)
    return 0.5 * (a - a[::-1])


@functools.lru_cache(maxsize=16)
def _orbit_radii(b, n):
    """(reps, i, k) of grid(n) on the sample box [-b, b]^4: the orbit
    representatives, read-only, and the class in 0..k-1 of the radius
    x^2 + y^2 of each (x, y) pair of one factor plane."""
    a2 = _grid_axis(b, n) ** 2
    u, i = np.unique(np.add.outer(a2, a2).ravel(), return_inverse=True)
    h = np.sqrt(u / 2.0)
    reps = np.stack(np.broadcast_arrays(h[:, None], h[:, None],
                                        h[None, :], h[None, :]),
                    axis=-1).reshape(-1, 4)
    reps.flags.writeable = False
    return reps, i, len(u)


class Chart:
    """A coordinate chart: open ball |x| < radius (or a box) in R^4.

    ``sample_box`` is the half-width b of the closed sub-box [-b, b]^4 used
    for random sampling and grid scans; it keeps at least CHART_MARGIN away
    from the domain boundary.
    """

    def __init__(self, name, radius=None, box=None, factor_radius=None,
                 sample_box=1.0):
        self.name = name
        self.radius = radius
        self.box = None if box is None else float(box)
        self.factor_radius = factor_radius
        self.sample_box = float(sample_box)
        self.transitions = {}  # target chart name -> ring-generic map

    def contains(self, pts, margin=CHART_MARGIN):
        pts = np.asarray(pts, dtype=float)
        ok = np.ones(pts.shape[:-1], dtype=bool)
        if self.radius is not None:
            ok &= np.linalg.norm(pts, axis=-1) < self.radius - margin
        if self.box is not None:
            ok &= np.all(np.abs(pts) < self.box - margin, axis=-1)
        if self.factor_radius is not None:
            ok &= np.hypot(pts[..., 0], pts[..., 1]) < self.factor_radius - margin
            ok &= np.hypot(pts[..., 2], pts[..., 3]) < self.factor_radius - margin
        return ok

    def grid(self, n):
        """All n^4 points of the sample-box grid; the scans use orbit_grid."""
        return self.grid_point(n, np.arange(n ** 4))

    def grid_point(self, n, flat):
        """The points of grid(n) with the flat indices ``flat``, in grid
        order, read off the axes without building the grid."""
        return _grid_axis(self.sample_box, n)[
            np.stack(np.unravel_index(flat, (n,) * 4), axis=-1)]

    def orbit_grid(self, n):
        """(reps, index): one point per T^2 orbit that grid(n) meets, and
        the representative of each grid point, in grid order.

        The orbits are the pairs of distinct radii x^2 + y^2 of the two
        factor planes (exact float values, no rounding).  Each
        representative lies on the diagonal x_a = y_a = r_a / sqrt(2), so
        it stays in the sample box and in the chart.  The representatives
        are shared by every chart of the same sample box (a bounded LRU on
        the box and n), so they are read-only; the index, n^4 entries, is
        formed per call and not kept.
        """
        reps, i, k = _orbit_radii(self.sample_box, n)
        return reps, (i[:, None] * k + i[None, :]).ravel()

    def sample(self, rng, n):
        return rng.uniform(-self.sample_box, self.sample_box, size=(n, 4))


def _as_batch(pts):
    pts = np.asarray(pts, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    return pts, single


def _s(x):
    """s = (|z1|^2, |z2|^2) in the ring of the coordinates x."""
    return [x[0] * x[0] + x[1] * x[1], x[2] * x[2] + x[3] * x[3]]


# the entries of g in row-major order, as indices into (f0, f1, R, I, -I, 0)
_PATTERN = [0, 5, 2, 3, 5, 0, 4, 2, 2, 4, 1, 5, 3, 2, 5, 1]


def _pattern(f0, f1, re, im):
    """g's 4x4 pattern in two new last axes; the entries broadcast.  One
    gather, so every 4x4 block is written in one pass."""
    v = np.stack(np.broadcast_arrays(f0, f1, re, im, -im, 0.0), axis=-1)
    return v[..., _PATTERN].reshape(v.shape[:-1] + (4, 4))


_FACTOR = np.array([0, 0, 1, 1])    # the factor a of each coordinate x_k
# d_l d_k R and d_l d_k I, for P = (R, I)
_D2P = np.stack([_pattern(0.0, 0.0, 1.0, 0.0), _pattern(0.0, 0.0, 0.0, 1.0)])


class MetricField:
    """A smooth metric on an atlas, with exact derivatives to second order.

    coeffs(chart_name, s) returns (f0, f1, f12) over the scalar ring of s,
    the declaration of the module docstring.  ``kaehler`` is the Kahler
    potential(chart, s) of a Kahler built-in, whose complex structure is
    J_STANDARD in every chart, else None.
    """

    def __init__(self, name, charts, coeffs, params=None, kaehler=None,
                 volume_nodes=None):
        self.name = name
        self.params = dict(params or {})
        self.charts = {c.name: c for c in charts}
        self.chart_order = [c.name for c in charts]
        self._coeffs = coeffs
        self.kaehler = kaehler
        self.volume_nodes = volume_nodes  # n -> [(chart, pts, w)]
        self._validate()

    @property
    def is_kaehler(self):
        return self.kaehler is not None

    def get_chart(self, name):
        """The chart of that name; ChartDomainError if the atlas has none."""
        try:
            return self.charts[name]
        except KeyError:
            raise ChartDomainError("%s does not have chart %r (charts: %s)" % (
                self.name, name, ", ".join(self.chart_order))) from None

    def coeffs(self, chart, s):
        """(f0, f1, f12) on the chart at s = (|z1|^2, |z2|^2), over the
        scalar ring of s: the declaration of the module docstring."""
        self.get_chart(chart)
        return self._coeffs(chart, s)

    def eval(self, chart, pts):
        pts, single = _as_batch(pts)
        x1, y1, x2, y2 = pts.T
        f0, f1, f12 = (array(e, pts.shape[:-1])
                       for e in self.coeffs(chart, _s(pts.T)))
        g = _pattern(f0, f1, f12 * (x1 * x2 + y1 * y2),
                     f12 * (x1 * y2 - y1 * x2))
        return g[0] if single else g

    def jets(self, chart, pts):
        """(g, dg, d2g) with dg[...,k,i,j] = d_k g_ij, d2g[...,l,k,i,j].

        The coefficients c = (f0, f1, f12) are 2-jets in s, taken to x by
        the chain rule through s(x) with y_k = d_k s_a = 2 x_k: d_k c =
        y_k c_a, d_l d_k c = y_l y_k c_ab + 2 delta_lk c_a (a, b the factors
        of x_k, x_l); f12 times P = (R, I) by the Leibniz rule."""
        pts, single = _as_batch(pts)
        shape = pts.shape[:-1]
        f = self.coeffs(chart, seedn(_s(pts.T), 2))
        y = 2.0 * pts
        cs = np.stack([grad_array(e, shape, 2) for e in f])[..., _FACTOR]
        (c0, c1, h), (dc0, dc1, dh) = np.stack([array(e, shape) for e in f]), y * cs
        x1, y1, x2, y2 = pts.T
        P = np.stack([x1 * x2 + y1 * y2, x1 * y2 - y1 * x2])
        dP = np.stack([pts[:, [2, 3, 0, 1]], pts[:, [3, 2, 1, 0]] * [1, -1, -1, 1]])
        # d2g first and in place, its inputs freed before dg (transient memory)
        d2c = y[:, :, None] * y[:, None, :] * np.stack(
            [hess_array(e, shape, 2) for e in f])[..., _FACTOR[:, None], _FACTOR]
        d2c[..., range(4), range(4)] += 2.0 * cs
        cross = dh[..., None, :] * dP[..., :, None]
        d2p = d2c[2] * P[..., None, None]
        d2p += cross
        d2p += np.swapaxes(cross, -1, -2)
        d2p += h[..., None, None] * _D2P[:, None]
        d2g = _pattern(d2c[0], d2c[1], *d2p)
        del d2c, cross, d2p
        out = (_pattern(c0, c1, *(h * P)),
               _pattern(dc0, dc1, *(dh * P[..., None] + h[..., None] * dP)), d2g)
        return tuple(a[0] for a in out) if single else out

    def require_inside(self, chart, pts, margin=CHART_MARGIN):
        ok = self.get_chart(chart).contains(pts, margin)
        if not np.all(ok):
            raise ChartDomainError(
                "%s: point outside chart %r domain" % (self.name, chart))

    def sample_points(self, rng, n_per_chart):
        return [(name, self.charts[name].sample(rng, n_per_chart))
                for name in self.chart_order]

    def orbit_points(self, n):
        """[(chart, reps, index)]: ``Chart.orbit_grid(n)`` of every chart."""
        return [(name,) + self.charts[name].orbit_grid(n)
                for name in self.chart_order]

    def _validate(self):
        # the orbit representatives of grid(5): finiteness and the spectrum
        # of g are T^2-invariant on every built-in (g is symmetric by form)
        for name, pts, _ in self.orbit_points(5):
            g = self.eval(name, pts)
            if not np.isfinite(g).all():
                raise MetricConstructionError(
                    "%s: non-finite components on chart %r" % (self.name, name))
            w = np.linalg.eigvalsh(g)
            if w.min() <= 1e-10:
                raise MetricConstructionError(
                    "%s: metric not positive definite on chart %r "
                    "(min eigenvalue %.3e)" % (self.name, name, w.min()))


# ---------------------------------------------------------------------
# ring-generic building blocks

def _inversion2(x, y):
    """Real form of the holomorphic chart flip z -> 1/z."""
    r2 = x * x + y * y
    return x / r2, -(y / r2)


def toric_metric(potential):
    """coeffs(chart, s) of the form 2 Re(ddbar Phi), Phi = potential(chart,
    s), in the ring of s: f_a = 2 (Phi_a + Phi_aa s_a) and f12 = 2 Phi_12,
    from Phi on s seeded two layers more.  It gives the Ricci form of
    ``curvature.kaehler_scalar_curvature``, and the test suite's oracle of
    the closed-form coefficients of the Kahler built-ins."""
    def coeffs(chart, s):
        F = potential(chart, seedn(s, 2))
        f = [2.0 * (drop(partial(F, a)) + partial(partial(F, a), a) * s[a])
             for a in range(2)]
        return f[0], f[1], 2.0 * partial(partial(F, 0), 1)
    return coeffs


# ---------------------------------------------------------------------
# quadrature

class QuadSpec:
    """Single-knob quadrature resolution: the Gauss-Legendre node count per
    axis, both of the surface quadrature (``sphere_chart_nodes``) and of the
    orbit volume rule (``volume``)."""

    MIN_N = 8

    def __init__(self, n):
        if n < self.MIN_N:
            raise ValueError("quadrature resolution must be >= %d" % self.MIN_N)
        self.n = int(n)


def _gl(n, a, b):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _hemisphere_rays(n):
    """Rays of a round-sphere factor, split across its two charts.

    Gauss-Legendre in c = cos(theta); returns [(hemisphere_id, r, wc, jac)]
    with r = sqrt((1 - c)/(1 + c)) the chart radius of each node and
    jac = 1/(1 + c)^2, so that wc * jac are the weights of r dr (two
    factors, because the surface weights are formed as wc * wphi * jac).
    An odd n has a node on the equator c = 0; chart 'a' takes it.
    """
    c, wc = _gl(n, -1.0, 1.0)
    out = []
    for hemi, sel in (("a", c >= 0), ("b", c < 0)):
        ch = np.abs(c[sel])
        out.append((hemi, np.sqrt((1 - ch) / (1 + ch)), wc[sel],
                    1.0 / (1 + ch) ** 2))
    return out


def sphere_chart_nodes(n):
    """Quadrature for one round-sphere factor, split across its two charts.

    The rays of ``_hemisphere_rays`` times uniform phi; returns
    [(hemisphere_id, u (N,2), w (N,))] where w includes the Jacobian of the
    (c, phi) -> chart-coordinate substitution, so sum w * sqrt(det g2)
    integrates the factor area.
    """
    nphi = 2 * n
    phi = (np.arange(nphi) + 0.5) * (2 * np.pi / nphi)
    wphi = 2 * np.pi / nphi
    out = []
    for hemi, r, wc, jac in _hemisphere_rays(n):
        sgn = 1.0 if hemi == "a" else -1.0
        u = np.stack([r[:, None] * np.cos(phi), sgn * r[:, None] * np.sin(phi)],
                     axis=-1).reshape(-1, 2)
        out.append((hemi, u, np.repeat(wc * wphi * jac, nphi)))
    return out


def _orbit_nodes(chart, r1, r2, w):
    """Volume nodes at the orbit representatives (r1, 0, r2, 0); r1, r2 and
    w broadcast, w weighs r1 r2 dr1 dr2 and the T^2 angles add (2 pi)^2."""
    r1, r2, w = np.broadcast_arrays(r1, r2, w)
    zero = np.zeros(r1.size)
    pts = np.stack([r1.ravel(), zero, r2.ravel(), zero], axis=-1)
    return chart, pts, (2 * np.pi) ** 2 * w.ravel()


def _product_volume_nodes(n):
    """Orbit nodes of the four product charts 'aa', 'ab', 'ba', 'bb'."""
    rays = _hemisphere_rays(n)
    return [_orbit_nodes(h1 + h2, r1[:, None], r2[None, :],
                         (wc1 * jac1)[:, None] * (wc2 * jac2)[None, :])
            for h1, r1, wc1, jac1 in rays for h2, r2, wc2, jac2 in rays]


def _polar_volume_nodes(charts, rho_max, n):
    """Orbit nodes r1 = tan(rho) cos(th), r2 = tan(rho) sin(th) with
    th in [0, pi/2] and rho in [0, rho_max], the same on every chart of
    ``charts``; dr1 dr2 = tan(rho) sec^2(rho) drho dth."""
    rho, wrho = _gl(n, 0.0, rho_max)
    th, wth = _gl(n, 0.0, np.pi / 2)
    R = np.tan(rho)
    r1, r2 = R[:, None] * np.cos(th), R[:, None] * np.sin(th)
    w = r1 * r2 * (R / np.cos(rho) ** 2 * wrho)[:, None] * wth
    return [_orbit_nodes(chart, r1, r2, w) for chart in charts]


def _flat_box_nodes(n):
    """4-D Gauss nodes over the box [-1, 1]^4 of the flat chart 'e': the
    orbit rule does not apply, as the box is not T^2-invariant."""
    x, w = _gl(max(QuadSpec.MIN_N, n // 4), -1.0, 1.0)
    pts = np.stack(np.meshgrid(*([x] * 4), indexing="ij"), axis=-1)
    W = np.prod(np.meshgrid(*([w] * 4), indexing="ij"), axis=0)
    return [("e", pts.reshape(-1, 4), W.reshape(-1))]


def _node_sum(m, n):
    total = 0.0
    for chart, pts, w in m.volume_nodes(n):
        g = m.eval(chart, pts)
        total += float(np.sum(w * np.sqrt(np.linalg.det(g))))
    return total


def volume(m, quad):
    """Integral of sqrt(det g) over the atlas partition of the field.

    Precondition of the curved built-ins: the rotations z_a -> e^{i th_a} z_a
    are isometries in every chart (the test suite checks this for every
    entry of METRICS), so sqrt(det g) is constant on each T^2 orbit and
    vol = (2 pi)^2 int int r1 r2 sqrt(det g)(r1, 0, r2, 0) dr1 dr2, a 2-D
    Gauss rule with quad.n nodes per axis.  Flat space integrates its box
    with a 4-D rule.
    """
    return _node_sum(m, quad.n)


def volume_estimate(m, quad):
    """(V(n), |V(n) - V(n // 2)|) with n = quad.n: the volume and the change
    from halving the node count, an estimate of its quadrature error."""
    v = volume(m, quad)
    return v, abs(v - _node_sum(m, quad.n // 2))


# ---------------------------------------------------------------------
# built-in metric fields

def _stereo_pair_charts_s4():
    cn = Chart("n", radius=2.5, sample_box=1.1)
    cs = Chart("s", radius=2.5, sample_box=1.1)

    def flip4(x):
        r2 = sum(_s(x))
        return [x[0] / r2, x[1] / r2, x[2] / r2, -(x[3] / r2)]

    cn.transitions["s"] = flip4
    cs.transitions["n"] = flip4
    return [cn, cs]


def flat_space():
    """Euclidean R^4 on the box chart |x_i| < 4 (identity test metric)."""
    chart = Chart("e", box=4.0, sample_box=1.0)

    return MetricField("flat", [chart], lambda name, s: (1.0, 1.0, 0.0),
                       volume_nodes=_flat_box_nodes)


def round_sphere4(r=1.0):
    """Round 4-sphere of radius r on two stereographic charts."""
    if r <= 0:
        raise MetricConstructionError("round_sphere4: radius must be positive")
    r2 = 4.0 * r * r

    def coeffs(name, s):
        q = 1.0 + (s[0] + s[1])
        c = r2 / (q * q)
        return c, c, 0.0

    return MetricField("round4", _stereo_pair_charts_s4(), coeffs,
                       params={"r": r}, volume_nodes=functools.partial(
                           _polar_volume_nodes, ("n", "s"), np.pi / 4))


def _product_charts():
    charts = {}
    for h1 in "ab":
        for h2 in "ab":
            charts[h1 + h2] = Chart(h1 + h2, factor_radius=2.5, sample_box=1.1)

    def flip1(x):
        u, v = _inversion2(x[0], x[1])
        return [u, v, x[2], x[3]]

    def flip2(x):
        u, v = _inversion2(x[2], x[3])
        return [x[0], x[1], u, v]

    for h1 in "ab":
        for h2 in "ab":
            name = h1 + h2
            charts[name].transitions[("b" if h1 == "a" else "a") + h2] = flip1
            charts[name].transitions[h1 + ("b" if h2 == "a" else "a")] = flip2
    return [charts[k] for k in ("aa", "ab", "ba", "bb")]


def _product_potential(a2, b2):
    def potential(name, s):
        return 2.0 * a2 * jlog(1.0 + s[0]) + 2.0 * b2 * jlog(1.0 + s[1])
    return potential


def product_spheres(a=1.0, b=1.0):
    """S^2(a) x S^2(b) with the product round metric, four-chart atlas."""
    if a <= 0 or b <= 0:
        raise MetricConstructionError("product_spheres: radii must be positive")
    fa, fb = 4.0 * a * a, 4.0 * b * b

    def coeffs(name, s):
        q1, q2 = 1.0 + s[0], 1.0 + s[1]
        return fa / (q1 * q1), fb / (q2 * q2), 0.0

    return MetricField("product", _product_charts(), coeffs,
                       params={"a": a, "b": b},
                       kaehler=_product_potential(a * a, b * b),
                       volume_nodes=_product_volume_nodes)


def ht_metric(t):
    """Volume-preserving squashed product: factors scaled by (1 - t^2/4)^{+-1}."""
    if not 0.0 <= t <= 1.0:
        raise MetricConstructionError("ht_metric: t must lie in [0, 1]")
    lam = 1.0 - t * t / 4.0
    m = product_spheres(np.sqrt(lam), 1.0 / np.sqrt(lam))
    m.name = "ht"
    m.params = {"t": t}
    return m


# the perturbation potential of the twisted family
def _phi_height_product(name, s):
    """(|z1|^2/(1+|z1|^2)) * (|z2|^2/(1+|z2|^2)), smooth on S^2 x S^2.

    Expressed per chart: on a 'b' factor chart the first fraction becomes
    1/(1+|w|^2).
    """
    parts = []
    for k in range(2):
        q = 1.0 + s[k]
        if name[k] == "a":
            parts.append(1.0 - 1.0 / q)
        else:
            parts.append(1.0 / q)
    return parts[0] * parts[1]


def _phi_factor(h, s):
    """(u, u', u' + u'' s) of one factor u(s) of ``_phi_height_product`` on
    a factor chart h: u = 1 - 1/q on 'a' and 1/q on 'b', with q = 1 + s."""
    w = 1.0 / (1.0 + s)
    w2 = w * w
    if h == "a":
        return 1.0 - w, w2, (1.0 - s) * w2 * w
    return w, -w2, (s - 1.0) * w2 * w


def _phi_coeffs(name, s):
    """The coefficients of 2 Re ddbar phi, phi = u(s1) v(s2): f0 = 2 (u' +
    u'' s1) v, f1 = 2 u (v' + v'' s2) and f12 = 2 u' v'."""
    u, du, Du = _phi_factor(name[0], s[0])
    v, dv, Dv = _phi_factor(name[1], s[1])
    return 2.0 * Du * v, 2.0 * u * Dv, 2.0 * du * dv


def twisted_coeffs(t, eps):
    """coeffs(chart, s) of the twisted family h_t + eps (2 Re ddbar phi) on
    the product charts; eps may be an array whose axes lead those of s, or
    a jet.  h_t is ``ht_metric(t)``'s, the product of spheres of radii a
    and 1/a with a = sqrt(1 - t^2/4)."""
    if not 0.0 <= t <= 1.0:
        raise MetricConstructionError(
            "twisted_metric: t=%.4g does not lie in [0, 1]" % t)
    a = np.sqrt(1.0 - t * t / 4.0)
    b = 1.0 / a
    fa, fb = 4.0 * a * a, 4.0 * b * b

    def coeffs(name, s):
        q1, q2 = 1.0 + s[0], 1.0 + s[1]
        p0, p1, p12 = _phi_coeffs(name, s)
        return fa / (q1 * q1) + eps * p0, fb / (q2 * q2) + eps * p1, eps * p12

    return coeffs


def twisted_eps_max(t, grid_n=16):
    """Largest |eps| keeping min eig(g) above 1e-3 of its eps=0 floor.

    The family is fixed: phi is ``_phi_height_product``, and the bound is
    exact on the validation points chart.grid(grid_n) plus chart.grid(5)
    of every chart.  The latter are the constructor's own check points and
    contain the chart centres, which even grids skip, so every
    |eps| <= eps_max passes MetricField._validate.  At t = 0, 0.3, 0.5,
    0.8 and 1 the binding point lies in grid(5): grids 3, 4, 8, 16 and 24
    give bit-identical bounds.  ``twisted_metric`` always validates on
    grid 16.  Precondition: both forms are T^2-invariant (toric
    potentials), so the pencil is constant on each T^2 orbit and is
    evaluated once per orbit that the grids meet (``Chart.orbit_grid``):
    grid(16) meets 36^2 orbits per chart, against 16^4 points.

    With G = h_t and P = 2 Re ddbar phi, G + eps P stays above the floor
    exactly when 1 + eps mu > 0 for every generalized eigenvalue mu of the
    pencil (P, G - floor I) (Golub & Van Loan, Matrix Computations, 8.7),
    so eps_max = 1 / max |mu| for both signs of eps.

    Both forms have the J-invariant pattern of the module docstring (G with
    f12 = 0), so each is the complex Hermitian 2x2 matrix [[S00, S02 + i
    S03], [., S22]], and every real 4x4 generalized eigenvalue is a doubled
    eigenvalue of the 2x2 pencil.  With H_G = diag(a, c) (floor already
    subtracted) and H_P = [[p, q], [conj(q), r]], its eigenvalues are the
    roots of det(H_P - mu H_G) = A mu^2 - B mu + C with A = a c,
    B = p c + r a and C = p r - |q|^2, so
    max |mu| = (|B| + sqrt(B^2 - 4 A C)) / 2A, a form free of
    cancellation.  G and P are the value and the eps-partial of
    ``twisted_coeffs`` on eps seeded at 0, one read per chart, and q is
    real at the orbit representatives, where Im zbar_1 z_2 = 0.  Cached
    per (t, grid_n) in a bounded LRU.
    """
    return _eps_max(round(float(t), 12), grid_n)


@functools.lru_cache(maxsize=64)
def _eps_max(t, grid_n):
    coeffs = twisted_coeffs(t, seedn([0.0], 1)[0])
    parts = []
    for chart in _product_charts():
        x = np.concatenate([chart.orbit_grid(n)[0]
                            for n in (grid_n, 5)]).T
        f0, f1, f12 = coeffs(chart.name, _s(x))
        parts.append((value(f0), value(f1), partial(f0, 0), partial(f1, 0),
                      partial(f12, 0) * (x[0] * x[2] + x[1] * x[3])))
    floor = 1e-3 * min(float(min(a.min(), c.min())) for a, c, *_ in parts)
    mu = 0.0
    for a, c, p, r, q in parts:
        a, c = a - floor, c - floor
        A, B, C = a * c, p * c + r * a, p * r - q * q
        root = np.sqrt(np.maximum(B * B - 4.0 * A * C, 0.0))
        mu = max(mu, float(np.max((np.abs(B) + root) / (2.0 * A))))
    return 1.0 / mu


def twisted_metric(t, eps):
    """Kahler deformation g = h_t + eps * (2 Re ddbar phi) on S^2 x S^2."""
    coeffs = twisted_coeffs(t, eps)
    emax = twisted_eps_max(t)
    if abs(eps) > emax:
        raise MetricConstructionError(
            "twisted_metric: |eps|=%.4g exceeds eps_max(t=%.3g)=%.4g "
            "(metric loses positive definiteness)" % (abs(eps), t, emax))
    lam = 1.0 - t * t / 4.0
    base_pot = _product_potential(lam, 1.0 / lam)

    def potential(name, s):
        return base_pot(name, s) + eps * _phi_height_product(name, s)

    return MetricField("twisted", _product_charts(), coeffs,
                       params={"t": t, "eps": eps},
                       kaehler=potential,
                       volume_nodes=_product_volume_nodes)


def _cp2_charts():
    names = ["u0", "u1", "u2"]
    charts = {n: Chart(n, radius=None, sample_box=1.0) for n in names}

    # transitions of the standard affine atlas, realized on real coordinates:
    # from chart i with coords (z1, z2), chart met by dividing through z1 is
    # (1/z1, z2/z1), by z2 is (z1/z2, 1/z2).
    def div_first(x):
        r2 = _s(x)[0]
        w1r, w1i = x[0] / r2, -(x[1] / r2)
        w2r = (x[2] * x[0] + x[3] * x[1]) / r2
        w2i = (x[3] * x[0] - x[2] * x[1]) / r2
        return [w1r, w1i, w2r, w2i]

    def div_second(x):
        r2 = _s(x)[1]
        w1r = (x[0] * x[2] + x[1] * x[3]) / r2
        w1i = (x[1] * x[2] - x[0] * x[3]) / r2
        return [w1r, w1i, x[2] / r2, -(x[3] / r2)]

    # chart gluing of [1:z1:z2]: u0 -> u1 swaps the roles so that in u1 the
    # homogeneous form is [w1:1:w2] with w1 = 1/z1, w2 = z2/z1.
    charts["u0"].transitions["u1"] = div_first
    charts["u1"].transitions["u0"] = div_first
    charts["u0"].transitions["u2"] = div_second
    charts["u2"].transitions["u0"] = div_second
    charts["u1"].transitions["u2"] = lambda x: div_second(div_first(x))
    charts["u2"].transitions["u1"] = lambda x: div_first(div_second(x))
    return [charts[n] for n in names]


FS_SCALE = 0.5  # potential prefactor fixing holomorphic sectional curvature 4


def fubini_study():
    """Fubini-Study CP^2 normalized to holomorphic sectional curvature 4.

    Three affine charts with potential FS_SCALE * log(1 + |z1|^2 + |z2|^2);
    at this normalization s = 24, Ric = 6 g and lines have area pi.
    """
    # f_a = 2 FS_SCALE (1 + s_b) / q^2, b the other factor, and
    # f12 = -2 FS_SCALE / q^2
    def coeffs(name, s):
        q = 1.0 + s[0] + s[1]
        w = 2.0 * FS_SCALE / (q * q)
        return (1.0 + s[1]) * w, (1.0 + s[0]) * w, -w

    def potential(name, s):
        return FS_SCALE * jlog(1.0 + s[0] + s[1])

    return MetricField("fubini-study", _cp2_charts(), coeffs,
                       kaehler=potential, volume_nodes=functools.partial(
                           _polar_volume_nodes, ("u0",), np.pi / 2))


# ---------------------------------------------------------------------
# specification grammar: name or name(key=value,...)

_NUM = r"\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*"
_SPEC = re.compile(r"\s*([\w-]+)\s*(?:\((.*)\))?\s*")
_ITEM = re.compile(r"\s*(\w+)\s*=(?:\s*\(%s,%s\)\s*|%s)" % (_NUM, _NUM, _NUM))


def parse_spec(spec, builders):
    """Build an object from a spec string 'name' or 'name(key=value,...)'.

    ``builders`` maps each name to its constructor, whose parameters are
    the keys; omitted ones take the constructor's defaults.  A value is a
    pair '(a,b)' of numbers where the default is a pair, else a number:
    'twisted(t=0.5,eps=0.05)', 'slice(factor=2,point=(0.5,0))'.  An unknown
    name, an unknown, repeated or missing key, a malformed or non-finite
    value (a literal like 1e400 overflows to inf), or a value the
    constructor rejects with ValueError raises SpecParseError.
    """
    m = _SPEC.fullmatch(spec)
    if m is None or m.group(1) not in builders:
        raise SpecParseError("malformed spec or unknown name: %r" % spec)
    name, body = m.groups()
    params = inspect.signature(builders[name]).parameters
    kwargs = {}
    # the items are split at the commas outside parentheses
    items = re.split(r",(?![^(]*\))", body) if body and body.strip() else []
    for item in items:
        km = _ITEM.fullmatch(item)
        key, a, b, num = km.groups() if km else (None,) * 4
        vals = [float(v) for v in (a, b, num) if v is not None]
        if key not in params or key in kwargs or \
                (b is None) == isinstance(params[key].default, tuple) or \
                not np.isfinite(vals).all():
            raise SpecParseError("malformed, unknown or repeated parameter "
                                 "%r in %r" % (item.strip(), spec))
        kwargs[key] = vals[0] if b is None else tuple(vals)
    missing = [k for k, p in params.items()
               if p.default is p.empty and k not in kwargs]
    if missing:
        raise SpecParseError("%r needs parameter %r" % (name, missing[0]))
    try:
        return builders[name](**kwargs)
    except ValueError as exc:
        raise SpecParseError("%s: %s" % (spec, exc))


METRICS = {"flat": flat_space, "round4": round_sphere4,
           "product": product_spheres, "ht": ht_metric,
           "twisted": twisted_metric, "fubini-study": fubini_study,
           "fs": fubini_study}


def parse_metric_spec(spec):
    """Build a metric field from a CLI string like 'twisted(t=0.5,eps=0.01)'."""
    return parse_spec(spec, METRICS)
