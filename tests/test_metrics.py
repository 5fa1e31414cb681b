import functools

import numpy as np
from numpy.testing import assert_allclose, assert_array_equal
import pytest

from curv4 import metrics
from curv4 import curvature
from curv4.curvature import (
    condition_check, curvature_batch, curvature_from_arrays,
    kaehler_form, kaehler_residuals, kaehler_scalar_curvature,
    positivity_eps_max, psd_tolerance, sectional_extremes,
)
from curv4.errors import (
    ChartDomainError, MetricConstructionError, SpecParseError,
)
from curv4.jets import (Jet, array, grad_array, hess_array, partial, seedn,
                        value)
from curv4.metrics import (
    QuadSpec, flat_space, fubini_study, ht_metric,
    parse_metric_spec, parse_spec, product_spheres, round_sphere4,
    twisted_eps_max, twisted_metric, volume,
)
from oracles import comps_jets, comps_ring, transition, twisted_parts

RNG = np.random.default_rng(42)


def builtin_fields():
    return [flat_space(), round_sphere4(1.0), product_spheres(1.0, 1.0),
            ht_metric(0.7), twisted_metric(0.3, 0.01), fubini_study()]


# ---------------------------------------------------------------- derivatives

def fd_deriv1(m, chart, p, h):
    out = np.zeros((4, 4, 4))
    for k in range(4):
        pp, pm = p.copy(), p.copy()
        pp[k] += h
        pm[k] -= h
        out[k] = (m.eval(chart, pp) - m.eval(chart, pm)) / (2 * h)
    return out


def fd_deriv2(m, chart, p, h):
    out = np.zeros((4, 4, 4, 4))
    for l in range(4):
        pp, pm = p.copy(), p.copy()
        pp[l] += h
        pm[l] -= h
        out[l] = (fd_deriv1(m, chart, pp, h) - fd_deriv1(m, chart, pm, h)) / (2 * h)
    return out


@pytest.mark.parametrize("m", builtin_fields(), ids=lambda m: m.name)
def test_derivatives_match_central_differences(m):
    # O(h^2) truncation: the error must fall by ~100 from h=1e-4 to h=1e-5
    rng = np.random.default_rng(7)
    for chart, pts in m.sample_points(rng, 2):
        for p in pts:
            g, dg, d2g = m.jets(chart, p)
            assert_allclose(g, m.eval(chart, p), atol=1e-14)
            scale = max(1.0, np.abs(dg).max())
            e1 = np.abs(dg - fd_deriv1(m, chart, p, 1e-4)).max() / scale
            e2 = np.abs(dg - fd_deriv1(m, chart, p, 1e-5)).max() / scale
            assert e1 < 5e-7
            assert e2 < 5e-9 or e1 / max(e2, 1e-16) > 20
            s2 = max(1.0, np.abs(d2g).max())
            err2 = np.abs(d2g - fd_deriv2(m, chart, p, 1e-4)).max() / s2
            assert err2 < 1e-5


@pytest.mark.parametrize("m", builtin_fields()[1:], ids=lambda m: m.name)
def test_chart_overlap_consistency(m):
    # pull back the metric through every declared transition at random
    # overlap points; agreement to 1e-8
    rng = np.random.default_rng(11)
    for src in m.chart_order:
        chart = m.charts[src]
        for dst, fmap in chart.transitions.items():
            # overlap annulus 0.5 < |z| < 2 on the flipped coordinates
            n = 100
            pts = chart.sample(rng, n)
            if m.name in ("round4",):
                r = rng.uniform(0.6, 1.9, n)
                pts = pts / np.linalg.norm(pts, axis=1)[:, None] * r[:, None]
            else:
                for pair in ((0, 1), (2, 3)):
                    r = rng.uniform(0.6, 1.9, n)
                    cur = np.hypot(pts[:, pair[0]], pts[:, pair[1]])
                    for i in pair:
                        pts[:, i] *= r / cur
            x = [pts[:, i] for i in range(4)]
            ximg = fmap(seedn(x, 1))
            img = np.stack([value(c) for c in ximg], axis=-1)
            Jac = np.empty((n, 4, 4))
            for i in range(4):
                for k in range(4):
                    d = ximg[i].d[k]
                    Jac[:, i, k] = value(d) * np.ones(n)
            g_src = m.eval(src, pts)
            g_dst = m.eval(dst, img)
            pulled = np.einsum("nij,nik,njl->nkl", g_dst, Jac, Jac)
            assert np.abs(pulled - g_src).max() < 1e-8


def test_transition_involution():
    m = product_spheres(1.0, 2.0)
    rng = np.random.default_rng(3)
    pts = m.charts["aa"].sample(rng, 20) + np.array([0.5, 0, 0.5, 0])
    there = transition(m, "aa", "ba", pts)
    back = transition(m, "ba", "aa", there)
    assert_allclose(back, pts, atol=1e-12)


# ---------------------------------------------------------------- round S4

def test_round_sphere_values():
    m = round_sphere4(1.0)
    assert m.eval("n", np.zeros(4))[0, 0] == 4.0
    with pytest.raises(MetricConstructionError):
        round_sphere4(-1.0)


def test_round_sphere_volume():
    v = volume(round_sphere4(1.0), QuadSpec(48))
    assert abs(v - 8 * np.pi ** 2 / 3) / (8 * np.pi ** 2 / 3) < 1e-3


# ---------------------------------------------------------------- products

def test_product_volume():
    v = volume(product_spheres(1.0, 2.0), QuadSpec(48))
    expect = (4 * np.pi) * (16 * np.pi)
    assert abs(v - expect) / expect < 1e-3


def test_ht_family_parameters():
    with pytest.raises(MetricConstructionError):
        ht_metric(1.5)
    m0 = ht_metric(0.0)
    mp = product_spheres(1.0, 1.0)
    rng = np.random.default_rng(5)
    for chart, pts in m0.sample_points(rng, 10):
        assert_allclose(m0.eval(chart, pts), mp.eval(chart, pts), atol=1e-15)


def test_ht_volume_constant_16pi2():
    for t in (0.0, 0.5, 1.0):
        v = volume(ht_metric(t), QuadSpec(48))
        assert abs(v - 16 * np.pi ** 2) / (16 * np.pi ** 2) < 1e-3


# ---------------------------------------------------------------- twisted

def test_twisted_eps0_equals_ht():
    mt = twisted_metric(0.4, 0.0)
    mh = ht_metric(0.4)
    rng = np.random.default_rng(9)
    for chart, pts in mt.sample_points(rng, 250):
        assert np.abs(mt.eval(chart, pts) - mh.eval(chart, pts)).max() < 1e-10


def test_twisted_volume_16pi2():
    emax = twisted_eps_max(0.5)
    m = twisted_metric(0.5, emax / 2)
    v = volume(m, QuadSpec(48))
    assert abs(v - 16 * np.pi ** 2) / (16 * np.pi ** 2) < 1e-3


def test_twisted_rejects_large_eps():
    emax = twisted_eps_max(0.2)
    assert emax > 0
    with pytest.raises(MetricConstructionError):
        twisted_metric(0.2, 2.0 * emax)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_twisted_advertised_range_constructs(t):
    emax = twisted_eps_max(t)
    for sign in (1.0, -1.0):
        twisted_metric(t, sign * 0.999 * emax)
    with pytest.raises(MetricConstructionError):
        twisted_metric(t, 1.001 * emax)


def hessian_metric(potential, chart, x):
    """Oracle for metrics.toric_metric: g = 2 Re(ddbar Phi) from the full
    4x4 Hessian of a potential of x, taken with two nested dual layers
    seeded on the incoming coordinates (any scalar ring)."""
    F = potential(chart, seedn(x, 2))
    H = [[partial(partial(F, a), b) for b in range(4)] for a in range(4)]
    g = [[0.0] * 4 for _ in range(4)]
    for a in range(2):
        for b in range(2):
            xa, ya = 2 * a, 2 * a + 1
            xb, yb = 2 * b, 2 * b + 1
            P = H[xa][xb] + H[ya][yb]
            Q = H[xa][yb] - H[ya][xb]
            g[xa][xb] = 0.5 * P
            g[ya][yb] = 0.5 * P
            g[xa][yb] = 0.5 * Q
            g[yb][xa] = 0.5 * Q
            g[ya][xb] = -0.5 * Q
            g[xb][ya] = -0.5 * Q
    return g


def _in_x(pot):
    """A potential of s = (|z1|^2, |z2|^2) as a potential of x."""
    return lambda ch, x: pot(ch, [x[0] * x[0] + x[1] * x[1],
                                  x[2] * x[2] + x[3] * x[3]])


def _twisted_validation_parts(t, grid_n, phi=metrics._phi_height_product):
    """(h_t, 2 Re ddbar phi) per chart on chart.grid(grid_n) + chart.grid(5)."""
    base = ht_metric(t)
    out = []
    for name, chart in base.charts.items():
        pts = np.concatenate([chart.grid(grid_n), chart.grid(5)])
        rows = hessian_metric(_in_x(phi), name,
                              [pts[:, i] for i in range(4)])
        P = np.empty((len(pts), 4, 4))
        for i in range(4):
            for j in range(4):
                P[:, i, j] = np.asarray(rows[i][j], dtype=float) * np.ones(len(pts))
        out.append((base.eval(name, pts), P))
    return out


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_twisted_eps_max_matches_cholesky_bisection(t):
    grid_n = 4
    emax = twisted_eps_max(t, grid_n=grid_n)
    parts = _twisted_validation_parts(t, grid_n)
    floor = 1e-3 * min(np.linalg.eigvalsh(G)[:, 0].min() for G, _ in parts)
    shifted = [(G - floor * np.eye(4), P) for G, P in parts]

    def above_floor(eps):
        try:
            for S, P in shifted:
                np.linalg.cholesky(S + eps * P)
        except np.linalg.LinAlgError:
            return False
        return True

    def bisect(sign):
        lo, hi = 0.0, 1.0
        while above_floor(sign * hi):
            lo, hi = hi, 2.0 * hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if above_floor(sign * mid):
                lo = mid
            else:
                hi = mid
        return lo

    oracle = min(bisect(1.0), bisect(-1.0))
    assert abs(emax - oracle) <= 1e-8 * oracle
    # the bound is attained: g - floor I is singular at some point
    tight = min(np.linalg.eigvalsh(S + sign * emax * P)[:, 0].min()
                for S, P in shifted for sign in (1.0, -1.0))
    scale = max(np.linalg.eigvalsh(G)[:, -1].max() for G, _ in parts)
    assert abs(tight) <= 1e-9 * scale


def _cross_potential(name, s):
    """A test potential whose ddbar is dominated by the z1-z2 cross terms,
    with real and imaginary parts, and whose bound is set by a negative
    eigenvalue; the built-in perturbation is decided on the diagonal and
    by a positive one."""
    return -(s[0] * s[1]) / (1.0 + s[0] + s[1])


@pytest.fixture
def perturbation(request, monkeypatch):
    """The twisted family's phi: the built-in one, or the cross potential
    patched in; the bounds cached meanwhile are dropped on both sides."""
    metrics._eps_max.cache_clear()
    request.addfinalizer(metrics._eps_max.cache_clear)
    if request.param == "cross":
        monkeypatch.setattr(metrics, "_phi_height_product", _cross_potential)
        monkeypatch.setattr(metrics, "_phi_coeffs",
                            metrics.toric_metric(_cross_potential))
    return request.param


@pytest.mark.parametrize("perturbation", ["height-product", "cross"],
                         indirect=True)
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_twisted_eps_max_matches_whitened_eigvalsh(t, perturbation):
    # the 4x4 path the closed-form pencil replaced: whiten by the Cholesky
    # factor of G - floor I and take the spectrum of L^-1 P L^-T
    grid_n = 8
    parts = _twisted_validation_parts(t, grid_n, metrics._phi_height_product)
    floor = 1e-3 * min(np.linalg.eigvalsh(G)[:, 0].min() for G, _ in parts)
    mu, P_mu = 0.0, None     # the binding eigenvalue, P at its point
    for G, P in parts:
        Linv = np.linalg.inv(np.linalg.cholesky(G - floor * np.eye(4)))
        M = Linv @ P @ np.swapaxes(Linv, -1, -2)
        w = np.linalg.eigvalsh(M)
        n, k = np.unravel_index(np.abs(w).argmax(), w.shape)
        if abs(w[n, k]) > abs(mu):
            mu, P_mu = w[n, k], P[n]
    oracle = 1.0 / abs(mu)
    got = twisted_eps_max(t, grid_n=grid_n)
    assert abs(got - oracle) <= 1e-13 * oracle
    if perturbation == "cross":
        # the fixture's claims: the bound is set by a negative eigenvalue,
        # at a point where the cross term q of P outweighs p and r
        assert mu < 0
        q = np.hypot(P_mu[0, 2], P_mu[0, 3])
        assert q > max(abs(P_mu[0, 0]), abs(P_mu[2, 2]))


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_twisted_parts_are_j_invariant(t):
    # the structure the closed-form eps bound relies on: J S J^T = S for
    # both h_t and 2 Re ddbar phi at every validation point
    J = np.array([[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]])
    for G, P in _twisted_validation_parts(t, 16):
        for S in (G, P):
            assert np.abs(J @ S @ J.T - S).max() <= 1e-15 * np.abs(S).max()
        # and h_t is diagonal, conformal on each factor
        assert_array_equal(G, G * np.eye(4))


@pytest.mark.parametrize("make", [
    lambda: twisted_metric(0.3, 0.008),
    fubini_study,
    lambda: twisted_metric(0.0, -0.9 * twisted_eps_max(0.0)),
    lambda: twisted_metric(1.0, 0.9 * twisted_eps_max(1.0)),
    lambda: product_spheres(1.0, 1.0),
    lambda: product_spheres(0.7, 1.3),
    lambda: ht_metric(0.5),
], ids=["twisted-0.3", "fubini-study", "twisted-0-neg", "twisted-1-pos",
        "product-1-1", "product-0.7-1.3", "ht-0.5"])
def test_twisted_is_potential_hessian_of_full_potential(make):
    # every Kahler built-in's closed-form coefficients equal the
    # nested-dual Hessian metric of its declared potential, in values and
    # in exact first and second derivatives
    m = make()
    oracle = functools.partial(hessian_metric, _in_x(m.kaehler))
    rng = np.random.default_rng(13)
    for chart, pts in m.sample_points(rng, 5):
        x = [pts[:, i] for i in range(4)]
        rows = hessian_metric(_in_x(m.kaehler), chart, x)
        direct = m.eval(chart, pts)
        for i in range(4):
            for j in range(4):
                assert_allclose(np.asarray(rows[i][j], dtype=float) * np.ones(len(pts)),
                                direct[:, i, j], atol=1e-11)
        for got, want in zip(m.jets(chart, pts),
                             comps_jets(oracle, chart, pts)):
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_perturbation_closed_form_is_toric_metric_of_phi():
    # the perturbation's coefficients equal the toric rule on phi, in values
    # and in the first and second derivatives in s, on all four charts
    pert = twisted_parts(0.5)[1]
    oracle = metrics.toric_metric(metrics._phi_height_product)
    rng = np.random.default_rng(3)
    s = list(rng.uniform(0.0, 1.3, size=(2, 50)))
    for chart in pert.chart_order:
        got = pert.coeffs(chart, seedn(s, 2))
        want = oracle(chart, seedn(s, 2))
        for g, w in zip(got, want):
            for read in (lambda e: array(e, (50,)),
                         lambda e: grad_array(e, (50,), 2),
                         lambda e: hess_array(e, (50,), 2)):
                a, b = read(g), read(w)
                assert np.abs(a - b).max() <= 1e-14 * max(1.0, np.abs(b).max())


def _kaehler_cases():
    fields = [product_spheres(1.0, 1.0), ht_metric(0.5),
              twisted_metric(0.5, 0.05),
              twisted_metric(0.0, 0.9 * twisted_eps_max(0.0)),
              twisted_metric(0.0, -0.9 * twisted_eps_max(0.0)), fubini_study()]
    return [pytest.param(m, chart, id="%s-%s-%s" % (
                m.name, m.params.get("eps", ""), chart))
            for m in fields for chart in m.chart_order]


@pytest.mark.parametrize("m, chart", _kaehler_cases())
def test_ricci_potential_scalar_curvature_matches_curvature_record(m, chart):
    # s from -log det_C through the toric rule equals the trace of the
    # Riemann tensor of the metric jets, on the orbit points of grid(5)
    # and at random points
    c = m.charts[chart]
    pts = np.concatenate([c.orbit_grid(5)[0],
                          c.sample(np.random.default_rng(29), 40)])
    got, det = kaehler_scalar_curvature(m.coeffs, chart, pts)
    data = curvature_batch(m, chart, pts)
    want = data["s"]
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    assert_allclose(det * det, np.linalg.det(data["g"]), rtol=1e-13)


def _oracle_cases():
    # every chart of the six built-ins and of the twisted family's
    # perturbation, which is not a metric but goes through the same jets
    fields = builtin_fields() + [twisted_parts(0.5)[1]]
    return [pytest.param(m, chart, id=m.name + "-" + chart)
            for m in fields for chart in m.chart_order]


@pytest.mark.parametrize("m, chart", _oracle_cases())
def test_jets_equal_nested_duals_over_x(m, chart):
    # the chain rule through s against nested duals seeded on x, on the
    # orbit representatives (where x_a = y_a, so Im zbar_1 z_2 = 0) and on
    # random points, where the Im terms of g are not zero
    c = m.charts[chart]
    rng = np.random.default_rng(len(chart) + ord(chart[-1]))
    batches = [c.orbit_grid(n)[0] for n in (3, 5, 16)] + [c.sample(rng, 40)]
    for pts in batches:
        got = m.jets(chart, pts)
        for a, b in zip(got, comps_jets(functools.partial(comps_ring, m),
                                        chart, pts)):
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-14 * max(1.0, np.abs(b).max())
    # the random points do carry the Im terms
    x = batches[-1]
    assert np.abs(x[:, 0] * x[:, 3] - x[:, 1] * x[:, 2]).min() > 0.0


_FOREIGN_CALLS = {
    "eval": lambda m, c, p: m.eval(c, p),
    "jets": lambda m, c, p: m.jets(c, p),
    "kaehler_form": lambda m, c, p: kaehler_form(m)(c, p),
    "require_inside": lambda m, c, p: m.require_inside(c, p),
    "riemann_at": lambda m, c, p: curvature.riemann_at(m, c, p),
}


# flat space has no Kahler form, so it skips that call
@pytest.mark.parametrize("make, name, call", [
    pytest.param(make, name, call, id="%s-%s" % (mid, cid))
    for make, name, mid in ((lambda: twisted_metric(0.5, 0.05), "zz",
                             "twisted-zz"),
                            (fubini_study, "aa", "fubini-study-aa"),
                            (flat_space, "n", "flat-n"))
    for cid, call in _FOREIGN_CALLS.items()
    if (mid, cid) != ("flat-n", "kaehler_form")])
def test_foreign_chart_name_is_a_chart_domain_error(make, name, call):
    # a name the atlas does not have never falls through to another chart
    # ('zz' is no product chart, though the potentials read only its
    # letters), nor to a KeyError ('aa' and 'n' belong to other atlases)
    m = make()
    with pytest.raises(ChartDomainError, match="does not have chart %r" % name):
        call(m, name, np.array([0.1, 0.2, 0.3, 0.4]))


# ---------------------------------------------------------------- Kahler

def test_kaehler_residuals_builtins():
    for m in (product_spheres(1.0, 1.0), fubini_study(), twisted_metric(0.6, 0.005)):
        res = kaehler_residuals(m)
        assert res["j_squared"] < 1e-12
        assert res["compatibility"] < 1e-10
        assert res["nabla_j"] < 1e-6


def test_kaehler_residuals_requires_structure():
    with pytest.raises(MetricConstructionError):
        kaehler_residuals(round_sphere4(1.0))


def test_fubini_study_volume():
    # lines have area pi at this normalization, so vol = pi^2/2
    v = volume(fubini_study(), QuadSpec(48))
    assert abs(v - np.pi ** 2 / 2) / (np.pi ** 2 / 2) < 1e-3


# ---------------------------------------------------------------- quadrature

def test_volume_stable_under_doubling():
    for m in (round_sphere4(1.0), product_spheres(1.0, 1.0), ht_metric(0.8),
              twisted_metric(0.4, 0.01), fubini_study()):
        v1 = volume(m, QuadSpec(48))
        v2 = volume(m, QuadSpec(96))
        assert abs(v1 - v2) / abs(v2) < 1e-3


@pytest.mark.parametrize("n", [8, 9, 16, 32])
def test_volume_is_exact_at_every_quad(n):
    # exact values: Duistermaat-Heckman gives (2 pi)^2 times the area of the
    # moment polygon, which the eps-twist of S^2 x S^2 leaves at 16 pi^2
    quad = QuadSpec(n)
    cases = [(fubini_study(), np.pi ** 2 / 2),
             (round_sphere4(1.0), 8 * np.pi ** 2 / 3)]
    for t in (0.0, 0.5, 1.0):
        e = twisted_eps_max(t)
        cases += [(twisted_metric(t, eps), 16 * np.pi ** 2)
                  for eps in (-e / 2, 0.0, e / 2)]
    for m, exact in cases:
        assert abs(volume(m, quad) - exact) / exact < 1e-12, (m.name, m.params)


def test_volume_estimate_halves_the_node_count():
    m = fubini_study()
    v, err = metrics.volume_estimate(m, QuadSpec(32))
    assert (v, err) == (volume(m, QuadSpec(32)),
                        abs(v - volume(m, QuadSpec(16))))
    # the halved rule may fall below QuadSpec.MIN_N
    assert 1e-5 < metrics.volume_estimate(m, QuadSpec(9))[1] < 1e-3


# every entry of METRICS, with the parameters its builder needs
T2_SPECS = {"ht": "ht(t=0.6)", "twisted": "twisted(t=0.5,eps=0.05)"}


def _t2_rotated(pts, th):
    """pts with z_a -> e^{i th_a} z_a, one angle pair per point."""
    out = pts.copy()
    for a in (0, 2):
        c, s = np.cos(th[:, a // 2]), np.sin(th[:, a // 2])
        out[:, a] = c * pts[:, a] - s * pts[:, a + 1]
        out[:, a + 1] = s * pts[:, a] + c * pts[:, a + 1]
    return out


@pytest.mark.parametrize("name", sorted(metrics.METRICS))
def test_builtin_is_t2_invariant(name):
    # the precondition of the orbit volume rule: the T^2 rotations are
    # isometries in every chart, so the invariants agree at rotated copies
    m = parse_metric_spec(T2_SPECS.get(name, name))
    rng = np.random.default_rng(23)
    for chart, pts in m.sample_points(rng, 20):
        th = rng.uniform(0.0, 2 * np.pi, size=(len(pts), 2))
        want, got = [
            (np.linalg.det(d["g"]), d["s"], np.linalg.eigvalsh(d["R_op"]),
             np.linalg.eigvalsh(d["wplus"]))
            for d in (curvature_batch(m, chart, p)
                      for p in (pts, _t2_rotated(pts, th)))]
        # curvature is relative to the largest |eigenvalue| of R_op, since
        # W+ vanishes on round4
        scale = np.abs(want[2]).max()
        for a, b, ref in zip(want, got, (np.abs(want[0]).max(), scale,
                                         scale, scale)):
            assert_allclose(b, a, rtol=0, atol=1e-12 * ref)


# ---------------------------------------------------------------- orbit scans

def _radii2(pts):
    return np.stack([pts[:, 0] ** 2 + pts[:, 1] ** 2,
                     pts[:, 2] ** 2 + pts[:, 3] ** 2], axis=-1)


# representatives per chart by (n, sample-box half-width).  The grid axis
# is mirrored, so x^2 takes k = ceil(n / 2) values and a grid meets at most
# (k (k + 1) / 2)^2 orbits: 9 at n = 3, 4, 36 at n = 5, 6 and 36^2 at
# n = 16.  Sums of two squares can coincide (1 + 49 = 25 + 25 in units of
# the grid step), and the orbits are deduplicated on exact float values, so
# grid(16) on the unit box, where two such pairs stay equal, meets 34^2
ORBIT_COUNTS = {(3, 1.1): 9, (3, 1.0): 9, (4, 1.1): 9, (4, 1.0): 9,
                (5, 1.1): 36, (5, 1.0): 36, (6, 1.1): 36, (6, 1.0): 36,
                (16, 1.1): 36 ** 2, (16, 1.0): 34 ** 2}


@pytest.mark.parametrize("name", sorted(metrics.METRICS))
def test_orbit_grid_covers_the_grid(name):
    m = parse_metric_spec(T2_SPECS.get(name, name))
    for chart in m.charts.values():
        for n in (3, 4, 5, 6, 16):
            reps, index = chart.orbit_grid(n)
            assert index.shape == (n ** 4,)
            assert_array_equal(np.unique(index), np.arange(len(reps)))
            # every grid point lies on the orbit of its representative
            assert_allclose(_radii2(reps)[index], _radii2(chart.grid(n)),
                            rtol=1e-15, atol=0)
            assert chart.contains(reps).all()
            assert len(reps) == ORBIT_COUNTS[n, chart.sample_box]


def test_orbit_grid_representatives_are_shared_and_read_only():
    # charts of the same sample box share one memoized set of
    # representatives, even across metrics rebuilt per cell, so no caller
    # may write into it
    charts = [m.charts[name] for m in (twisted_metric(0.5, 0.05),
                                       twisted_metric(0.5, 0.05))
              for name in m.chart_order]
    reps = [c.orbit_grid(5)[0] for c in charts]
    assert all(r is reps[0] for r in reps)
    with pytest.raises(ValueError):
        reps[0][0] = 0.0


def _full_grid_condition_check(m, grid_n):
    """The margins, worst points and point count of the scan
    condition_check replaced: every grid point evaluated."""
    I3 = np.eye(3)
    smax, gap, total = 0.0, -np.inf, 0
    records = []
    for chart in m.chart_order:
        pts = m.charts[chart].grid(grid_n)
        data = curvature_batch(m, chart, pts)
        s = data["s"][:, None, None]
        out = {
            "s6_minus_wplus": np.linalg.eigvalsh(s / 6 * I3 - data["wplus"])[:, 0],
            "s6_minus_wminus": np.linalg.eigvalsh(s / 6 * I3 - data["wminus"])[:, 0],
            "s12_plus_wplus": np.linalg.eigvalsh(s / 12 * I3 + data["wplus"])[:, 0],
            "s12_plus_wminus": np.linalg.eigvalsh(s / 12 * I3 + data["wminus"])[:, 0],
            "curvature_operator": np.linalg.eigvalsh(data["R_op"])[:, 0],
        }
        vals, _, bound = sectional_extremes(data["M6"])
        out["min_sectional"] = vals
        gap = max(gap, float((vals - bound).max()))
        smax = max(smax, float(np.abs(data["s"]).max()))
        total += len(pts)
        records.append((chart, pts, out))
    tol = psd_tolerance(smax)
    mins, worst = {}, {}
    for key in records[0][2]:
        mins[key] = min(float(out[key].min()) for _, _, out in records)
        near = [(chart, pts[out[key] <= mins[key] + tol])
                for chart, pts, out in records]
        chart, pts = next((c, p) for c, p in near if len(p))
        worst[key] = {"chart": chart, "point": pts[0].tolist(),
                      "ties": sum(len(p) for _, p in near)}
    return {"npoints": total, "margins": mins, "worst_point": worst}


@pytest.mark.parametrize("spec, grid_n", [
    (name, 3) for name in sorted(metrics.METRICS)] + [
    ("twisted(t=0.5,eps=0.05)", 5)])
def test_condition_check_matches_full_grid(spec, grid_n):
    m = parse_metric_spec(T2_SPECS.get(spec, spec))
    got = condition_check(m, grid_n=grid_n)[0]
    want = _full_grid_condition_check(m, grid_n)
    for key, v in want["margins"].items():
        assert abs(got["margins"][key] - v) <= 1e-13, key
    assert got["worst_point"] == want["worst_point"]
    assert got["npoints"] == want["npoints"] == len(m.charts) * grid_n ** 4


def test_condition_check_evaluates_one_point_per_orbit(monkeypatch):
    seen = []

    def counting(m, chart, pts):
        seen.append((chart, len(pts)))
        return curvature_batch(m, chart, pts)

    monkeypatch.setattr(curvature, "curvature_batch", counting)
    m = twisted_metric(0.5, 0.05)
    conditions, records = condition_check(m, grid_n=5)
    assert seen == [(chart, 36) for chart in m.chart_order]
    assert conditions["npoints"] == 4 * 5 ** 4
    # the margins come back scattered to every grid point, in grid order
    assert [c for c, _ in records] == m.chart_order
    for _, out in records:
        assert set(out) == set(conditions["margins"])
        assert all(v.shape == (5 ** 4,) for v in out.values())


def _full_grid_eps_max(t, grid_n=16):
    """The eps bound on every point of chart.grid(grid_n) + chart.grid(5)."""
    base, pert = twisted_parts(t)
    points = [(name, np.concatenate([chart.grid(grid_n), chart.grid(5)]))
              for name, chart in base.charts.items()]
    diag = [base.eval(name, pts)[:, [0, 2], [0, 2]] for name, pts in points]
    floor = 1e-3 * min(float(d.min()) for d in diag)
    mu = 0.0
    for d, (name, pts) in zip(diag, points):
        a, c = (d - floor).T
        p, r, qr, qi = pert.eval(name, pts)[:, [0, 2, 0, 0], [0, 2, 2, 3]].T
        A, B, C = a * c, p * c + r * a, p * r - qr * qr - qi * qi
        root = np.sqrt(np.maximum(B * B - 4.0 * A * C, 0.0))
        mu = max(mu, float(np.max((np.abs(B) + root) / (2.0 * A))))
    return 1.0 / mu


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_twisted_eps_max_matches_full_grid(t):
    assert twisted_eps_max(t) == _full_grid_eps_max(t)


def _full_grid_positivity_eps_max(t, grid_n=5):
    """The bisection positivity_eps_max replaced, with the jets taken at
    every grid point: the lower end after 24 bisections of [0, 0.95 eps_max]
    on min eig(s/6 - W+) >= -1e-6."""
    tol, steps = 1e-6, 24
    pd_max = _full_grid_eps_max(t)
    base, pert = twisted_parts(t)
    parts = []
    for chart in base.chart_order:
        pts = base.charts[chart].grid(grid_n)
        parts.append((base.jets(chart, pts), pert.jets(chart, pts)))

    def margin(eps):
        worst = np.inf
        for (g0, dg0, d2g0), (g1, dg1, d2g1) in parts:
            g = g0 + eps * g1
            if np.linalg.eigvalsh(g)[:, 0].min() <= 1e-10:
                return -np.inf
            data = curvature_from_arrays(g, dg0 + eps * dg1, d2g0 + eps * d2g1)
            s = data["s"][:, None, None]
            w = np.linalg.eigvalsh(s / 6 * np.eye(3) - data["wplus"])[:, 0]
            worst = min(worst, float(w.min()))
        return worst

    hi = 0.95 * pd_max
    if margin(hi) >= -tol:
        return hi
    lo = 0.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if margin(mid) >= -tol:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("t", [0.3, 0.8])
def test_positivity_eps_max_matches_full_grid(t):
    # the bisection tolerated a margin of -1e-6, so it ends beyond the root,
    # by less than one step plus that slack
    gap = _full_grid_positivity_eps_max(t) - positivity_eps_max(t)
    assert 0.0 < gap <= 5e-7


def _full_grid_s6_minus_wplus(t, eps, grid_n=5):
    """(min eig(s/6 - W+), max |s|) over chart.grid(grid_n) of every chart."""
    m = twisted_metric(t, eps)
    margin, smax = np.inf, 0.0
    for chart in m.chart_order:
        data = curvature_batch(m, chart, m.charts[chart].grid(grid_n))
        s = data["s"][:, None, None]
        w = np.linalg.eigvalsh(s / 6 * np.eye(3) - data["wplus"])[:, 0]
        margin = min(margin, float(w.min()))
        smax = max(smax, float(np.abs(data["s"]).max()))
    return margin, smax


@pytest.mark.parametrize("t", [0.0, 0.3, 0.8])
def test_positivity_eps_max_is_the_threshold_on_the_full_grid(t):
    # on every grid point, not only the orbit representatives: s/6 - W+ is
    # PSD at the returned eps and fails just above it
    eps = positivity_eps_max(t)
    assert _full_grid_s6_minus_wplus(t, eps)[0] >= -1e-12
    margin, smax = _full_grid_s6_minus_wplus(t, eps * (1.0 + 1e-8))
    assert margin < -psd_tolerance(smax)


def test_positivity_eps_max_at_t0_is_four_fifths():
    # at t = 0 the scalar curvature at the centre of the 'bb' chart is
    # 4 (4 - 5 eps) / (2 - eps)^2, which changes sign at eps = 4/5
    assert abs(positivity_eps_max(0.0) - 0.8) <= 1e-12


def test_positivity_eps_max_reads_the_coefficients_once_per_chart(
        monkeypatch):
    # no metric jet and no curvature record: per chart, one read of the
    # family's coefficients on seeded s at the 36 orbit representatives of
    # grid(5), with the six eps nodes in a leading axis
    def forbidden(*args, **kwargs):
        raise AssertionError("positivity_eps_max formed a jet or a record")

    seen = []

    def family(t, eps):
        coeffs = metrics.twisted_coeffs(t, eps)

        def counting(chart, s):
            seen.append((chart, np.shape(value(s[0])), np.shape(eps)))
            assert isinstance(s[0], Jet)
            return coeffs(chart, s)
        return counting

    twisted_eps_max(0.5)
    monkeypatch.setattr(curvature, "curvature_from_arrays", forbidden)
    monkeypatch.setattr(metrics.MetricField, "jets", forbidden)
    monkeypatch.setattr(curvature, "twisted_coeffs", family)
    positivity_eps_max(0.5, grid_n=5)
    assert seen == [(chart, (36,), (6, 1))
                    for chart in ("aa", "ab", "ba", "bb")]


def test_metric_that_is_not_positive_definite_is_rejected():
    # indefinite only through the cross coefficient f12: g has the
    # eigenvalues 1 +- 10 |z1| |z2|, negative away from the chart axes
    with pytest.raises(MetricConstructionError,
                       match=r"metric not positive definite on chart 'aa' "
                             r"\(min eigenvalue -\d"):
        metrics.MetricField("indefinite", metrics._product_charts(),
                            lambda chart, s: (1.0, 1.0, 10.0))


def test_quadspec_minimum():
    with pytest.raises(ValueError):
        QuadSpec(4)


# ---------------------------------------------------------------- grammar

def test_parse_metric_spec():
    assert parse_metric_spec("round4(r=2)").params["r"] == 2.0
    assert parse_metric_spec("product(a=1,b=1)").name == "product"
    assert parse_metric_spec("fubini-study").name == "fubini-study"
    m = parse_metric_spec("twisted(t=0.5,eps=0.001)")
    assert m.params["eps"] == 0.001
    for bad in ("nope", "round4(r=x)", "ht()", "round4(r=1",
                "twisted(t=0.5,eps=0.001,phi=height-product)"):
        with pytest.raises(SpecParseError):
            parse_metric_spec(bad)


def _picky(c=1.0):
    if c == 3.0:
        raise ValueError("c must not be 3")
    return c


def test_parse_spec_grammar():
    # keys are the constructor's parameters, values numbers or pairs
    builders = {"pair": lambda point=(0.0, 0.0), c=1.0: (point, c),
                "needs": lambda t: t, "picky": _picky}
    assert parse_spec("pair", builders) == ((0.0, 0.0), 1.0)
    assert parse_spec(" pair( point = (1, -2e-1) , c=3 ) ", builders) \
        == ((1.0, -0.2), 3.0)
    assert parse_spec("needs(t=-0.5)", builders) == -0.5
    assert parse_spec("picky(c=2)", builders) == 2.0
    for bad in ("pair(c=(1,2))", "pair(point=1)", "pair(point=(1,2,3))",
                "pair(c=1,c=2)", "pair(c=1,)", "pair(d=1)", "needs",
                "needs()", "pair(c)", "pair(c=1", "other", "pair(c=1)x",
                "picky(c=3)"):
        with pytest.raises(SpecParseError):
            parse_spec(bad, builders)
