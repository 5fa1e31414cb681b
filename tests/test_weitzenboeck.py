import numpy as np
import pytest

from curv4 import cli
from curv4.curvature import curvature_batch, kaehler_form, weitzenboeck_residual
from curv4.metrics import (
    flat_space, fubini_study, ht_metric, product_spheres, round_sphere4,
    twisted_metric,
)
from oracles import comps_jets, kaehler_comps, ring_form


def constant_form(chart, x):
    """dx1^dx2."""
    out = [[0.0] * 4 for _ in range(4)]
    out[0][1] = 1.0 + 0.0 * x[0]
    out[1][0] = -1.0 + 0.0 * x[0]
    return out


def polynomial_form(coeffs):
    """Random 2-form with low-order polynomial coefficients."""
    def comps(chart, x):
        out = [[0.0] * 4 for _ in range(4)]
        k = 0
        for i in range(4):
            for j in range(i + 1, 4):
                a = coeffs[k:k + 5]
                val = (a[0] + a[1] * x[0] + a[2] * x[1] * x[3]
                       + a[3] * x[2] * x[2] + a[4] * x[0] * x[1])
                out[i][j] = val
                out[j][i] = -1.0 * val
                k += 5
        return out
    return comps


def _make_forms(rng, n=5):
    forms = [ring_form(constant_form)]
    for _ in range(n - 1):
        forms.append(ring_form(polynomial_form(rng.normal(size=30))))
    return forms


FIELDS = [(flat_space(), "e"), (round_sphere4(1.0), "n"),
          (product_spheres(1.0, 1.0), "aa")]


@pytest.mark.parametrize("m,chart", FIELDS, ids=lambda v: getattr(v, "name", v))
def test_identity_on_random_forms_and_points(m, chart):
    rng = np.random.default_rng(21)
    for alpha in _make_forms(rng):
        res, _ = weitzenboeck_residual(m, alpha, chart,
                                       rng.uniform(-0.8, 0.8, (10, 4)))
        assert res.shape == (10,)
        assert res.max() < 1e-6


@pytest.mark.parametrize("m", [ht_metric(0.6), twisted_metric(0.5, 0.05)],
                         ids=lambda m: m.name)
def test_identity_holds_without_einstein(m):
    # in dimension 4 the traceless-Ricci terms cancel on Lambda^2, so the
    # identity needs no Einstein metric
    rng = np.random.default_rng(25)
    worst, ric0 = 0.0, 0.0
    for chart, pts in m.sample_points(rng, 5):
        for alpha in _make_forms(rng, 3):
            worst = max(worst, weitzenboeck_residual(m, alpha, chart,
                                                     pts)[0].max())
        ric0 = max(ric0, np.abs(curvature_batch(m, chart, pts)["ric0"]).max())
    assert ric0 > 0.01
    assert worst < 1e-6


def test_flat_reduces_to_coordinate_laplacian():
    m = flat_space()
    rng = np.random.default_rng(22)
    alpha = ring_form(polynomial_form(rng.normal(size=30)))
    p = np.array([[0.2, -0.4, 0.1, 0.3]])
    res, parts = weitzenboeck_residual(m, alpha, "e", p)
    assert res[0] < 1e-12
    assert abs(parts["s"][0]) < 1e-12
    assert np.abs(parts["weyl"]).max() < 1e-12
    assert np.abs(parts["hodge"] - parts["rough"]).max() < 1e-12


def test_kaehler_form_is_harmonic_on_product():
    m = product_spheres(1.0, 1.0)
    omega = kaehler_form(m)
    rng = np.random.default_rng(23)
    res, parts = weitzenboeck_residual(m, omega, "aa",
                                       rng.uniform(-0.9, 0.9, (5, 4)))
    assert res.max() < 1e-6
    # the Kahler form is parallel: both Laplacians vanish on it, and the
    # curvature terms cancel because W+ has eigenvalue s/6 on it
    assert np.linalg.norm(parts["hodge"], axis=(-2, -1)).max() < 1e-6
    assert np.linalg.norm(parts["rough"], axis=(-2, -1)).max() < 1e-6


def test_round_sphere_constant_coefficient_form():
    m = round_sphere4(1.0)
    rng = np.random.default_rng(24)
    res, _ = weitzenboeck_residual(m, ring_form(constant_form), "n",
                                   rng.uniform(-0.9, 0.9, (10, 4)))
    assert res.max() < 1e-6


def test_poly_form_matches_nested_duals_of_its_polynomial():
    # the suite's array form against the nested-dual jets of the same
    # ring polynomial, from the same 30 draws
    for seed in (1, 2, 3):
        form = cli._poly_form(np.random.default_rng(seed))
        ring = polynomial_form(np.random.default_rng(seed).normal(size=30))
        pts = np.random.default_rng(seed + 10).uniform(-0.8, 0.8, (7, 4))
        for got, want in zip(form("e", pts), comps_jets(ring, "e", pts)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14


def _kaehler_cases():
    fields = [product_spheres(1.0, 1.0), product_spheres(0.7, 1.3),
              ht_metric(0.6), twisted_metric(0.5, 0.05), fubini_study()]
    return [pytest.param(m, chart, id="%s-%s" % (m.name, chart))
            for m in fields for chart in m.chart_order]


@pytest.mark.parametrize("m, chart", _kaehler_cases())
def test_kaehler_form_matches_nested_duals(m, chart):
    # J^T applied to the metric jets against J^T g formed over nested
    # duals, on every chart of every Kahler built-in
    pts = m.charts[chart].sample(np.random.default_rng(31), 6)
    for got, want in zip(kaehler_form(m)(chart, pts),
                         comps_jets(kaehler_comps(m), chart, pts)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * max(1.0,
                                                      np.abs(want).max())
