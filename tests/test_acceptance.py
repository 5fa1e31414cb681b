"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import json
import time

import numpy as np
from numpy.testing import assert_allclose
import pytest

from curv4.cli import main as cli_main
from curv4.curvature import (
    block_identity_residual, curvature_batch, lemma21_check,
    positivity_eps_max, riemann_at, sectional_extremes, weitzenboeck_residual,
)
from curv4.metrics import (
    QuadSpec, flat_space, fubini_study, ht_metric, product_spheres,
    round_sphere4, twisted_metric, volume,
)
from curv4.stability import (
    SectionBasis, assemble_index_form, near_holomorphic_section,
    refine_until_stable,
)
from curv4.surfaces import (
    chern_number, cp1_line, equator_sphere, perturbed_slice,
    embedding_family, product_slice, surface_geometry,
    variational_identity_lemma310, weitzenboeck_variation,
    NormalSection, kperp_extrinsic_field,
)
from oracles import (curvature_override, parallel_section, ring_form,
                     second_variation)
from test_curvature import lemma21_rejection_trials

QUAD = QuadSpec(48)
I3 = np.eye(3)


def report(num, text):
    print("criterion %2d PASS: %s" % (num, text))


def sample_everywhere(m, rng, total=200):
    n = int(np.ceil(total / len(m.chart_order)))
    return m.sample_points(rng, n)


def _rand_section(S, rng):
    b = rng.uniform(-0.6, 0.6, size=(4, 4))
    return NormalSection(embedding_family, b[:S.n_directions])


def test_criterion_1_round_sphere():
    t0 = time.time()
    m = round_sphere4(1.0)
    rng = np.random.default_rng(101)
    smax, wmax, kmin, kmax = 0.0, 0.0, np.inf, -np.inf
    for chart, pts in sample_everywhere(m, rng):
        data = curvature_batch(m, chart, pts)
        smax = max(smax, np.abs(data["s"] - 12.0).max())
        wmax = max(wmax, np.abs(data["wplus"]).max(),
                   np.abs(data["wminus"]).max())
        lo, _, _ = sectional_extremes(data["M6"])
        hi, _, _ = sectional_extremes(-data["M6"])
        kmin = min(kmin, lo.min())
        kmax = max(kmax, (-hi).max())
    elapsed = time.time() - t0
    assert smax < 1e-6
    assert wmax < 1e-8
    assert abs(kmin - 1.0) < 1e-6 and abs(kmax - 1.0) < 1e-6
    assert elapsed < 10.0
    report(1, "round S4: |s-12| = %.1e, |W| = %.1e, K in [%.8f, %.8f], %.1fs"
           % (smax, wmax, kmin, kmax, elapsed))


def test_criterion_2_product_spheres():
    m = product_spheres(1.0, 1.0)
    rng = np.random.default_rng(102)
    worst_s, worst_wp, worst_c211, rop_min = 0.0, 0.0, 0.0, np.inf
    ksec = np.inf
    for chart, pts in sample_everywhere(m, rng, total=80):
        data = curvature_batch(m, chart, pts)
        worst_s = max(worst_s, np.abs(data["s"] - 4.0).max())
        lam = np.sort(np.linalg.eigvalsh(data["wplus"]), axis=-1)
        worst_wp = max(worst_wp,
                       np.abs(lam - [-1 / 3, -1 / 3, 2 / 3]).max())
        lam2 = np.sort(np.linalg.eigvalsh(
            data["s"][:, None, None] / 6 * I3 - data["wplus"]), axis=-1)
        worst_c211 = max(worst_c211, np.abs(lam2 - [0.0, 1.0, 1.0]).max())
        rop_min = min(rop_min, np.linalg.eigvalsh(data["R_op"])[:, 0].min())
        lo, _, _ = sectional_extremes(data["M6"])
        ksec = min(ksec, lo.min())
    assert worst_s < 1e-6
    assert worst_wp < 1e-6
    assert worst_c211 < 1e-6
    assert abs(ksec) < 1e-6
    assert rop_min >= -1e-9
    report(2, "S2xS2: |s-4| = %.1e, eig(W+) err %.1e, Cor-2.11 err %.1e, "
              "min K = %.1e, min eig R = %.1e"
           % (worst_s, worst_wp, worst_c211, ksec, rop_min))


def test_criterion_3_fubini_study():
    m = fubini_study()
    rng = np.random.default_rng(103)
    shape_err, einstein = 0.0, 0.0
    for chart, pts in sample_everywhere(m, rng, total=60):
        data = curvature_batch(m, chart, pts)
        s6 = data["s"][:, None] / 6.0
        lam = np.sort(np.linalg.eigvalsh(data["wplus"]), axis=-1) / s6
        shape_err = max(shape_err, np.abs(lam - [-0.5, -0.5, 1.0]).max())
        # frame components: Ric - (s/4) g is the traceless part
        einstein = max(einstein, np.abs(data["ric0"]).max())
    assert shape_err < 1e-6
    assert einstein < 1e-6
    report(3, "CP^2: Weyl shape err = %.1e, Einstein residual = %.1e"
           % (shape_err, einstein))


def builtin_metrics():
    return [flat_space(), round_sphere4(1.0), product_spheres(1.0, 1.0),
            ht_metric(0.7), twisted_metric(0.3, 0.01), fubini_study()]


def test_criterion_4_traces_and_blocks():
    rng = np.random.default_rng(104)
    worst_tr, worst_blk = 0.0, 0.0
    for m in builtin_metrics():
        for chart, pts in sample_everywhere(m, rng):
            data = curvature_batch(m, chart, pts)
            worst_tr = max(worst_tr,
                           np.abs(np.trace(data["wplus"], axis1=-2, axis2=-1)).max(),
                           np.abs(np.trace(data["wminus"], axis1=-2, axis2=-1)).max())
            for i in range(0, len(pts), 37):
                c = riemann_at(m, chart, pts[i])
                worst_blk = max(worst_blk, block_identity_residual(c))
    assert worst_tr < 1e-6
    assert worst_blk < 1e-6
    report(4, "traces |tr W+-| = %.1e, block identity residual = %.1e"
           % (worst_tr, worst_blk))


def test_criterion_5_eigenvalue_implication():
    out = lemma21_rejection_trials(np.random.default_rng(105), trials=100_000)
    assert out["trials"] >= 100_000
    assert out["worst_consequent_margin"] >= -1e-9
    rng = np.random.default_rng(106)
    counter = 0
    for m in builtin_metrics():
        for chart, pts in m.sample_points(rng, 10):
            for p in pts:
                rec = lemma21_check(riemann_at(m, chart, p))
                counter += sum(side["violated"] for side in rec.values())
    assert counter == 0
    report(5, "implication: %d synthetic trials, worst margin %.1e, "
              "0 counterexamples on sampled points"
           % (out["trials"], out["worst_consequent_margin"]))


def test_criterion_6_twisted_family_sweep():
    t0 = time.time()
    vol_err, margin_min = 0.0, np.inf
    target = 16 * np.pi ** 2
    for t in np.round(np.linspace(0.0, 1.0, 11), 10):
        emax = positivity_eps_max(t)
        for eps in (0.0, emax / 2.0):
            m = twisted_metric(t, eps)
            v = volume(m, QUAD)
            vol_err = max(vol_err, abs(v - target) / target)
            for chart in m.chart_order:
                data = curvature_batch(m, chart, m.charts[chart].grid(5))
                w = np.linalg.eigvalsh(
                    data["s"][:, None, None] / 6 * I3 - data["wplus"])[:, 0]
                margin_min = min(margin_min, float(w.min()))
    elapsed = time.time() - t0
    assert vol_err < 1e-3
    assert margin_min >= -1e-6
    assert elapsed < 600.0
    report(6, "twisted family: worst volume error %.2e, min eig(s/6-W+) "
              "= %.1e, sweep %.0fs" % (vol_err, margin_min, elapsed))


def test_criterion_7_weitzenboeck():
    rng = np.random.default_rng(107)

    def poly_form(coeffs):
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

    worst = 0.0
    for m, chart in ((flat_space(), "e"), (round_sphere4(1.0), "n"),
                     (product_spheres(1.0, 1.0), "aa")):
        for _ in range(5):
            alpha = ring_form(poly_form(rng.normal(size=30)))
            pts = rng.uniform(-0.8, 0.8, size=(50, 4))
            worst = max(worst,
                        weitzenboeck_residual(m, alpha, chart, pts)[0].max())
    assert worst < 1e-6
    report(7, "Weitzenboeck 2-form identity: worst residual %.1e" % worst)


SURFS = [("slice", product_slice(), product_spheres(1.0, 1.0), True),
         ("equator", equator_sphere(), round_sphere4(1.0), True),
         ("cp1", cp1_line(), fubini_study(), True),
         ("perturbed", perturbed_slice(0.15), product_spheres(1.0, 1.0), False)]


@pytest.fixture(scope="module")
def geoms():
    """The QUAD geometry of each of SURFS, built once for the module."""
    return {name: surface_geometry(S, m, QUAD) for name, S, m, _ in SURFS}


def test_criterion_8_integral_identities(geoms):
    rng = np.random.default_rng(108)
    worst310, worst318 = 0.0, 0.0
    for name, S, m, minimal in SURFS:
        geom = geoms[name]
        for _ in range(20):
            sig = _rand_section(S, rng)
            worst310 = max(worst310,
                           variational_identity_lemma310(geom, sig)["residual"])
            if minimal:
                worst318 = max(worst318,
                               weitzenboeck_variation(geom, sig)["residual"])
    assert worst310 < 1e-5
    assert worst318 < 1e-4
    report(8, "integral identities: Lemma-3.10 %.1e, averaged-variation %.1e"
           % (worst310, worst318))


def test_criterion_9_kperp_cross_path(geoms):
    worst = 0.0
    for geom in geoms.values():
        for cg in geom.charts:
            worst = max(worst,
                        np.abs(cg.kperp - kperp_extrinsic_field(cg)).max())
    assert worst < 1e-5
    report(9, "K_perp intrinsic vs extrinsic: worst %.1e" % worst)


def test_criterion_10_chern_numbers(geoms):
    vals = {name: chern_number(geoms[name])
            for name in ("slice", "equator", "cp1")}
    assert abs(vals["slice"]) < 1e-3
    assert abs(vals["equator"]) < 1e-3
    assert abs(vals["cp1"] - 1.0) < 1e-3
    report(10, "Chern numbers: slice %.1e, equator %.1e, cp1 1%+.1e"
           % (vals["slice"], vals["equator"], vals["cp1"] - 1.0))


def test_criterion_11_stability(geoms):
    ge = geoms["equator"]
    d2 = second_variation(ge, parallel_section(1.0, 0.0))
    assert abs(d2 + 8 * np.pi) < 1e-3
    out = refine_until_stable(
        lambda L: assemble_index_form(ge, SectionBasis(ge.S, L)),
        L0=2, L_max=10)
    assert out["morse_index"] == 2

    gs = geoms["slice"]
    out_s = refine_until_stable(
        lambda L: assemble_index_form(gs, SectionBasis(gs.S, L)),
        L0=2, L_max=10)
    assert out_s["morse_index"] == 0
    gc = geoms["cp1"]
    out_c = refine_until_stable(
        lambda L: assemble_index_form(gc, SectionBasis(gc.S, L)),
        L0=2, L_max=10)
    assert out_c["morse_index"] == 0

    kappa = 0.8
    fixture = curvature_override(gs, kappa)
    fix = weitzenboeck_variation(fixture, parallel_section(1.0, 0.0))[
        "index_two"]
    assert fix["unstable_pair"]
    form = assemble_index_form(fixture, SectionBasis(gs.S, 4))
    assert form.morse_index >= 2
    report(11, "stability: d2(parallel) = %+0.6f (-8pi %+0.6f), equator "
               "index %d @ L=%d, slice %d, cp1 %d, fixture index %d"
           % (d2, -8 * np.pi, out["morse_index"], out["L_used"],
              out_s["morse_index"], out_c["morse_index"], form.morse_index))


def test_criterion_12_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["verify-identities", "--seed", "42", "--out", str(a)]) == 0
    assert cli_main(["verify-identities", "--seed", "42", "--out", str(b)]) == 0
    ba, bb = a.read_bytes(), b.read_bytes()
    assert ba == bb
    rep = json.loads(ba)
    assert rep["failures"] == []
    report(12, "determinism: two seeded identity runs byte-identical "
               "(%d bytes, %d identities)" % (len(ba), len(rep["identities"])))
