import numpy as np
from numpy.testing import assert_allclose
import pytest

from curv4.curvature import (
    C_RIC, C_SCAL, block_identity_residual, christoffel_arrays,
    condition_check, curvature_batch, curvature_from_arrays, decompose,
    lemma21_check, riemann_at, ric_block_from_traceless, sectional_extremes,
)
from curv4.bivector import (
    bianchi_residual, kn_tensor4, operator6, plucker_residual, to_eta_basis,
    wedge,
)
from curv4.metrics import (
    J_STANDARD, flat_space, fubini_study, ht_metric, product_spheres,
    round_sphere4, twisted_metric,
)

I3 = np.eye(3)
I4 = np.eye(4)


def geometric_fields():
    return [round_sphere4(1.0), product_spheres(1.0, 1.0), ht_metric(0.6),
            twisted_metric(0.3, 0.004), fubini_study()]


# ------------------------------------------------------------- christoffel

def test_christoffel_flat_zero():
    m = flat_space()
    g, dg, _ = m.jets("e", np.array([[0.3, 0.1, -0.2, 0.5]]))
    G = christoffel_arrays(g, dg)[1]
    assert np.abs(G).max() < 1e-14


def test_christoffel_finite_difference_oracle():
    m = round_sphere4(1.0)
    rng = np.random.default_rng(2)
    p = rng.uniform(-0.8, 0.8, 4)
    g, dg, _ = m.jets("n", p)
    G = christoffel_arrays(g, dg)[1]
    h = 1e-5
    g0inv = np.linalg.inv(m.eval("n", p))
    dg = np.zeros((4, 4, 4))
    for k in range(4):
        pp, pm = p.copy(), p.copy()
        pp[k] += h
        pm[k] -= h
        dg[k] = (m.eval("n", pp) - m.eval("n", pm)) / (2 * h)
    Gfd = 0.5 * np.einsum("kl,lij->kij",
                          g0inv,
                          np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg) - dg)
    assert np.abs(G - Gfd).max() < 1e-6


def test_christoffel_product_no_cross_factor_terms():
    m = product_spheres(1.0, 2.0)
    rng = np.random.default_rng(3)
    g, dg, _ = m.jets("aa", rng.uniform(-0.9, 0.9, (10, 4)))
    G = christoffel_arrays(g, dg)[1]
    f1, f2 = (0, 1), (2, 3)
    for k in f1:
        for i in f2:
            assert np.abs(G[:, k, i, :]).max() < 1e-14
    for k in f2:
        for i in f1:
            assert np.abs(G[:, k, i, :]).max() < 1e-14


# ------------------------------------------------------------- calibration

def test_round_sphere_sign_calibration():
    # the one global sign: unit S^4 must come out with K = +1
    m = round_sphere4(1.0)
    c = riemann_at(m, "n", np.array([0.4, -0.3, 0.2, 0.1]))
    assert_allclose(c["s"], 12.0, atol=1e-10)
    assert np.abs(c["M6"] - np.eye(6)).max() < 1e-10
    assert_allclose(c["Rm_frame"][0, 1, 0, 1], 1.0, atol=1e-10)


def test_round_sphere_radius_two():
    m = round_sphere4(2.0)
    c = riemann_at(m, "s", np.array([0.2, 0.5, -0.1, 0.3]))
    assert_allclose(c["s"], 12.0 / 4.0, atol=1e-10)
    assert_allclose(sectional_extremes(c["M6"])[0], 0.25, atol=1e-6)
    assert_allclose(-sectional_extremes(-c["M6"])[0], 0.25, atol=1e-6)


# ------------------------------------------------------------- product facts

def test_product_kaehler_operator_facts():
    m = product_spheres(1.0, 1.0)
    c = riemann_at(m, "ab", np.array([0.3, 0.2, -0.4, 0.6]))
    s, wplus = c["s"], c["wplus"]
    assert_allclose(s, 4.0, atol=1e-10)
    eta1 = np.array([1.0, 0, 0, 0, 0, 1.0])
    eta2 = np.array([0, 1.0, 0, 0, -1.0, 0])
    eta3 = np.array([0, 0, 1.0, 1.0, 0, 0])
    M = c["M6"]
    assert np.abs(M @ eta2).max() < 1e-10
    assert np.abs(M @ eta3).max() < 1e-10
    assert_allclose(eta1 @ M @ eta1, s / 2.0, atol=1e-10)
    assert_allclose(np.sort(np.linalg.eigvalsh(wplus)),
                    [-1 / 3, -1 / 3, 2 / 3], atol=1e-10)
    assert_allclose(np.sort(np.linalg.eigvalsh(s / 6 * I3 - wplus)),
                    [0.0, 1.0, 1.0], atol=1e-10)


# ------------------------------------------------------------- decomposition

def test_decompose_constant_curvature():
    c = riemann_at(round_sphere4(1.0), "n", np.array([0.1, 0.2, 0.3, -0.2]))
    dec = decompose(c)
    assert np.abs(dec.W4).max() < 1e-9
    assert np.abs(c["ric0"]).max() < 1e-9
    assert dec.residual < 1e-12


def test_decompose_weyl_is_trace_free_and_coefficients_forced():
    # the frozen (C_SCAL, C_RIC) are the unique pair killing the Ricci trace
    # of the remainder; re-derive them from two random geometric tensors
    rng = np.random.default_rng(5)
    rows = []
    rhs = []
    for _ in range(4):
        B = rng.normal(size=(4, 4))
        B = 0.5 * (B + B.T)
        R = kn_tensor4(B, I4)
        ric = np.einsum("akbk->ab", R)
        s = np.trace(ric)
        ric0 = ric - s / 4.0 * I4
        A1 = np.einsum("akbk->ab", s * kn_tensor4(I4, I4))
        A2 = np.einsum("akbk->ab", kn_tensor4(ric0, I4))
        rows.append(np.stack([A1.ravel(), A2.ravel()], axis=1))
        rhs.append(ric.ravel())
    coef, *_ = np.linalg.lstsq(np.concatenate(rows), np.concatenate(rhs),
                               rcond=None)
    assert_allclose(coef, [C_SCAL, C_RIC], atol=1e-10)

    for m in geometric_fields():
        chart = m.chart_order[0]
        c = riemann_at(m, chart, np.array([0.31, -0.12, 0.21, 0.4]))
        dec = decompose(c)
        assert dec.trace_norm < 1e-9
        assert dec.residual < 1e-12


def test_weyl_two_paths_agree():
    for m in geometric_fields():
        c = riemann_at(m, m.chart_order[0], np.array([0.2, 0.4, -0.3, 0.1]))
        # Kulkarni-Nomizu subtraction against the blocks of R_op
        dec = decompose(c)
        assert np.abs(dec.wplus - c["wplus"]).max() < 1e-9
        assert np.abs(dec.wminus - c["wminus"]).max() < 1e-9


def test_block_identity_and_traces():
    rng = np.random.default_rng(6)
    for m in geometric_fields():
        for chart, pts in m.sample_points(rng, 8):
            data = curvature_batch(m, chart, pts)
            assert np.abs(np.trace(data["wplus"], axis1=-2, axis2=-1)).max() < 1e-8
            assert np.abs(np.trace(data["wminus"], axis1=-2, axis2=-1)).max() < 1e-8
            assert block_identity_residual(data).max() < 1e-6
            assert bianchi_residual(data["M6"]).max() < 1e-6


@pytest.mark.parametrize("m", geometric_fields() + [flat_space()],
                         ids=lambda m: m.name)
def test_batched_checks_equal_single_point_checks(m):
    # a single point is a batch of one: every pointwise check of a 6-point
    # batch equals the same check on riemann_at at each of its points
    chart = m.chart_order[-1]
    pts = m.charts[chart].sample(np.random.default_rng(18), 6)
    batch = curvature_batch(m, chart, pts)
    scale = 1e-13 * max(1.0, np.abs(batch["Rm_frame"]).max())
    dec, block = decompose(batch), block_identity_residual(batch)
    lem, bian = lemma21_check(batch), bianchi_residual(batch["M6"])
    for i, p in enumerate(pts):
        c = riemann_at(m, chart, p)
        assert list(c) == list(batch)   # the curvature_from_arrays keys
        one = decompose(c)
        for key in ("W4", "W6", "wplus", "wminus", "residual", "trace_norm"):
            assert np.abs(getattr(dec, key)[i] - getattr(one, key)).max() \
                <= scale, key
        assert abs(block[i] - block_identity_residual(c)) <= scale
        assert abs(bian[i] - bianchi_residual(c["M6"])) <= scale
        for side, rec in lemma21_check(c).items():
            for key in ("antecedent_margin", "consequent_margin"):
                assert abs(lem[side][key][i] - rec[key]) <= scale, key
            assert lem[side]["violated"][i] == rec["violated"]


def test_einstein_ric_block_vanishes():
    c = riemann_at(fubini_study(), "u1", np.array([0.3, 0.1, 0.2, -0.4]))
    assert np.abs(c["ric_block"]).max() < 1e-8
    # non-Einstein product: block must match the traceless-Ricci route
    c2 = riemann_at(product_spheres(1.0, 2.0), "aa", np.array([0.5, 0.1, 0.2, 0.3]))
    assert np.abs(c2["ric_block"]).max() > 1e-3
    B = ric_block_from_traceless(c2["ric0"])
    assert np.abs(B - c2["ric_block"]).max() < 1e-9


# ------------------------------------------------------------- Kahler spectrum

def test_kaehler_weyl_spectrum_and_form_direction():
    for m in (product_spheres(1.0, 1.0), ht_metric(0.8), fubini_study(),
              twisted_metric(0.5, 0.003)):
        c = riemann_at(m, m.chart_order[0], np.array([0.25, -0.15, 0.35, 0.05]))
        s, wplus = c["s"], c["wplus"]
        lam = np.sort(np.linalg.eigvalsh(wplus))
        assert_allclose(lam, [-s / 12, -s / 12, s / 6], atol=1e-6)
        assert_allclose(np.sort(np.linalg.eigvalsh(s / 6 * I3 - wplus)),
                        [0.0, s / 4, s / 4], atol=1e-6)
        # the Kahler direction eta1 realizes the s/6 eigenvalue: with the
        # standard J and frames from Cholesky of a J-compatible metric,
        # e2 = J e1 and e4 = J e3, so eta1 is the Kahler form direction
        eta1 = np.array([1.0, 0, 0]) * np.sqrt(2)
        assert np.abs(wplus @ eta1 - s / 6 * eta1).max() < 1e-6


# ------------------------------------------------------------- Lemma 2.1

def test_lemma21_on_builtins():
    rng = np.random.default_rng(7)
    for m in geometric_fields():
        for chart, pts in m.sample_points(rng, 4):
            for p in pts:
                rec = lemma21_check(riemann_at(m, chart, p))
                for side in rec.values():
                    assert not side["violated"]


def test_lemma21_synthetic_boundary():
    # W+ = diag(2k, -k, -k) with s = 12k sits exactly on both boundaries
    k = 0.7
    W = np.diag([2 * k, -k, -k])
    s = 12 * k
    lam = np.linalg.eigvalsh(W)
    assert_allclose(s / 12 + lam[0], 0.0, atol=1e-14)
    assert_allclose(s / 6 - lam[-1], 0.0, atol=1e-14)


def lemma21_rejection_trials(rng, trials=100_000, batch=200_000):
    """Rejection-sample traceless spectra with s/12 + W >= 0 and return the
    worst consequent margin of s/6 - W over ``trials`` accepted draws."""
    kept = 0
    worst = np.inf
    while kept < trials:
        A = rng.normal(size=(batch, 3, 3))
        W = 0.5 * (A + np.swapaxes(A, 1, 2))
        W -= np.trace(W, axis1=1, axis2=2)[:, None, None] / 3.0 * I3
        s = np.abs(rng.normal(size=batch)) * 24.0
        lam = np.linalg.eigvalsh(W)
        acc = s / 12.0 + lam[:, 0] >= 0.0
        if not np.any(acc):
            continue
        cons = (s / 6.0 - lam[:, 2])[acc]
        worst = min(worst, float(cons.min()))
        kept += int(acc.sum())
    return {"trials": kept, "worst_consequent_margin": worst}


def test_lemma21_rejection_property():
    out = lemma21_rejection_trials(np.random.default_rng(8), trials=100_000)
    assert out["trials"] >= 100_000
    assert out["worst_consequent_margin"] >= -1e-9


# ------------------------------------------------------------- sectional

def test_min_sectional_round_product_fs():
    rng = np.random.default_rng(9)
    c = riemann_at(round_sphere4(1.0), "n", rng.uniform(-0.8, 0.8, 4))
    assert_allclose(sectional_extremes(c["M6"])[0], 1.0, atol=1e-6)

    cp = riemann_at(product_spheres(1.0, 1.0), "aa", rng.uniform(-0.8, 0.8, 4))
    val, xi, _ = sectional_extremes(cp["M6"])
    assert abs(val) < 1e-6
    # argmin is a mixed plane: its bivector has no pure-factor component
    assert abs(xi[0]) < 1e-3 and abs(xi[5]) < 1e-3

    cf = riemann_at(fubini_study(), "u0", rng.uniform(-0.7, 0.7, 4))
    assert_allclose(sectional_extremes(cf["M6"])[0], 1.0, atol=1e-4)
    assert_allclose(-sectional_extremes(-cf["M6"])[0], 4.0, atol=1e-4)


def test_min_sectional_never_above_samples():
    rng = np.random.default_rng(10)
    for m in (product_spheres(1.0, 2.0), fubini_study()):
        c = riemann_at(m, m.chart_order[0], rng.uniform(-0.6, 0.6, 4))
        val, _, _ = sectional_extremes(c["M6"])
        u = rng.normal(size=(10_000, 4))
        v = rng.normal(size=(10_000, 4))
        xi = wedge(u, v)
        vals = np.einsum("si,ij,sj->s", xi, c["M6"], xi) / np.sum(xi * xi, axis=1)
        assert val <= vals.min() + 1e-12


def _solver_cases():
    """Random symmetric operators (most violate first Bianchi, the rest are
    projected onto it) and degenerate ones: I, the Hodge star (every
    eigenvalue of M + t * meets at t = -1) and the S^2 x S^2 Kaehler
    operator, exactly diag(1, 0, 0, 0, 0, 1) and as computed at a point."""
    from curv4.bivector import STAR6
    rng = np.random.default_rng(21)
    A = rng.normal(size=(8, 6, 6))
    rand = A + np.swapaxes(A, 1, 2)
    bianchi = rand[:, 0, 5] - rand[:, 1, 4] + rand[:, 2, 3]
    projected = rand[:4] - bianchi[:4, None, None] / 3.0 * STAR6
    kaehler = riemann_at(product_spheres(1.0, 1.0), "aa",
                         np.array([0.3, 0.2, -0.4, 0.6]))["M6"]
    return np.concatenate([rand, projected, np.stack([
        np.eye(6), STAR6, -STAR6, np.diag([1.0, 0, 0, 0, 0, 1.0]), kaehler])])


def _sampled_sectional(M, n=100_000):
    rng = np.random.default_rng(22)
    xi = wedge(rng.normal(size=(n, 4)), rng.normal(size=(n, 4)))
    xi /= np.linalg.norm(xi, axis=-1, keepdims=True)
    return np.einsum("si,mij,sj->ms", xi, M, xi).min(axis=1)


def test_sectional_extremes_exact_with_certificate():
    M = _solver_cases()
    val, xi, bound = sectional_extremes(M)
    sampled = _sampled_sectional(M)
    norm = np.linalg.norm(M, ord=2, axis=(1, 2))
    # primal: never above any sampled plane; dual: never above the primal
    assert np.all(val <= sampled + 1e-12)
    assert np.all(bound <= val + 1e-12)
    assert np.all(val - bound <= 1e-10 * (1.0 + norm))
    # xi is a unit decomposable bivector and its curvature is the value
    assert np.abs(np.linalg.norm(xi, axis=-1) - 1.0).max() <= 1e-12
    assert np.abs(plucker_residual(xi)).max() <= 1e-12
    assert_allclose(np.einsum("mi,mij,mj->m", xi, M, xi), val, rtol=0,
                    atol=1e-12)
    # known minima: 1 for I, 0 for the star and for S^2 x S^2
    assert_allclose(val[-5:], [1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_sectional_extremes_ignore_star_and_batch_shape():
    # <* xi, xi> vanishes on decomposable xi, so adding t * changes no
    # sectional curvature and must leave the minimum in place
    from curv4.bivector import STAR6
    M = _solver_cases()[:4]
    shifted = M + np.array([-1.5, 0.3, 2.0, 7.0])[:, None, None] * STAR6
    assert_allclose(sectional_extremes(shifted)[0], sectional_extremes(M)[0],
                    rtol=0, atol=1e-10)
    val, xi, _ = sectional_extremes(M.reshape(2, 2, 6, 6))
    assert val.shape == (2, 2) and xi.shape == (2, 2, 6)
    single, _, _ = sectional_extremes(M[3])
    assert single.shape == () and single == val[1, 1]


# ------------------------------------------------------------- conditions

def test_condition_check_product():
    d = condition_check(product_spheres(1.0, 1.0), grid_n=3)[0]
    assert abs(d["margins"]["s6_minus_wplus"]) < 1e-6
    assert abs(d["margins"]["min_sectional"]) < 1e-6
    assert d["margins"]["curvature_operator"] >= -1e-9
    assert d["satisfied"]["s6_minus_wplus"] is True
    assert d["npoints"] == 4 * 3 ** 4
    assert d["sectional_gap"] <= 1e-9
    assert "sectional_gap" not in condition_check(
        product_spheres(1.0, 1.0), grid_n=3, include_sectional=False)[0]


def test_condition_check_round():
    margins = condition_check(round_sphere4(1.0), grid_n=3)[0]["margins"]
    assert_allclose(margins["s6_minus_wplus"], 2.0, atol=1e-8)
    assert_allclose(margins["min_sectional"], 1.0, atol=1e-6)


@pytest.mark.parametrize("m", [round_sphere4(1.0), product_spheres(1.0, 1.0)],
                         ids=lambda m: m.name)
def test_worst_point_is_first_of_ties(m):
    # on a homogeneous metric every margin is flat up to rounding, so each
    # worst point is the first grid point of the first chart, whatever the
    # order of the sums that produced the rounding
    d = condition_check(m, grid_n=3)[0]
    chart = m.chart_order[0]
    pts = m.charts[chart].grid(3)
    assert set(d["worst_point"]) == set(d["margins"])
    for key, w in d["worst_point"].items():
        assert w == {"chart": chart, "point": pts[0].tolist(),
                     "ties": d["npoints"]}, key


# ------------------------------------------------------------- bisectional

def holomorphic_bisectional(c, J, X, Y):
    """K^h(X,Y) = Rm(X, JX, Y, JY) with coordinate vectors X, Y at the
    single-point record c."""
    return float(np.einsum("ijkl,i,j,k,l->", c["Rm"], X, J @ X, Y, J @ Y))


def test_holomorphic_bisectional_product():
    m = product_spheres(1.0, 1.0)
    p = np.array([0.2, -0.1, 0.3, 0.4])
    c = riemann_at(m, "aa", p)
    J = np.array(J_STANDARD)
    g = c["g"]
    e1 = np.zeros(4)
    e1[0] = 1.0 / np.sqrt(g[0, 0])       # unit vector in factor 1
    e3 = np.zeros(4)
    e3[2] = 1.0 / np.sqrt(g[2, 2])       # unit vector in factor 2
    assert_allclose(holomorphic_bisectional(c, J, e1, e1), 1.0, atol=1e-10)
    assert_allclose(holomorphic_bisectional(c, J, e1, e3), 0.0, atol=1e-12)


def test_holomorphic_bisectional_expansion_nonnegative():
    # K^h(X,Y) = R(X,JY,X,JY) + R(X,Y,X,Y) on Kahler spaces; both terms are
    # sectional values, so K >= 0 metrics give K^h >= 0
    rng = np.random.default_rng(13)
    for m in (product_spheres(1.0, 1.0), fubini_study(), ht_metric(0.5)):
        p = rng.uniform(-0.6, 0.6, 4)
        chart = m.chart_order[0]
        c = riemann_at(m, chart, p)
        J = np.array(J_STANDARD)
        for _ in range(20):
            X, Y = rng.normal(size=(2, 4))
            kh = holomorphic_bisectional(c, J, X, Y)
            Rm = c["Rm"]
            t1 = np.einsum("ijkl,i,j,k,l->", Rm, X, J @ Y, X, J @ Y)
            t2 = np.einsum("ijkl,i,j,k,l->", Rm, X, Y, X, Y)
            assert_allclose(kh, t1 + t2, atol=1e-8 * max(1, abs(kh)))
            assert kh >= -1e-8


def test_kaehler_j_invariance_of_curvature():
    # R(JX,JY,Z,V) = R(X,Y,Z,V): the standard Kahler symmetry, checked
    # numerically (the paper's Bianchi display for it is garbled)
    rng = np.random.default_rng(14)
    m = fubini_study()
    p = rng.uniform(-0.5, 0.5, 4)
    Rm = riemann_at(m, "u0", p)["Rm"]
    J = np.array(J_STANDARD)
    RJ = np.einsum("ijkl,ia,jb->abkl", Rm, J, J)
    assert np.abs(RJ - Rm).max() < 1e-8 * max(1, np.abs(Rm).max())


# ------------------------------------------------------------- AD vs FD

def fd_arrays(m, chart, p, h=1e-4):
    def ev(q):
        return m.eval(chart, q)
    g = ev(p)
    dg = np.zeros((4, 4, 4))
    d2g = np.zeros((4, 4, 4, 4))
    for k in range(4):
        pp, pm = p.copy(), p.copy()
        pp[k] += h
        pm[k] -= h
        dg[k] = (ev(pp) - ev(pm)) / (2 * h)
    for l in range(4):
        for k in range(4):
            ppp = p.copy(); ppm = p.copy(); pmp = p.copy(); pmm = p.copy()
            ppp[l] += h; ppp[k] += h
            ppm[l] += h; ppm[k] -= h
            pmp[l] -= h; pmp[k] += h
            pmm[l] -= h; pmm[k] -= h
            d2g[l, k] = (ev(ppp) - ev(ppm) - ev(pmp) + ev(pmm)) / (4 * h * h)
    return g, dg, d2g


def test_ad_vs_fd_pipeline():
    rng = np.random.default_rng(15)
    for m in (round_sphere4(1.0), product_spheres(1.0, 2.0), fubini_study()):
        chart = m.chart_order[0]
        for _ in range(7):
            p = rng.uniform(-0.7, 0.7, 4)
            exact = curvature_batch(m, chart, p[None])
            g, dg, d2g = fd_arrays(m, chart, p)
            approx = curvature_from_arrays(g[None], dg[None], d2g[None])
            assert abs(exact["s"][0] - approx["s"][0]) < 1e-5
            assert np.abs(exact["wplus"] - approx["wplus"]).max() < 1e-5
            assert np.abs(exact["Rm"] - approx["Rm"]).max() < 1e-4


def _einsum_curvature(g, dg, d2g):
    """The curvature pipeline as chained einsums, kept as an oracle for the
    matmul kernel."""
    ginv = np.linalg.inv(g)
    S = (np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg)
         - dg)
    Gamma = 0.5 * np.einsum("...kl,...lij->...kij", ginv, S)
    dginv = -np.einsum("...ka,...mab,...bl->...mkl", ginv, dg, ginv,
                       optimize=True)
    dS = (np.einsum("...mijl->...mlij", d2g)
          + np.einsum("...mjil->...mlij", d2g) - d2g)
    dGamma = 0.5 * (np.einsum("...mkl,...lij->...mkij", dginv, S)
                    + np.einsum("...kl,...mlij->...mkij", ginv, dS))
    Rup = (np.einsum("...iljk->...lkij", dGamma)
           - np.einsum("...jlik->...lkij", dGamma)
           + np.einsum("...lim,...mjk->...lkij", Gamma, Gamma)
           - np.einsum("...ljm,...mik->...lkij", Gamma, Gamma))
    Rm = np.einsum("...km,...mlij->...ijkl", g, Rup)
    E = np.swapaxes(np.linalg.inv(np.linalg.cholesky(g)), -1, -2)
    Rf = np.einsum("...ijkl,...ia->...jkla", Rm, E)
    Rf = np.einsum("...jkla,...jb->...klab", Rf, E)
    Rf = np.einsum("...klab,...kc->...labc", Rf, E)
    Rf = np.einsum("...labc,...ld->...abcd", Rf, E)
    M6 = operator6(Rf)
    R_op = to_eta_basis(M6)
    ric = np.einsum("...akbk->...ab", Rf)
    s = np.einsum("...aa->...", ric)
    s3 = s[..., None, None]
    return {
        "g": g, "ginv": ginv, "Gamma": Gamma, "dGamma": dGamma, "Rm": Rm,
        "frame": E, "Rm_frame": Rf, "M6": M6, "R_op": R_op, "s": s,
        "ric": ric, "ric0": ric - s3 / 4.0 * I4,
        "wplus": R_op[..., :3, :3] - s3 / 12.0 * I3,
        "wminus": R_op[..., 3:, 3:] - s3 / 12.0 * I3,
        "ric_block": R_op[..., :3, 3:],
    }


@pytest.mark.parametrize("batch", [(1,), (7,), (3, 5)])
def test_matmul_kernel_matches_einsum_oracle(batch):
    rng = np.random.default_rng(sum(batch))
    X = rng.normal(size=batch + (4, 4))
    g = X @ np.swapaxes(X, -1, -2) + 0.5 * I4
    # jets of a real metric: dg symmetric in (i, j), d2g also in (l, k)
    dg = rng.normal(size=batch + (4, 4, 4))
    dg = dg + np.swapaxes(dg, -1, -2)
    d2g = rng.normal(size=batch + (4, 4, 4, 4))
    d2g = d2g + np.swapaxes(d2g, -1, -2)
    d2g = d2g + np.swapaxes(d2g, -3, -4)
    got = curvature_from_arrays(g, dg, d2g)
    want = _einsum_curvature(g, dg, d2g)
    assert set(got) == set(want)
    for key, ref in want.items():
        assert got[key].shape == ref.shape, key
        assert np.abs(got[key] - ref).max() <= 1e-12 * np.abs(ref).max(), key


def test_riemann_symmetries_random_points():
    rng = np.random.default_rng(16)
    for m in geometric_fields():
        for chart, pts in m.sample_points(rng, 50):
            Rm = curvature_batch(m, chart, pts)["Rm_frame"]
            assert np.abs(Rm + np.swapaxes(Rm, -4, -3)).max() < 1e-6
            assert np.abs(Rm + np.swapaxes(Rm, -2, -1)).max() < 1e-6
            assert np.abs(Rm - np.transpose(Rm, (0, 3, 4, 1, 2))).max() < 1e-6
            bianchi = (Rm + np.transpose(Rm, (0, 1, 3, 4, 2))
                       + np.transpose(Rm, (0, 1, 4, 2, 3)))
            assert np.abs(bianchi).max() < 1e-6


def test_twisted_metric_is_not_a_product():
    # nonzero cross-factor components certify the mixed derivatives of the
    # perturbation potential do not vanish
    m = twisted_metric(0.0, 0.01)
    rng = np.random.default_rng(17)
    cross = 0.0
    for chart, pts in m.sample_points(rng, 40):
        g = m.eval(chart, pts)
        cross = max(cross, np.abs(g[:, :2, 2:]).max())
    assert cross > 1e-5
