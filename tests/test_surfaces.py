import numpy as np
from numpy.testing import assert_allclose
import pytest

from curv4 import surfaces
from curv4.errors import (
    ChartDomainError, NonMinimalSurfaceError, SectionError, SpecParseError,
)
from curv4.bivector import kn_tensor4, operator6
from curv4.jets import array as jet_array, drop, hess_array, jsqrt, partial, seedn
from curv4.metrics import (
    QuadSpec, flat_space, fubini_study, ht_metric, product_spheres,
    round_sphere4, twisted_metric,
)
from curv4.surfaces import (
    NormalSection, a_wedge_a_sq, a_wedge_a_sq_expansion, chern_number, cp1_line, dbar_sq, equator_sphere, kperp_extrinsic_field,
    log_norm_check, normal_connection, parallel_section, parse_surface_spec,
    perturbed_slice, point_geometry, product_slice,
    ric_perp_identity_residual, second_variation, section_data,
    sphere_functions, surface_geometry, variational_identity_lemma310,
    weitzenboeck_variation,
)

QUAD = QuadSpec(32)
MP = product_spheres(1.0, 1.0)
MR = round_sphere4(1.0)
MF = fubini_study()

SURFACES = [
    ("slice", product_slice(), MP),
    ("equator", equator_sphere(), MR),
    ("cp1", cp1_line(), MF),
    ("perturbed", perturbed_slice(0.15), MP),
]


@pytest.fixture(scope="module")
def geoms():
    """The QUAD geometry of each of SURFACES, built once for the module."""
    return {name: surface_geometry(S, m, QUAD) for name, S, m in SURFACES}


def smooth_frame_section(seed):
    """Random-ish global smooth section via the R^3 embedding functions."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(-0.6, 0.6, size=8)

    def a3(chart, u):
        n1, n2, n3 = sphere_functions(chart, u)
        return b[0] + b[1] * n1 + b[2] * n2 + b[3] * n3

    def a4(chart, u):
        n1, n2, n3 = sphere_functions(chart, u)
        return b[4] + b[5] * n1 + b[6] * n2 + b[7] * n3

    return NormalSection([a3, a4])


def smooth_projected_section(S, seed):
    rng = np.random.default_rng(seed)
    b = rng.uniform(-0.6, 0.6, size=(4, 4))

    def make(c):
        def f(chart, u):
            n1, n2, n3 = sphere_functions(chart, u)
            return c[0] + c[1] * n1 + c[2] * n2 + c[3] * n3
        return f

    return NormalSection([make(c) for c in b])


# ------------------------------------------------------------- induced data

def test_areas(geoms):
    # an odd node count puts a node on the equator c = 0 of the sphere
    odd = {name: surface_geometry(S, m, QuadSpec(33))
           for name, S, m in SURFACES[:3]}
    for g in (geoms, odd):
        assert_allclose(g["slice"].area(), 4 * np.pi, rtol=1e-3)
        assert_allclose(g["equator"].area(), 4 * np.pi, rtol=1e-3)
        assert_allclose(g["cp1"].area(), np.pi, rtol=1e-3)


def test_induced_geometry_slice():
    cg = point_geometry(product_slice(), MP, "a", [0.3, -0.2])
    q = 1 + 0.3 ** 2 + 0.2 ** 2
    assert_allclose(cg.h[0], 4.0 / q ** 2 * np.eye(2), atol=1e-12)
    assert_allclose(cg.sqrt_h[0], 4.0 / q ** 2, atol=1e-12)
    e = cg.e[0]
    n = cg.n[0]
    g = MP.eval("aa", [0.3, -0.2, 0.0, 0.0])
    frame = np.concatenate([e, n], axis=1)
    assert_allclose(frame.T @ g @ frame, np.eye(4), atol=1e-12)
    assert np.linalg.det(frame) > 0


def _project_normal_arr(g, n, V):
    """Normal projection of (n, 2, 2, 4) ambient vector arrays."""
    gn = np.einsum("nij,njs->nis", g, n)
    comp = np.einsum("nabi,nis->nabs", V, gn)
    return np.einsum("nabs,nis->nabi", comp, n)


FRAME_CASES = SURFACES + [
    ("twisted-slice2", product_slice(factor=2, point=(0.3, -0.2)),
     twisted_metric(0.5, 0.05)),
]


@pytest.mark.parametrize("name, S, m", FRAME_CASES,
                         ids=[name for name, _, _ in FRAME_CASES])
def test_adapted_frame_on_every_node(name, S, m, geoms):
    # the Cholesky frame is g-orthonormal and positive at every QUAD node,
    # e_i = c_ia F_a, and A equals the normal projection of
    # F_ab + Gamma(F_a, F_b) read on the frames
    geom = geoms[name] if name in geoms else surface_geometry(S, m, QUAD)
    tol = 1e-13
    for cg in geom.charts:
        g, e, n, dF, c = cg.g, cg.e, cg.n, cg.dF, cg.c
        eye = np.broadcast_to(np.eye(2), cg.shape + (2, 2))
        assert_allclose(np.swapaxes(e, -1, -2) @ g @ e, eye, atol=tol)
        assert_allclose(np.swapaxes(n, -1, -2) @ g @ n, eye, atol=tol)
        assert_allclose(np.swapaxes(e, -1, -2) @ g @ n, 0.0, atol=tol)
        assert np.all(np.linalg.det(np.concatenate([e, n], axis=-1)) > 0)
        assert_allclose(e, np.einsum("...ia,...ka->...ki", c, dF), atol=tol)
        assert_allclose(cg.h, np.swapaxes(dF, -1, -2) @ g @ dF, atol=tol)

        Fj = S.fmap(cg.chart, seedn([cg.u[:, 0], cg.u[:, 1]], 2))
        d2F = np.stack([hess_array(f, cg.shape, 2) for f in Fj], axis=-3)
        dd = d2F + np.einsum("...kij,...ia,...jb->...kab", cg.Gamma, dF, dF)
        npart = _project_normal_arr(g, n, np.moveaxis(dd, -3, -1))
        Aef = np.einsum("...ia,...jb,...abk->...ijk", c, c, npart)
        A = np.einsum("...ijk,...kl,...ls->...ijs", Aef, g, n)
        assert_allclose(cg.A, A, atol=tol)
        H = Aef[..., 0, 0, :] + Aef[..., 1, 1, :]
        assert_allclose(cg.H_norm,
                        np.sqrt(np.einsum("...i,...ij,...j->...", H, g, H)),
                        atol=tol)


@pytest.mark.filterwarnings("error")
def test_rank_deficient_rejected():
    bad = product_slice()
    fmap = bad.fmap

    def squash(chart, u):
        F = fmap(chart, u)
        return [F[0], F[0], F[2], F[3]]

    bad2 = type(bad)("bad", bad.chart_map, squash)
    with pytest.raises(NonMinimalSurfaceError):
        surface_geometry(bad2, MP, QUAD)


def test_geometry_dies_with_its_last_reference():
    # nothing caches a geometry: dropping the caller's reference frees it
    # at once, with no reference cycle left for the garbage collector
    import weakref
    S = product_slice()
    geom = surface_geometry(S, MP, QuadSpec(8))
    ref = weakref.ref(geom)
    del geom
    assert ref() is None


@pytest.mark.parametrize("S, m", [
    (product_slice(), fubini_study()), (cp1_line(), round_sphere4(1.0)),
    (equator_sphere(), MP), (product_slice(), flat_space()),
], ids=["slice-fs", "cp1-line-round4", "equator4-product", "slice-flat"])
def test_surface_in_a_foreign_atlas_is_rejected(S, m):
    # the immersion names ambient charts the metric does not have
    with pytest.raises(ChartDomainError, match="does not have"):
        surface_geometry(S, m, QuadSpec(8))
    with pytest.raises(ChartDomainError):
        point_geometry(S, m, "a", [0.1, 0.2])


@pytest.mark.parametrize("S", [perturbed_slice(1e200),
                               product_slice(point=(5.0, 0.0))],
                         ids=["huge-perturbation", "slice-off-the-chart"])
def test_surface_outside_its_chart_domain_is_rejected(S):
    # the immersed nodes leave chart aa's domain (factor radius 2.5)
    match = "surface %s: .*outside chart 'aa'" % S.name
    with pytest.raises(ChartDomainError, match=match):
        surface_geometry(S, MP, QuadSpec(8))
    with pytest.raises(ChartDomainError, match=match):
        point_geometry(S, MP, "a", [0.1, 0.2])


# ------------------------------------------------------------- second form

def test_totally_geodesic_builtins():
    for name, S, m in SURFACES[:3]:
        cg = point_geometry(S, m, "a", [0.4, 0.1])
        assert cg.H_norm[0] < 1e-12
        assert np.abs(cg.A).max() < 1e-12


def test_perturbed_slice_not_minimal(geoms):
    geom = geoms["perturbed"]
    assert geom.min_residual > 1e-3
    with pytest.raises(NonMinimalSurfaceError):
        geom.require_minimal()


# ------------------------------------------------------------- connection

def test_normal_connection_parallel_on_slice():
    out = normal_connection(product_slice(), MP, parallel_section(1.0, 0.0),
                            [1.0, 0.0], "a", [0.2, 0.3])
    assert np.abs(out).max() < 1e-12


def test_normal_connection_fd_oracle():
    S = perturbed_slice(0.12)
    sig = smooth_frame_section(3)
    u0 = np.array([0.25, -0.4])
    X = np.array([0.7, -0.5])
    h = 1e-6

    def ambient_sigma(u):
        cg = point_geometry(S, MP, "a", u)
        d = section_data(cg, sig)
        return (d["c3"][0] * cg.n[0, :, 0] + d["c4"][0] * cg.n[0, :, 1]), cg

    sp, _ = ambient_sigma(u0 + h * X)
    sm, _ = ambient_sigma(u0 - h * X)
    s0, cg0 = ambient_sigma(u0)
    cov = (sp - sm) / (2 * h) + np.einsum(
        "kij,i,j->k", cg0.Gamma[0], cg0.dF[0] @ X, s0)
    gmat, nfr = cg0.g[0], cg0.n[0]
    oracle = sum((cov @ gmat @ nfr[:, s]) * nfr[:, s] for s in range(2))
    got = normal_connection(S, MP, sig, X, "a", u0)
    assert np.abs(got - oracle).max() < 1e-5


def test_connection_commutes_with_j():
    # nabla_X(J sigma) = J(nabla_X sigma): compare frame coefficients of the
    # rotated section's derivative against the rotated derivative
    S = perturbed_slice(0.12)
    sig = smooth_frame_section(4)
    cg = point_geometry(S, MP, "a", [0.3, 0.15])
    d = section_data(cg, sig)
    dj = section_data(cg, sig.rotated())
    assert np.abs(dj["D3"] + d["D4"]).max() < 1e-8
    assert np.abs(dj["D4"] - d["D3"]).max() < 1e-8
    # and the norms agree pointwise
    assert abs(dj["grad2"] - d["grad2"]).max() < 1e-12
    assert abs(dj["norm2"] - d["norm2"]).max() < 1e-12


# ------------------------------------------------------------- K_perp

def test_kperp_values():
    def kperp(S, m, chart, u):
        return point_geometry(S, m, chart, u).kperp[0]
    assert abs(kperp(product_slice(), MP, "a", [0.3, 0.2])) < 1e-10
    assert abs(kperp(equator_sphere(), MR, "b", [0.4, -0.1])) < 1e-10
    assert_allclose(kperp(cp1_line(), MF, "a", [0.2, 0.5]), 2.0, atol=1e-6)


def test_kperp_cross_path_all_surfaces(geoms):
    for geom in geoms.values():
        for cg in geom.charts:
            assert np.abs(cg.kperp - kperp_extrinsic_field(cg)).max() < 1e-5
    # and at a single point, a one-node batch
    cg = point_geometry(perturbed_slice(0.15), MP, "a", [0.3, -0.2])
    assert abs(cg.kperp - kperp_extrinsic_field(cg))[0] < 1e-5


def test_chern_numbers(geoms):
    assert abs(chern_number(geoms["slice"])) < 1e-3
    assert abs(chern_number(geoms["equator"])) < 1e-3
    assert abs(chern_number(geoms["cp1"]) - 1.0) < 1e-3


# ------------------------------------------------------------- dbar

def _dbar_at(S, m, sigma, chart, u, tau=0.0):
    return dbar_sq(section_data(point_geometry(S, m, chart, u), sigma), tau)[0]


def test_dbar_zero_for_parallel():
    assert _dbar_at(product_slice(), MP, parallel_section(1.0, 0.5),
                    "a", [0.1, 0.7]) < 1e-14


def test_dbar_rotation_invariance():
    S = perturbed_slice(0.15)
    sig = smooth_frame_section(5)
    for u in ([0.3, 0.2], [-0.5, 0.6]):
        vals = [_dbar_at(S, MP, sig, "a", u, tau=t)
                for t in (0.0, np.pi / 4, 1.1, 2.7)]
        assert max(vals) - min(vals) < 1e-8


def test_dbar_j_rotation_preserves_holomorphicity():
    # if dbar sigma = 0 then dbar(J sigma) = 0
    sig = parallel_section(0.3, -0.8)
    assert _dbar_at(product_slice(), MP, sig.rotated(), "a", [0.4, 0.1]) < 1e-14


# ------------------------------------------------------------- A ^ A algebra

def synthetic_minimal_A(rng):
    # traceless symmetric 2x2 in both normal directions
    out = np.zeros((2, 2, 2))
    for s in range(2):
        a, b = rng.normal(size=2)
        out[..., s] = [[a, b], [b, -a]]
    return out


def test_a_wedge_a():
    rng = np.random.default_rng(6)
    assert a_wedge_a_sq(np.zeros((2, 2, 2))) == 0.0
    for _ in range(50):
        A = synthetic_minimal_A(rng)
        assert abs(a_wedge_a_sq(A) - a_wedge_a_sq_expansion(A)) < 1e-12


def test_a_wedge_a_zero_forces_geodesic_for_minimal():
    # |A^A| = 0 with minimality: A4(e1) = A3(e2), A4(e2) = -A3(e1); after the
    # frame rotation killing <A(e1,e2), e3> this forces A = 0. Verify the
    # contrapositive on random nonzero minimal A, and the rotation identity.
    rng = np.random.default_rng(7)
    for _ in range(200):
        A = synthetic_minimal_A(rng)
        if a_wedge_a_sq(A) < 1e-12:
            arr = A
            assert_allclose(arr[..., 1][0], [arr[0, 1, 0], -arr[0, 0, 0]],
                            atol=1e-10)
            # minimal + |A^A| = 0 and generic data only at A = 0
            assert np.abs(arr).max() < 1e-6


def test_a_sigma_norm_identity_323():
    # |A^sigma|^2 + |A^{J sigma}|^2 = (|A^3|^2 + |A^4|^2)|sigma|^2
    rng = np.random.default_rng(8)
    for _ in range(50):
        A = synthetic_minimal_A(rng)
        c3, c4 = rng.normal(size=2)
        As = A[..., 0] * c3 + A[..., 1] * c4
        AJs = A[..., 0] * (-c4) + A[..., 1] * c3
        lhs = np.sum(As ** 2) + np.sum(AJs ** 2)
        n3sq, n4sq = np.sum(A[..., 0] ** 2), np.sum(A[..., 1] ** 2)
        rhs = (n3sq + n4sq) * (c3 ** 2 + c4 ** 2)
        assert abs(lhs - rhs) < 1e-10


# ------------------------------------------------------------- integrals

def test_lemma_310_identity(geoms):
    for name, S, m in SURFACES:
        for seed in range(3):
            if S.normal_generators is not None:
                sig = smooth_projected_section(S, seed)
            else:
                sig = smooth_frame_section(seed)
            out = variational_identity_lemma310(geoms[name], sig)
            assert out["residual"] < 1e-5, (name, seed, out)


def test_321_322_pointwise_identity(geoms):
    for geom in geoms.values():
        for cg in geom.charts:
            assert ric_perp_identity_residual(cg) < 1e-5


def test_totally_geodesic_kperp_as_sectional_sum(geoms):
    # on Kahler built-ins with totally geodesic surfaces,
    # Kperp = K(e1, e3) + K(e1, e4) (checked numerically, not generalized)
    for name in ("slice", "cp1"):
        for cg in geoms[name].charts:
            k13 = np.einsum("...ijkl,...i,...j,...k,...l->...",
                            cg.Rm, cg.e[..., 0], cg.n[..., 0],
                            cg.e[..., 0], cg.n[..., 0])
            k14 = np.einsum("...ijkl,...i,...j,...k,...l->...",
                            cg.Rm, cg.e[..., 0], cg.n[..., 1],
                            cg.e[..., 0], cg.n[..., 1])
            assert np.abs(cg.kperp - (k13 + k14)).max() < 1e-8


def test_second_variation_density_matches_ambient_formula_with_shear(geoms):
    # the perturbed slice is the one test surface with A != 0, so the shear
    # part of the Jacobi block is live there; the oracle is the ambient
    # formula |nabla sigma|^2 - sum_r Rm(e_r, sigma, e_r, sigma) - |A^sigma|^2
    sig = smooth_frame_section(31)
    for cg in geoms["perturbed"].charts:
        d = section_data(cg, sig)
        sig_amb = (d["c3"][:, None] * cg.n[..., 0]
                   + d["c4"][:, None] * cg.n[..., 1])
        curv = np.einsum("nijkl,nir,nj,nkr,nl->n",
                         cg.Rm, cg.e, sig_amb, cg.e, sig_amb)
        Asig = np.einsum("nijs,ns->nij", cg.A,
                         np.stack([d["c3"], d["c4"]], axis=-1))
        shear = np.sum(Asig ** 2, axis=(1, 2))
        assert shear.max() > 1e-2
        want = d["grad2"] - curv - shear
        assert_allclose(surfaces.second_variation_density(cg, d), want,
                        rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_second_variation_equator(geoms):
    val = second_variation(geoms["equator"], parallel_section(1.0, 0.0))
    assert abs(val + 8 * np.pi) < 1e-3


def test_second_variation_slice_zero(geoms):
    val = second_variation(geoms["slice"], parallel_section(0.6, 0.8))
    assert abs(val) < 1e-8


def test_second_variation_cp1_nonnegative(geoms):
    sig = smooth_projected_section(cp1_line(), 11)
    assert second_variation(geoms["cp1"], sig) >= -1e-6


def test_second_variation_requires_minimal(geoms):
    with pytest.raises(NonMinimalSurfaceError):
        second_variation(geoms["perturbed"], parallel_section())


def test_weitzenboeck_variation_slice(geoms):
    geom = geoms["slice"]
    out = weitzenboeck_variation(geom, parallel_section(1.0, 0.0))
    assert abs(out["lhs"]) < 1e-8
    assert abs(out["rhs"]) < 1e-8
    # eta is the Kahler-form direction: the pairing vanishes pointwise
    for cg in geom.charts:
        assert np.abs(cg.s6_pairing).max() < 1e-8


def test_weitzenboeck_variation_equator(geoms):
    geom = geoms["equator"]
    out = weitzenboeck_variation(geom, parallel_section(1.0, 0.0))
    assert abs(out["lhs"] + 16 * np.pi) < 1e-3
    assert out["residual"] < 1e-4
    for cg in geom.charts:
        assert_allclose(cg.s6_pairing, 4.0, atol=1e-10)


def _s6_pairing_kulkarni_nomizu(cg):
    """s/6 |eta|^2 - <W eta, eta> with W = Rm - s/12 (g o g) - (ric0 o g)
    built from the frame Riemann tensor by Kulkarni-Nomizu products."""
    I4 = np.eye(4)
    s = cg.s[..., None, None, None, None]
    W4 = (cg.curv["Rm_frame"] - s / 12.0 * kn_tensor4(I4, I4)
          - kn_tensor4(cg.curv["ric0"], I4))
    W6 = operator6(W4)
    return (cg.s / 6.0 * np.sum(cg.eta6 ** 2, axis=-1)
            - np.einsum("...i,...ij,...j->...", cg.eta6, W6, cg.eta6))


@pytest.mark.parametrize("S, m", [(cp1_line(), MF),
                                  (product_slice(), ht_metric(0.6)),
                                  (perturbed_slice(0.15), ht_metric(0.6))],
                         ids=["cp1-line-fs", "slice-ht0.6",
                              "perturbed-slice-ht0.6"])
def test_s6_pairing_matches_kulkarni_nomizu_weyl(S, m):
    # the pairing vanishes on complex curves of Kaehler surfaces (the first
    # two cases); on the perturbed slice it is of order one
    for cg in surface_geometry(S, m, QUAD).charts:
        assert_allclose(cg.s6_pairing, _s6_pairing_kulkarni_nomizu(cg),
                        rtol=0, atol=1e-12)


def test_weitzenboeck_variation_random_sections(geoms):
    for name, S, m in SURFACES[:3]:
        for seed in (21, 22):
            if S.normal_generators is not None:
                sig = smooth_projected_section(S, seed)
            else:
                sig = smooth_frame_section(seed)
            out = weitzenboeck_variation(geoms[name], sig)
            assert out["residual"] < 1e-4, (name, out)


def test_j_rotated_data_matches_rotated_section(geoms):
    for name, S, m in SURFACES:
        sig = (smooth_frame_section(24) if S.normal_generators is None
               else smooth_projected_section(S, 24))
        for cg in geoms[name].charts:
            got = surfaces.j_rotated_data(section_data(cg, sig))
            want = section_data(cg, sig.rotated())
            assert set(got) == set(want)
            for key, ref in want.items():
                assert_allclose(got[key], ref, rtol=1e-13,
                                atol=1e-13 * np.abs(ref).max(), err_msg=key)


def test_weitzenboeck_variation_evaluates_section_once_per_chart(monkeypatch,
                                                                geoms):
    S = cp1_line()
    sig = smooth_projected_section(S, 23)
    geom = geoms["cp1"]
    # both sides term by term through the public path, J sigma evaluated
    # on its own
    lhs = (second_variation(geom, sig)
           + second_variation(geom, sig.rotated()))
    t_dbar, t_weyl, t_shear = 0.0, 0.0, 0.0
    for cg in geom.charts:
        norm2 = section_data(cg, sig)["norm2"]
        base = cg.w * cg.sqrt_h
        t_dbar += float(np.sum(base * 4.0 * dbar_sq(section_data(cg, sig))))
        t_weyl -= float(np.sum(base * cg.s6_pairing * norm2))
        t_shear -= float(np.sum(base * a_wedge_a_sq(cg.A) * norm2))
    rhs = t_dbar + t_weyl + t_shear
    calls = []
    real = surfaces.section_data
    monkeypatch.setattr(surfaces, "section_data",
                        lambda cg, s: calls.append(cg.chart) or real(cg, s))
    out = weitzenboeck_variation(geom, sig)
    assert calls == [cg.chart for cg in geom.charts]
    assert abs(out["lhs"] - lhs) <= 1e-13 * abs(lhs)
    assert abs(out["rhs"] - rhs) <= 1e-13 * abs(rhs)


def _direct_projection(S, m, cg, sig, order):
    """(<g V, n3>, <g V, n4>) for V = sum_c f_c V_c, as u-jets of ``order``,
    with the adapted frame rebuilt here by Gram-Schmidt."""
    u = [cg.u[:, 0], cg.u[:, 1]]
    Fj = S.fmap(cg.chart, seedn(u, order + 1))
    F = drop(Fj)
    g = m.comps_ring(S.chart_map[cg.chart], F)

    def dot(x, y):
        return sum(g[i][j] * x[i] * y[j] for i in range(4) for j in range(4))

    frame = []
    seeds = [[1.0 if i == s else 0.0 for i in range(4)]
             for s in S.normal_seeds]
    for v in [[partial(f, a) for f in Fj] for a in range(2)] + seeds:
        for b in frame:
            c = dot(v, b)
            v = [v[i] - c * b[i] for i in range(4)]
        r = jsqrt(dot(v, v))
        frame.append([x / r for x in v])
    n3, n4 = frame[2], frame[3]
    # orient n4 like the chart geometry's frame
    sgn = np.sign(sum(jet_array(n4[i], cg.shape) * cg.n[:, i, 1]
                      for i in range(4)))
    n4 = [sgn * x for x in n4]
    uj = seedn(u, order)
    V = [0.0] * 4
    for gen, cf in zip(S.normal_generators, sig.coeffs):
        a = cf(cg.chart, uj)
        V = [V[i] + a * x for i, x in enumerate(gen(cg.chart, uj, F))]
    return dot(V, n3), dot(V, n4)


def _jet_partials(x, shape, order):
    """Value and every coordinate partial up to ``order`` of a jet."""
    out, layer = [jet_array(x, shape)], [x]
    for _ in range(order):
        layer = [partial(y, a) for y in layer for a in range(2)]
        out += [jet_array(y, shape) for y in layer]
    return out


def test_projected_coeff_jets_match_direct_projection():
    # the frame coefficients summed from the chart's generator coefficients
    # against projecting the ambient field sum_c f_c V_c directly
    S = cp1_line()
    sig = smooth_projected_section(S, 32)
    for cg in surface_geometry(S, MF, QuadSpec(12)).charts:
        for order in (1, 2):
            for got, want in zip(sig.coeff_jets(cg, order),
                                 _direct_projection(S, MF, cg, sig, order)):
                for x, y in zip(_jet_partials(got, cg.shape, order),
                                _jet_partials(want, cg.shape, order)):
                    assert_allclose(x, y, rtol=0,
                                    atol=1e-12 * max(1.0, np.abs(y).max()))


def test_normal_section_rejects_wrong_coefficient_count():
    one = lambda chart, u: 1.0 + 0.0 * u[0]
    # the projective line has four generator fields, not one direction
    cg = surface_geometry(cp1_line(), MF, QuadSpec(12)).charts[0]
    with pytest.raises(SectionError):
        NormalSection([one]).coeff_jets(cg)
    # a trivial bundle has the two frame directions, not four
    cg = surface_geometry(product_slice(), MP, QuadSpec(12)).charts[0]
    with pytest.raises(SectionError):
        NormalSection([one] * 4).coeff_jets(cg)


# ------------------------------------------------------------- Lemma 3.15

def test_log_norm_parallel(geoms):
    assert log_norm_check(geoms["slice"], parallel_section(0.8, 0.6)) < 1e-6


def test_log_norm_local_holomorphic(geoms):
    # (a3 + i a4) = 1 + 0.3 z is holomorphic on chart a; the 2d Laplacian of
    # log|1 + 0.3 z|^2 vanishes in any conformal metric, matching Kperp = 0
    sig = NormalSection([lambda chart, u: 1.0 + 0.3 * u[0],
                         lambda chart, u: 0.3 * u[1]])
    res = log_norm_check(geoms["slice"], sig,
                         chart_filter=lambda cg: cg.chart == "a")
    assert res < 1e-4


def test_log_norm_rejects_nonholomorphic(geoms):
    sig = smooth_frame_section(9)
    with pytest.raises(SectionError):
        log_norm_check(geoms["slice"], sig)


def test_log_norm_with_solver_section_on_perturbed_slice(geoms):
    # feed the dbar-energy minimizer back into the Lemma-3.15 check on the
    # curved (non-geodesic) test immersion
    from curv4.stability import (IndexForm, SectionBasis, _accumulate_forms,
                                 near_holomorphic_section)
    geom = geoms["perturbed"]
    basis = SectionBasis(geom.S, 8)
    # not minimal: the form is assembled without assemble_index_form's gate
    Q, G, D = _accumulate_forms(geom, basis)
    out = near_holomorphic_section(geom, IndexForm(Q, G, basis, D))
    assert abs(out["energy"]) < 1e-8
    res = log_norm_check(geom, out["section"])
    assert res < 1e-3


def test_log_norm_on_projective_line_sections(geoms):
    # holomorphic sections of O(1) vanish somewhere; check the identity on
    # the chart where the distinguished section 1 * d/dz2 is bounded away
    # from zero (Kperp = 2 against Laplacian log = -4)
    from curv4.stability import (SectionBasis, assemble_index_form,
                                 near_holomorphic_section)
    geom = geoms["cp1"]
    out = near_holomorphic_section(
        geom, assemble_index_form(geom, SectionBasis(geom.S, 6)))
    assert abs(out["energy"]) < 1e-6
    try:
        res = log_norm_check(geom, out["section"])
        assert res < 1e-3
    except SectionError:
        # the minimizer may be a section with a zero inside the grid; the
        # canonical nonvanishing-on-chart-a section certifies the identity
        ones = lambda chart, u: 1.0 + 0.0 * u[0]
        zero = lambda chart, u: 0.0 * u[0]
        sig = NormalSection([ones, zero, zero, zero])
        res = log_norm_check(geom, sig,
                             chart_filter=lambda cg: cg.chart == "a")
        assert res < 1e-3


# ------------------------------------------------------------- grammar

def test_parse_surface_spec():
    assert parse_surface_spec("equator4").name == "equator4"
    assert parse_surface_spec("cp1-line").name == "cp1-line"
    assert parse_surface_spec("slice(factor=1,point=(0,0))").name == "slice"
    assert parse_surface_spec("perturbed-slice(c=0.2)").name == "perturbed-slice"
    with pytest.raises(SpecParseError):
        parse_surface_spec("wiggly")
