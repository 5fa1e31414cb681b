import numpy as np
from numpy.testing import assert_allclose
import pytest

from curv4 import surfaces
from curv4.errors import (
    ChartDomainError, NonMinimalSurfaceError, SectionError, SpecParseError,
)
from curv4.bivector import ETA_FRAME, kn_tensor4, operator6, wedge
from curv4.curvature import curvature_batch
from curv4.jets import (
    Jet, array as jet_array, drop, grad_array, hess_array, jsqrt, partial,
    seedn,
)
from curv4.metrics import (
    QuadSpec, flat_space, fubini_study, ht_metric, product_spheres,
    round_sphere4, twisted_metric,
)
from curv4.surfaces import (
    NormalSection, a_wedge_a_sq, a_wedge_a_sq_expansion, chern_number,
    cp1_line, dbar_sq, embedding_family, equator_sphere,
    kperp_extrinsic_field, parse_surface_spec, perturbed_slice,
    product_slice, ric_perp_identity_residual, section_data,
    surface_geometry, variational_identity_lemma310,
    weitzenboeck_variation,
)
from oracles import (
    coeff_jets, comps_ring, log_norm_check, normal_connection,
    parallel_section, per_node_geometry, point_geometry, second_order_jets,
    second_variation,
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
    return NormalSection(embedding_family, b.reshape(2, 4))


def smooth_projected_section(S, seed):
    rng = np.random.default_rng(seed)
    return NormalSection(embedding_family,
                         rng.uniform(-0.6, 0.6, size=(4, 4)))


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


def _rm_on(Rm, a, b, c, d):
    """Rm(a, b, c, d) at every node, one direct five-operand einsum."""
    return np.einsum("...ijkl,...i,...j,...k,...l->...", Rm, a, b, c, d)


FRAME_CASES = SURFACES + [
    ("twisted-slice2", product_slice(factor=2, point=(0.3, -0.2)),
     twisted_metric(0.5, 0.05)),
]


@pytest.mark.parametrize("name, S, m", FRAME_CASES,
                         ids=[name for name, _, _ in FRAME_CASES])
def test_adapted_frame_on_every_node(name, S, m, geoms):
    # the Cholesky frame is g-orthonormal and positive at every QUAD node,
    # e_i = c_ia F_a, A equals the normal projection of
    # F_ab + Gamma(F_a, F_b) read on the frames, Rm is paired with the
    # frame as direct contractions give it, and dA = w sqrt(det h)
    geom = geoms[name] if name in geoms else surface_geometry(S, m, QUAD)
    tol = 1e-13
    for cg in geom.charts:
        curv = curvature_batch(m, cg.amb, cg.F)
        g, Rm = curv["g"], curv["Rm"]
        e, n, dF, c = cg.e, cg.n, cg.dF, cg.c
        eye = np.broadcast_to(np.eye(2), cg.shape + (2, 2))
        assert_allclose(np.swapaxes(e, -1, -2) @ g @ e, eye, atol=tol)
        assert_allclose(np.swapaxes(n, -1, -2) @ g @ n, eye, atol=tol)
        assert_allclose(np.swapaxes(e, -1, -2) @ g @ n, 0.0, atol=tol)
        assert np.all(np.linalg.det(np.concatenate([e, n], axis=-1)) > 0)
        assert_allclose(e, np.einsum("...ia,...ka->...ki", c, dF), atol=tol)
        assert_allclose(cg.h, np.swapaxes(dF, -1, -2) @ g @ dF, atol=tol)

        Fj = S.fmap(cg.chart, seedn([cg.u[:, 0], cg.u[:, 1]], 2))
        d2F = np.stack([hess_array(f, cg.shape, 2) for f in Fj], axis=-3)
        dd = d2F + np.einsum("...kij,...ia,...jb->...kab", curv["Gamma"],
                             dF, dF)
        npart = _project_normal_arr(g, n, np.moveaxis(dd, -3, -1))
        Aef = np.einsum("...ia,...jb,...abk->...ijk", c, c, npart)
        A = np.einsum("...ijk,...kl,...ls->...ijs", Aef, g, n)
        assert_allclose(cg.A, A, atol=tol)
        H = Aef[..., 0, 0, :] + Aef[..., 1, 1, :]
        assert_allclose(cg.H_norm,
                        np.sqrt(np.einsum("...i,...ij,...j->...", H, g, H)),
                        atol=tol)

        e1, e2, n3, n4 = e[..., 0], e[..., 1], n[..., 0], n[..., 1]
        assert_allclose(cg.R1234, _rm_on(Rm, e1, e2, n3, n4), atol=tol)
        Rterm = [[sum(_rm_on(Rm, e[..., r], n[..., p], e[..., r],
                             n[..., q]) for r in range(2))
                  for q in range(2)] for p in range(2)]
        assert_allclose(cg.Rterm, np.moveaxis(Rterm, (0, 1), (-2, -1)),
                        atol=tol)
        assert np.array_equal(cg.dA, cg.w * cg.sqrt_h)


def _eta6(curv, cg):
    """eta = e1 ^ e2 + n3 ^ n4 on the orthonormal frame of the record."""
    ef, nf = (np.linalg.inv(curv["frame"]) @ v for v in (cg.e, cg.n))
    return wedge(ef[..., 0], ef[..., 1]) + wedge(nf[..., 0], nf[..., 1])


def _per_node_fields(S, m, cg):
    """The curvature-dependent fields of cg from the curvature record at
    every node itself, by the direct formulas: the per-node oracle of the
    per-orbit evaluation."""
    curv = curvature_batch(m, cg.amb, cg.F)
    g, Gamma, Rm = curv["g"], curv["Gamma"], curv["Rm"]
    e, n, c, dF, sh = cg.e, cg.n, cg.c, cg.dF, cg.shape
    F, g2, n3, n4 = _frame_jets(S, m, cg, 2)
    d2F = np.stack([hess_array(f, sh, 2) for f in F], axis=-3)
    GF = np.einsum("...ipq,...pa->...aiq", Gamma, dF)
    dd = d2F + np.einsum("...aiq,...qb->...iab", GF, dF)
    A = np.einsum("...ia,...jb,...kab,...ks->...ijs", c, c, dd, g @ n)
    # omega_a = <d_a n3 + Gamma(F_a) n3, n4> as a 1-jet in u
    dGF = (np.einsum("...mipq,...pa,...mb->b...aiq", curv["dGamma"], dF, dF)
           + np.einsum("...ipq,...pab->b...aiq", Gamma, d2F))
    g1, n3_1, n4_1 = drop([g2, n3, n4])
    omega = [_jet_dot(g1, [sum(Jet(GF[..., a, i, q], dGF[:, ..., a, i, q])
                               * n3_1[q] for q in range(4))
                           + partial(n3[i], a) for i in range(4)], n4_1)
             for a in range(2)]
    curl = (jet_array(partial(omega[1], 0), sh)
            - jet_array(partial(omega[0], 1), sh))
    eta6 = _eta6(curv, cg)
    y = eta6 @ ETA_FRAME
    weyl = (np.einsum("...i,...ij,...j->...", y[..., :3], curv["wplus"],
                      y[..., :3])
            + np.einsum("...i,...ij,...j->...", y[..., 3:], curv["wminus"],
                        y[..., 3:]))
    Rterm = np.einsum("...ijkl,...im,...jp,...km,...lq->...pq",
                      Rm, e, n, e, n)
    return {"A": A, "H_norm": np.linalg.norm(A[..., 0, 0, :] + A[..., 1, 1, :],
                                             axis=-1),
            "omega": np.stack([jet_array(w, sh) for w in omega], axis=-1),
            "kperp": -curl / cg.sqrt_h,
            "s6_pairing": curv["s"] / 6.0 * np.sum(eta6 ** 2, axis=-1) - weyl,
            "R1234": _rm_on(Rm, e[..., 0], e[..., 1], n[..., 0], n[..., 1]),
            "Rterm": Rterm,
            "jacobi": Rterm + np.einsum("...ijs,...ijt->...st", A, A),
            "M6 spectrum": np.linalg.eigvalsh(curv["M6"])}


MT = twisted_metric(0.5, 0.05)
ORBIT_CASES = [(name, S, m, QUAD) for name, S, m in FRAME_CASES] + [
    ("twisted-perturbed", perturbed_slice(0.15), MT, QUAD),
    ("twisted-slice-origin", product_slice(point=(0.0, 0.0)), MT, QUAD),
    ("twisted-perturbed-point", perturbed_slice(0.15), MT, None),
]


@pytest.mark.parametrize("name, S, m, quad", ORBIT_CASES,
                         ids=[case[0] for case in ORBIT_CASES])
def test_orbit_curvature_matches_per_node_oracle(name, S, m, quad, geoms):
    # the chart evaluates the ambient curvature once per S^1 orbit, at the
    # first node of each radius, and carries it to the other nodes; every
    # field that depends on it agrees with the record at the node itself
    if quad is None:
        charts = [point_geometry(S, m, "a", [0.3, -0.2])]
    elif name in geoms:
        charts = geoms[name].charts
    else:
        charts = surface_geometry(S, m, quad).charts
    n_angles = 1 if quad is None else 2 * quad.n
    for cg in charts:
        radii = np.sum(cg.F.reshape(-1, 2, 2) ** 2, axis=-1)
        assert np.array_equal(cg.orbit, np.arange(len(cg.u)) // n_angles)
        if name == "twisted-slice-origin":
            assert np.all(radii[:, 1] == 0.0)
        got = {key: getattr(cg, key) for key in
               ("A", "H_norm", "omega", "kperp", "s6_pairing", "R1234",
                "Rterm", "jacobi")}
        got["M6 spectrum"] = np.linalg.eigvalsh(cg.M6[cg.orbit])
        for key, want in _per_node_fields(S, m, cg).items():
            err = np.abs(got[key] - want) / np.maximum(1.0, np.abs(want))
            assert err.max() <= 1e-13, (key, err.max())


@pytest.mark.parametrize("S, m, orbits", [(cp1_line(), MF, 16),
                                          (perturbed_slice(0.15), MP, 16)],
                         ids=["cp1-line-fs", "perturbed-slice"])
def test_curvature_is_evaluated_once_per_orbit(monkeypatch, S, m, orbits):
    # 1,024 QUAD nodes per chart: 64 angles on each of 16 radii, and one
    # curvature point per radius
    sizes = []
    real = surfaces.curvature_from_arrays

    def counted(g, dg, d2g):
        sizes.append(len(g))
        return real(g, dg, d2g)

    monkeypatch.setattr(surfaces, "curvature_from_arrays", counted)
    geom = surface_geometry(S, m, QUAD)
    assert sizes == [orbits, orbits]
    assert [len(cg.M6) for cg in geom.charts] == sizes


CARRY_CASES = FRAME_CASES + [
    ("twisted-perturbed", perturbed_slice(0.15), MT),
    ("twisted-slice-off", product_slice(point=(0.2, 0.4)), MT),
]
CARRIED_FIELDS = ("F", "dF", "h", "sqrt_h", "dA", "c", "e", "n", "p", "dp",
                  "A", "H_norm", "omega", "kperp", "s6_pairing", "R1234",
                  "Rterm", "jacobi")


@pytest.mark.parametrize("quad", [32, 33])
@pytest.mark.parametrize("name, S, m", CARRY_CASES,
                         ids=[name for name, _, _ in CARRY_CASES])
def test_carried_geometry_matches_per_node_path(name, S, m, quad):
    # the geometry built at one node per radius and carried by the rotation
    # against the same class with one angle per radius, i.e. every node
    # computed over its own jets; an odd quad puts a radius on the equator
    for cg in surface_geometry(S, m, QuadSpec(quad)).charts:
        ref = surfaces.ChartGeometry(S, m, cg.chart, cg.u, cg.w)
        assert len(cg.M6) == quad // 2 + (quad % 2) * (cg.chart == "a")
        for key in CARRIED_FIELDS:
            got, want = getattr(cg, key), getattr(ref, key)
            err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            assert err.max() <= 1e-13, (key, err.max())


# the rotation weights (k1, k2) of each chart, and on cp1-line the charge of
# each generator pair, as ChartGeometry measures them
TURNS = {
    "slice": {"a": ((1, 0), ()), "b": ((1, 0), ())},
    "equator": {"a": ((1, 0), ()), "b": ((-1, 0), ())},
    "cp1": {"a": ((1, 0), (0, 1)), "b": ((1, 0), (1, 0))},
    "perturbed": {"a": ((1, 1), ()), "b": ((1, -1), ())},
    "twisted-slice2": {"a": ((0, 1), ()), "b": ((0, 1), ())},
    "twisted-perturbed": {"a": ((1, 1), ()), "b": ((1, -1), ())},
    "twisted-slice-off": {"a": ((1, 0), ()), "b": ((1, 0), ())},
}


@pytest.mark.parametrize("quad", [8, 32, 33])
@pytest.mark.parametrize("name, S, m", CARRY_CASES,
                         ids=[name for name, _, _ in CARRY_CASES])
def test_rotation_weights_and_charges_are_measured(name, S, m, quad):
    for cg in surface_geometry(S, m, QuadSpec(quad)).charts:
        assert (cg.weights, cg.charges) == TURNS[name][cg.chart]
        # one angle per radius turns by nothing
        one = point_geometry(S, m, cg.chart, [0.3, -0.2])
        assert (one.weights, one.charges) == ((0, 0), (0,) * len(cg.charges))


def test_wrong_rotation_weight_is_rejected():
    # the carry checks the measured weights and generator charges at every
    # node; a surface that does not turn with u raises the typed error
    # instead of giving a wrong geometry
    def wobble(chart, u):
        # a slice whose second-factor point moves with Re u
        return [u[0], u[1], 0.3 + 0.1 * u[0], -0.2]

    cp1 = cp1_line()
    mispaired = [cp1.normal_generators[i] for i in (0, 2, 1, 3)]
    for bad, m in [
            (surfaces.SurfaceImmersion("wobble", {"a": "aa", "b": "ba"},
                                       wobble), MP),
            (surfaces.SurfaceImmersion(cp1.name, cp1.chart_map, cp1.fmap,
                                       normal_generators=mispaired), MF)]:
        with pytest.raises(SpecParseError, match="weights and charges"):
            surface_geometry(bad, m, QuadSpec(8))
        # one angle per radius carries by the identity
        assert point_geometry(bad, m, "a", [0.3, -0.2]).shape == (1,)
    # the seeds turn with Phi only when they span one factor plane; seeds
    # (1, 3) of the perturbed slice would carry a wrong normal frame
    S = perturbed_slice(0.15)
    with pytest.raises(ValueError, match="one factor plane"):
        surfaces.SurfaceImmersion(S.name, S.chart_map, S.fmap,
                                  normal_seeds=(1, 3))


@pytest.mark.parametrize("name, S, m, charge", [
    ("slice", product_slice(), MP, 0),
    ("equator", equator_sphere(), MR, 0),
    ("twisted-slice-off", product_slice(point=(0.3, 0.0)), MT, 0),
    ("perturbed", perturbed_slice(0.15), MP, None),
], ids=["slice", "equator", "twisted-slice-off", "perturbed"])
def test_frame_charge_is_measured(name, S, m, charge, geoms):
    # the Gram-Schmidt frame of the slices and the equator is carried by
    # the ambient rotation alone, n = Phi n_rep; that of the perturbed slice
    # turns by angles that are no one multiple of the node's, which the
    # chart records without an error; one angle per radius turns by nothing
    geom = geoms[name] if name in geoms else surface_geometry(S, m, QUAD)
    for cg in geom.charts:
        assert cg.frame_charge == charge
        z = cg.u @ [1.0, 1.0j]
        th = np.angle(z * np.conj(z[::cg.n_angles][cg.orbit]))
        carried = surfaces._rot(th, cg.weights) @ cg.n[::cg.n_angles][cg.orbit]
        assert bool(np.abs(carried - cg.n).max() <= 1e-12) is (charge == 0)
        assert point_geometry(S, m, cg.chart, [0.3, -0.2]).frame_charge == 0


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


def test_geometry_memory_is_bounded():
    # tracemalloc sees numpy's buffers.  The second of two builds is
    # measured, so one-time module state is not counted.  Since the charts
    # build their jets and the curvature at one node per radius and carry
    # them to the others, and keep no second derivatives, this build
    # retains 1.47 MiB and peaks at 3.08 MiB (numpy 2.4.6; 2.29 and 9.99
    # MiB with jets at every node and the curvature once per T^2 orbit,
    # 2.90 and 16.95 MiB with the record at every node, 18.08 and 26.19 MiB
    # when each chart kept the whole record); the bounds are about 5%
    # above.  Keeping a node-sized curvature tensor on the chart exceeds
    # them.
    import gc
    import tracemalloc
    S, quad = cp1_line(), QuadSpec(32)
    surface_geometry(S, MF, quad)
    gc.collect()
    tracemalloc.start()
    try:
        geom = surface_geometry(S, MF, quad)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(geom.charts) == 2
    assert retained <= 1.54 * 2 ** 20
    assert peak <= 3.24 * 2 ** 20


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
    curv = curvature_batch(MP, cg0.amb, cg0.F)
    cov = (sp - sm) / (2 * h) + np.einsum(
        "kij,i,j->k", curv["Gamma"][0], cg0.dF[0] @ X, s0)
    gmat, nfr = curv["g"][0], cg0.n[0]
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
        geom = geoms[name]
        for cg in geom.charts:
            Rm = curvature_batch(geom.m, cg.amb, cg.F)["Rm"]
            k13 = np.einsum("...ijkl,...i,...j,...k,...l->...",
                            Rm, cg.e[..., 0], cg.n[..., 0],
                            cg.e[..., 0], cg.n[..., 0])
            k14 = np.einsum("...ijkl,...i,...j,...k,...l->...",
                            Rm, cg.e[..., 0], cg.n[..., 1],
                            cg.e[..., 0], cg.n[..., 1])
            assert np.abs(cg.kperp - (k13 + k14)).max() < 1e-8


def test_second_variation_density_matches_ambient_formula_with_shear(geoms):
    # the perturbed slice is the one test surface with A != 0, so the shear
    # part of the Jacobi block is live there; the oracle is the ambient
    # formula |nabla sigma|^2 - sum_r Rm(e_r, sigma, e_r, sigma) - |A^sigma|^2
    sig = smooth_frame_section(31)
    for cg in geoms["perturbed"].charts:
        Rm = curvature_batch(MP, cg.amb, cg.F)["Rm"]
        d = section_data(cg, sig)
        sig_amb = (d["c3"][:, None] * cg.n[..., 0]
                   + d["c4"][:, None] * cg.n[..., 1])
        curv = np.einsum("nijkl,nir,nj,nkr,nl->n",
                         Rm, cg.e, sig_amb, cg.e, sig_amb)
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


def _s6_pairing_kulkarni_nomizu(cg, m):
    """s/6 |eta|^2 - <W eta, eta> with W = Rm - s/12 (g o g) - (ric0 o g)
    built from the frame Riemann tensor by Kulkarni-Nomizu products, and
    eta read on the frame of the same record."""
    curv = curvature_batch(m, cg.amb, cg.F)
    I4 = np.eye(4)
    s = curv["s"][..., None, None, None, None]
    W4 = (curv["Rm_frame"] - s / 12.0 * kn_tensor4(I4, I4)
          - kn_tensor4(curv["ric0"], I4))
    W6 = operator6(W4)
    eta6 = _eta6(curv, cg)
    return (curv["s"] / 6.0 * np.sum(eta6 ** 2, axis=-1)
            - np.einsum("...i,...ij,...j->...", eta6, W6, eta6))


@pytest.mark.parametrize("S, m", [(cp1_line(), MF),
                                  (product_slice(), ht_metric(0.6)),
                                  (perturbed_slice(0.15), ht_metric(0.6)),
                                  (perturbed_slice(0.15), MT)],
                         ids=["cp1-line-fs", "slice-ht0.6",
                              "perturbed-slice-ht0.6",
                              "perturbed-slice-twisted"])
def test_s6_pairing_matches_kulkarni_nomizu_weyl(S, m):
    # the pairing vanishes on complex curves of Kaehler surfaces (the first
    # two cases); on the perturbed slice it is of order one.  On the
    # product metrics W+ and W- do not change under the factor rotations,
    # so only the twisted metric tells the node's frame from the orbit
    # representative's
    for cg in surface_geometry(S, m, QUAD).charts:
        assert_allclose(cg.s6_pairing, _s6_pairing_kulkarni_nomizu(cg, m),
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


def _frame_jets(S, m, cg, order):
    """(F, g, n3, n4) as u-jets of ``order``: the immersion, the metric
    along it and the normal frame rebuilt here by Gram-Schmidt, n4
    oriented like the chart geometry's frame."""
    Fj = S.fmap(cg.chart, seedn([cg.u[:, 0], cg.u[:, 1]], order + 1))
    g = comps_ring(m, S.chart_map[cg.chart], drop(Fj))
    frame = []
    seeds = [[1.0 if i == s else 0.0 for i in range(4)]
             for s in S.normal_seeds]
    for v in [[partial(f, a) for f in Fj] for a in range(2)] + seeds:
        for b in frame:
            c = _jet_dot(g, v, b)
            v = [v[i] - c * b[i] for i in range(4)]
        r = jsqrt(_jet_dot(g, v, v))
        frame.append([x / r for x in v])
    n3, n4 = frame[2], frame[3]
    sgn = np.sign(sum(jet_array(n4[i], cg.shape) * cg.n[:, i, 1]
                      for i in range(4)))
    return drop(Fj), g, n3, [sgn * x for x in n4]


def _jet_dot(g, x, y):
    return sum(g[i][j] * x[i] * y[j] for i in range(4) for j in range(4))


def _direct_projection(S, m, cg, sig, order):
    """(<g V, n3>, <g V, n4>) for V = sum_c f_c V_c, as u-jets of ``order``,
    with the adapted frame rebuilt here by Gram-Schmidt."""
    F, g, n3, n4 = _frame_jets(S, m, cg, order)
    uj = seedn([cg.u[:, 0], cg.u[:, 1]], order)
    Y = sig.family(cg.chart, uj)
    V = [0.0] * 4
    for gen, wc in zip(S.normal_generators, sig.W):
        a = sum(w * y for w, y in zip(wc, Y))
        V = [V[i] + a * x for i, x in enumerate(gen(cg.chart, uj, F))]
    return _jet_dot(g, V, n3), _jet_dot(g, V, n4)


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
        d2p = second_order_jets(S, MF, cg)[1]
        for order in (1, 2):
            for got, want in zip(coeff_jets(sig, cg, order, d2p),
                                 _direct_projection(S, MF, cg, sig, order)):
                for x, y in zip(_jet_partials(got, cg.shape, order),
                                _jet_partials(want, cg.shape, order)):
                    assert_allclose(x, y, rtol=0,
                                    atol=1e-12 * max(1.0, np.abs(y).max()))


def test_normal_section_rejects_wrong_coefficient_count():
    one = lambda chart, u: [1.0]
    # the projective line has four generator fields, not one direction
    cg = surface_geometry(cp1_line(), MF, QuadSpec(12)).charts[0]
    for W in ([[1.0]], np.ones((1, 1, 3))):
        with pytest.raises(SectionError):
            coeff_jets(NormalSection(one, W), cg)
        with pytest.raises(SectionError):
            section_data(cg, NormalSection(one, W))
    # a trivial bundle has the two frame directions, not four
    cg = surface_geometry(product_slice(), MP, QuadSpec(12)).charts[0]
    with pytest.raises(SectionError):
        coeff_jets(NormalSection(one, np.ones((4, 1))), cg)
    with pytest.raises(SectionError):
        section_data(cg, NormalSection(one, np.ones((4, 1))).rotated())


def test_section_data_rejects_wrong_family_length(geoms):
    # W has 3 columns, the embedding family 4 members
    cg = geoms["slice"].charts[0]
    with pytest.raises(SectionError, match="column"):
        section_data(cg, NormalSection(embedding_family, np.ones((2, 3))))


def covariant_coeffs(omega, v3, v4, d3, d4):
    """(nabla^perp_{d_a} sigma) frame coefficients, a = 1, 2, from the frame
    coefficients (v3, v4) and their coordinate gradients (d3, d4): the
    element-by-element product rule, independent of the factored rows of
    ``section_data``."""
    return d3 - omega * v4[..., None], d4 + omega * v3[..., None]


@pytest.mark.parametrize("name", ["cp1", "slice", "perturbed"])
def test_section_data_matches_jets_oracle(name, geoms):
    # the contract-first arrays of a batch of sections (W with two
    # trailing axes, and its J rotation) against each section's frame
    # coefficients summed jet by jet, then covariant_coeffs
    geom = geoms[name]
    C = geom.S.n_directions
    W = np.random.default_rng(41).normal(size=(C, 4, 2, 3))
    for sig in (NormalSection(embedding_family, W),
                NormalSection(embedding_family, W).rotated()):
        for cg in geom.charts:
            got = section_data(cg, sig)
            assert got["c3"].shape == (2, 3) + cg.shape
            assert got["D3"].shape == (2, 3) + cg.shape + (2,)
            for t in np.ndindex(2, 3):
                one = NormalSection(sig.family, W[..., t[0], t[1]], sig.turns)
                c3, c4 = coeff_jets(one, cg, 1)
                v3, v4 = jet_array(c3, cg.shape), jet_array(c4, cg.shape)
                cov = covariant_coeffs(cg.omega, v3, v4,
                                       grad_array(c3, cg.shape, 2),
                                       grad_array(c4, cg.shape, 2))
                want = {"c3": v3, "c4": v4,
                        "D3": np.einsum("nia,na->ni", cg.c, cov[0]),
                        "D4": np.einsum("nia,na->ni", cg.c, cov[1])}
                for key, ref in want.items():
                    assert_allclose(got[key][t], ref, rtol=0,
                                    atol=1e-12 * np.abs(ref).max(),
                                    err_msg=key)


# ------------------------------------------------------------- Lemma 3.15

def test_log_norm_parallel(geoms):
    assert log_norm_check(geoms["slice"], parallel_section(0.8, 0.6)) < 1e-6


def test_log_norm_local_holomorphic(geoms):
    # (a3 + i a4) = 1 + 0.3 z is holomorphic on chart a; the 2d Laplacian of
    # log|1 + 0.3 z|^2 vanishes in any conformal metric, matching Kperp = 0
    sig = NormalSection(lambda chart, u: [1.0, u[0], u[1]],
                        [[1.0, 0.3, 0.0], [0.0, 0.0, 0.3]])
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
    from curv4.stability import (IndexForm, SectionBasis, _charge_blocks,
                                 near_holomorphic_section)
    # its frame does not turn by one charge: on the per-node geometry the
    # basis is one block
    geom = per_node_geometry(geoms["perturbed"])
    basis = SectionBasis(geom.S, 8)
    # not minimal: the form is assembled without assemble_index_form's gate
    out = near_holomorphic_section(
        geom, IndexForm(_charge_blocks(geom, basis), basis))
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
        sig = NormalSection(lambda chart, u: [1.0], [[1.0], [0.0], [0.0],
                                                     [0.0]])
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
