import numpy as np
from numpy.testing import assert_allclose
import pytest

from curv4.errors import NonMinimalSurfaceError, RefinementError, SpecParseError
from curv4.jets import array as _arr, partial as _jd
from curv4.metrics import (QuadSpec, fubini_study, ht_metric, product_spheres,
                           round_sphere4, twisted_metric)
from curv4.sphharm import real_harmonics
from curv4.stability import (
    IndexForm, SectionBasis, assemble_index_form, near_holomorphic_section,
    refine_until_stable, theorem_c_margins, _charge_blocks,
)
from curv4.surfaces import (
    NormalSection, averaged_second_variation, chern_number, cp1_line, dbar_sq,
    equator_sphere, perturbed_slice, product_slice, section_data,
    surface_geometry, weitzenboeck_variation,
)
from oracles import (
    coeff_jets, curvature_override, dense_forms, parallel_section,
    per_node_geometry, point_geometry, second_order_jets, second_variation,
)

QUAD = QuadSpec(32)
MP = product_spheres(1.0, 1.0)
MR = round_sphere4(1.0)
MF = fubini_study()


@pytest.fixture(scope="module")
def geoms():
    """QUAD geometries of the test surfaces by surface name, built once for
    the module."""
    return {S.name: surface_geometry(S, m, QUAD) for S, m in (
        (product_slice(), MP), (equator_sphere(), MR), (cp1_line(), MF),
        (perturbed_slice(0.15), MP))}


class LinearSection:
    """Weighted sum of normal sections, summed jet by jet: the oracle for
    combinations the library forms by linearity."""

    def __init__(self, parts, weights):
        self.parts = list(parts)
        self.weights = np.asarray(weights, dtype=float)

    def coeff_jets(self, cg, order=1, d2p=None):
        c3 = 0.0
        c4 = 0.0
        for w, p in zip(self.weights, self.parts):
            if w == 0.0:
                continue
            a3, a4 = coeff_jets(p, cg, order, d2p)
            c3 = c3 + w * a3
            c4 = c4 + w * a4
        return c3, c4


def element(basis, j):
    """Basis element j as a section: the basis family with a unit W."""
    return basis.as_section(np.eye(basis.dim)[j])


def charge_vectors(basis):
    """The element coefficients of every charge-basis vector, (dim, dim)."""
    return basis.coefficients(np.arange(basis.dim), np.eye(basis.dim))


def block_combination(form, rng):
    """Random coefficients y of every charge block of form, and the element
    coefficients of their sum."""
    ys = [rng.normal(size=len(b.vecs)) for b in form.blocks]
    return ys, sum(b.coefficients(form.basis, y)
                   for b, y in zip(form.blocks, ys))


def test_harmonics_orthonormal_on_unit_sphere():
    from curv4.metrics import sphere_chart_nodes
    L = 5
    nb = (L + 1) ** 2
    G = np.zeros((nb, nb))
    for chart, u, w in sphere_chart_nodes(24):
        Y = np.stack(real_harmonics(chart, [u[:, 0], u[:, 1]], L), axis=-1)
        q = 1 + u[:, 0] ** 2 + u[:, 1] ** 2
        G += np.einsum("n,na,nb->ab", w * 4.0 / q ** 2, Y, Y)
    assert np.abs(G - np.eye(nb)).max() < 1e-12


# ------------------------------------------------------------- assembly

@pytest.mark.parametrize("name, eigenvalue, multiplicity", [
    ("cp1-line", lambda k: 4 * k * (k + 2), lambda k: 4 * (k + 1)),
    ("slice", lambda k: k * (k + 1), lambda k: 2 * (2 * k + 1)),
    ("equator4", lambda k: k * (k + 1) - 2, lambda k: 2 * (2 * k + 1)),
], ids=["cp1-line-fs", "slice-product", "equator4-round4"])
def test_equator_spectrum_L4(geoms, name, eigenvalue, multiplicity):
    # the exact spectra of the homogeneous spheres, one level per harmonic
    # degree k <= 4 of the basis: on the projective line of area pi the
    # Jacobi operator acts on the sections of O(1); the slice has the
    # Laplacian on two flat line bundles, the equator -Delta - 2 on them
    geom = geoms[name]
    form = assemble_index_form(geom, SectionBasis(geom.S, 4))
    want = np.concatenate([np.full(multiplicity(k), float(eigenvalue(k)))
                           for k in range(5)])
    assert len(form.spectrum) == form.mass_rank == len(want)
    assert_allclose(form.spectrum, want, rtol=0, atol=1e-10)
    assert form.morse_index == np.sum(want < 0)
    assert form.nullity == np.sum(want == 0)


def test_equator_spectrum_L8_multiplicities(geoms):
    geom = geoms["equator4"]
    form = assemble_index_form(geom, SectionBasis(geom.S, 8))
    lam = form.spectrum
    for expect, mult, lo in (( -2.0, 2, 0), (0.0, 6, 2), (4.0, 10, 8)):
        got = lam[lo:lo + mult]
        assert np.abs(got - expect).max() < 0.01 * max(1.0, abs(expect))


def test_slice_and_cp1_stable(geoms):
    geom = geoms["slice"]
    form = assemble_index_form(geom, SectionBasis(geom.S, 4))
    assert form.morse_index == 0
    assert form.nullity >= 2          # parallel sections are zero modes
    geom = geoms["cp1-line"]
    form2 = assemble_index_form(geom, SectionBasis(geom.S, 4))
    assert form2.morse_index == 0


@pytest.mark.parametrize("L", [2, 3, 4, 6])
def test_mass_rank_on_cp1_line(L, geoms):
    # the MASS_COND_MAX cut keeps 2(L+1)(L+2) of the 4(L+1)^2 directions
    geom = geoms["cp1-line"]
    form = assemble_index_form(geom, SectionBasis(geom.S, L))
    assert form.basis.dim == 4 * (L + 1) ** 2
    assert form.mass_rank == 2 * (L + 1) * (L + 2)


def test_assembly_matches_quadratic_form(geoms):
    # y^T Q y = delta^2(zeta) for single columns y of the charge blocks
    rng = np.random.default_rng(1)
    for name in ("equator4", "cp1-line"):
        geom = geoms[name]
        basis = SectionBasis(geom.S, 2)
        form = assemble_index_form(geom, basis)
        for i in rng.choice(len(form.blocks), size=3, replace=False):
            b = form.blocks[i]
            k = rng.integers(len(b.vecs))
            direct = second_variation(geom, basis.as_section(
                b.coefficients(basis, np.eye(len(b.vecs))[k])))
            assert abs(direct - b.Q[k, k]) < 1e-8
        # and for a random combination of all blocks: they do not couple
        ys, w = block_combination(form, rng)
        assert abs(second_variation(geom, basis.as_section(w))
                   - sum(y @ b.Q @ y for b, y in zip(form.blocks, ys))) < 1e-6


def _partials(x, shape, order):
    """Value and every coordinate partial up to ``order`` of a jet."""
    out = [_arr(x, shape)]
    layer = [x]
    for _ in range(order):
        layer = [_jd(y, a) for y in layer for a in range(2)]
        out += [_arr(y, shape) for y in layer]
    return out


@pytest.mark.parametrize("make_surface, metric", [
    (cp1_line, MF),          # projected generator fields
    (product_slice, MP),     # adapted frame
])
def test_as_section_matches_sum_of_elements(make_surface, metric):
    S = make_surface()
    basis = SectionBasis(S, 3)
    yc = np.random.default_rng(2).normal(size=basis.dim)
    w = charge_vectors(basis) @ yc
    fast = basis.as_section(w)
    ref = LinearSection([element(basis, j) for j in range(basis.dim)], w)
    for cg in surface_geometry(S, metric, QuadSpec(12)).charts:
        d2p = second_order_jets(S, metric, cg)[1]
        # section_data of the combination against the basis' node data, on
        # the charge basis at the first node of each run
        _, V = basis.node_data(cg)
        d = section_data(cg, fast)
        r = slice(None, None, cg.n_angles)
        assert_allclose(d["c3"][r], V[:, 0] @ yc, rtol=0, atol=1e-12)
        assert_allclose(d["c4"][r], V[:, 1] @ yc, rtol=0, atol=1e-12)
        for order in (1, 2):
            for a, b in zip(coeff_jets(fast, cg, order, d2p),
                            ref.coeff_jets(cg, order, d2p)):
                for x, y in zip(_partials(a, cg.shape, order),
                                _partials(b, cg.shape, order)):
                    assert_allclose(x, y, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["cp1-line", "slice", "equator4",
                                  "perturbed-slice"])
def test_node_rows_are_section_data_of_unit_sections(name, geoms):
    # node_data's rows of charge-basis vector j against the batched
    # section_data of the vectors as sections, at the first node of each
    # run: V[n, s, j] = c3, c4 and X[n, 2 s + i, j] = D3_i, D4_i of section j
    geom = geoms[name]
    basis = SectionBasis(geom.S, 4)
    units = basis.as_section(charge_vectors(basis))
    for cg in geom.charts:
        X, V = basis.node_data(cg)
        runs = len(cg.M6)
        assert X.shape == (runs, 4, basis.dim)
        assert V.shape == (runs, 2, basis.dim)
        d = {k: v[:, ::cg.n_angles]
             for k, v in section_data(cg, units).items()}
        for got, rows in ((V, [d["c3"][..., None], d["c4"][..., None]]),
                          (X, [d["D3"], d["D4"]])):
            want = np.moveaxis(np.concatenate(rows, axis=-1), 0, -1)
            assert np.all(np.abs(got - want)
                          <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("make_surface, metric", [
    (cp1_line, MF), (product_slice, MP), (equator_sphere, MR),
])
def test_mass_and_dbar_matrices_match_section_integrals(make_surface,
                                                        metric, geoms):
    # w^T G w = int |sigma|^2 and w^T D w = 2 int |dbar sigma|^2
    geom = geoms[make_surface().name]
    assert geom.m is metric
    form = assemble_index_form(geom, SectionBasis(geom.S, 4))
    ys, w = block_combination(form, np.random.default_rng(5))
    sigma = form.basis.as_section(w)
    mass = geom.integrate([section_data(cg, sigma)["norm2"]
                           for cg in geom.charts])
    dbar = geom.integrate([dbar_sq(section_data(cg, sigma))
                           for cg in geom.charts])
    for M, want in (("G", mass), ("D", 2.0 * dbar)):
        assert_allclose(sum(y @ getattr(b, M) @ y
                            for b, y in zip(form.blocks, ys)), want,
                        rtol=1e-8)


# the five cases of the charge-graded assembly against its per-node oracle
CHARGE_CASES = {
    "cp1-line": (cp1_line(), MF),
    "slice": (product_slice(), MP),
    "equator4": (equator_sphere(), MR),
    "twisted-slice-off": (product_slice(point=(0.3, 0.0)),
                          twisted_metric(0.5, 0.05)),
    "slice-factor2": (product_slice(factor=2), MP),
}
_ORACLE_GEOMS = {}


def _with_oracle(name, quad):
    """The geometry of a CHARGE_CASES surface at quad and its per-node
    copy, built once for the module."""
    key = (name, quad)
    if key not in _ORACLE_GEOMS:
        geom = surface_geometry(*CHARGE_CASES[name], QuadSpec(quad))
        _ORACLE_GEOMS[key] = geom, per_node_geometry(geom)
    return _ORACLE_GEOMS[key]


def _dbar_spectrum(form):
    return np.sort(np.concatenate([
        np.linalg.eigvalsh(b.Z.T @ b.D @ b.Z) for b in form.blocks]))


@pytest.mark.parametrize("quad, L", [(32, 2), (32, 4), (32, 6), (32, 10),
                                     (8, 7)])
@pytest.mark.parametrize("name", list(CHARGE_CASES))
def test_charge_blocks_match_per_node_oracle(name, quad, L):
    # on the per-node geometry the charge basis is one block, summed over
    # every node: the dense forms.  Each charge block is its restriction,
    # nothing couples two blocks, and the spectra agree; at L = quad - 1
    # charge differences reach 2 quad, where the angular rule aliases
    geom, dense = _with_oracle(name, quad)
    basis = SectionBasis(geom.S, L)
    form = assemble_index_form(geom, basis)
    oracle = IndexForm(_charge_blocks(dense, basis), basis)
    (whole,) = oracle.blocks
    assert np.all(whole.signs == 1.0)
    pos = np.empty(basis.dim, dtype=int)
    pos[whole.vecs] = np.arange(basis.dim)
    for M in ("Q", "G", "D"):
        full = getattr(whole, M)
        scale = np.abs(full).max()
        off = np.ones(full.shape, dtype=bool)
        for b in form.blocks:
            i = np.ix_(pos[b.vecs], pos[b.vecs])
            assert np.abs(full[i] * np.outer(b.signs, b.signs)
                          - getattr(b, M)).max() <= 1e-12 * scale, M
            off[i] = False
        assert np.abs(full[off]).max() <= 1e-12 * scale, M
    assert form.mass_rank == oracle.mass_rank
    for got, want in ((form.spectrum, oracle.spectrum),
                      (_dbar_spectrum(form), _dbar_spectrum(oracle))):
        assert_allclose(got, want, rtol=0,
                        atol=1e-12 * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize("name, splits", [
    ("equator4", [([0, 0], 2, 2), ([1, -1], 0, 4)]),
    ("cp1-line", [([0, 1], 0, 2), ([1, 0], 0, 2)]),
    ("slice", [([0, 0], 0, 2)]),
])
def test_index_by_charge(geoms, name, splits):
    # the unstable and null modes by charge at L = 6: on the equator the
    # constant sections (index 2) and the parallel ones at charge 0, and
    # the rotations at charge +-(1, -1); on the projective line the
    # holomorphic sections d/dz2 and z1 d/dz2
    geom = geoms[name]
    form = assemble_index_form(geom, SectionBasis(geom.S, 6))
    got = form.index_by_charge
    assert got == [{"charges": c, "index": i, "nullity": z}
                   for c, i, z in splits]
    assert sum(e["index"] for e in got) == form.morse_index
    assert sum(e["nullity"] for e in got) == form.nullity


def test_assemble_rejects_frame_without_one_charge(geoms):
    # the perturbed slice's frame does not turn by one charge; with its
    # minimality gate passed, assembly raises the typed error
    import copy
    geom = copy.copy(geoms["perturbed-slice"])
    geom.min_residual = 0.0
    with pytest.raises(SpecParseError, match="one charge"):
        assemble_index_form(geom, SectionBasis(geom.S, 2))


def test_index_monotone_in_L(geoms):
    geom = geoms["slice"]
    prev = -1
    for L in (2, 4, 6, 8):
        form = assemble_index_form(curvature_override(geom, 1.3),
                                   SectionBasis(geom.S, L))
        assert form.morse_index >= prev
        prev = form.morse_index


def test_assemble_rejects_nonminimal(geoms):
    geom = geoms["perturbed-slice"]
    with pytest.raises(NonMinimalSurfaceError):
        assemble_index_form(geom, SectionBasis(geom.S, 2))


# ------------------------------------------------------------- holomorphic

def _near_holomorphic(geom, L):
    return near_holomorphic_section(
        geom, assemble_index_form(geom, SectionBasis(geom.S, L)))


def test_near_holomorphic_energies(geoms):
    out = _near_holomorphic(geoms["slice"], 4)
    assert abs(out["energy"]) < 1e-8
    out = _near_holomorphic(geoms["equator4"], 4)
    assert abs(out["energy"]) < 1e-8
    out = _near_holomorphic(geoms["cp1-line"], 8)
    assert abs(out["energy"]) < 1e-4


def test_near_holomorphic_section_is_holomorphic_pointwise(geoms):
    out = _near_holomorphic(geoms["slice"], 4)
    sig = out["section"]
    cg = point_geometry(product_slice(), MP, "a", [0.3, -0.4])
    assert dbar_sq(section_data(cg, sig))[0] < 1e-10
    # J sigma is then holomorphic as well
    assert dbar_sq(section_data(cg, sig.rotated()))[0] < 1e-10


def test_assembly_memory_is_bounded(geoms):
    # tracemalloc sees numpy's buffers; the second of two assemblies at
    # L = 6 (dim 196) on the quad-32 cp1-line is measured.  With the rows
    # read at the first node of each run only (16 of 1,024 a chart) and
    # every charge block assembled on its own, it peaks at 0.93 MiB (numpy
    # 2.4.6; 13.46 MiB with the dense assembly from the rows at every
    # node); the bound is about 5% above.  One more copy of a chart's rows
    # (0.10 MiB) exceeds it.
    import gc
    import tracemalloc
    geom = geoms["cp1-line"]
    basis = SectionBasis(geom.S, 6)
    assemble_index_form(geom, basis)
    gc.collect()
    tracemalloc.start()
    try:
        form = assemble_index_form(geom, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(b.vecs) for b in form.blocks) == form.basis.dim == 196
    assert peak <= 0.97 * 2 ** 20


def test_surface_command_assembles_each_level_once(tmp_path, monkeypatch):
    import json
    from curv4 import stability
    from curv4.cli import main
    levels = []
    real = stability._charge_blocks

    def counted(geom, basis, *args, **kw):
        levels.append(basis.L)
        return real(geom, basis, *args, **kw)

    monkeypatch.setattr(stability, "_charge_blocks", counted)
    out = tmp_path / "surf.json"
    assert main(["surface", "--metric", "product(a=1,b=1)",
                 "--surface", "slice(factor=1)", "--quad", "16",
                 "--out", str(out)]) == 0
    hist = json.loads(out.read_text())["refinement_history"]
    assert levels == [h[0] for h in hist]


# ------------------------------------------------------------- refinement

def test_refine_until_stable(geoms):
    geom = geoms["equator4"]

    def op(L):
        return assemble_index_form(geom, SectionBasis(geom.S, L))

    out = refine_until_stable(op, L0=2, L_max=10)
    assert out["morse_index"] == 2
    assert out["nullity"] == 6
    assert out["L_used"] <= 8

    gs = geoms["slice"]
    out2 = refine_until_stable(
        lambda L: assemble_index_form(gs, SectionBasis(gs.S, L)),
        L0=2, L_max=10)
    assert out2["morse_index"] == 0

    gc = geoms["cp1-line"]
    out3 = refine_until_stable(
        lambda L: assemble_index_form(gc, SectionBasis(gc.S, L)),
        L0=2, L_max=10)
    assert out3["morse_index"] == 0


def test_refine_raises_without_stabilization():
    class Fake:
        def __init__(self, L):
            self.morse_index = L
            self.nullity = 0

    with pytest.raises(RefinementError):
        refine_until_stable(lambda L: Fake(L), L0=2, L_max=8)


def test_refine_rejects_fewer_than_three_levels():
    # L0, L0 + 2 and L0 + 4 must all be at most L_max; else nothing is built
    built = []
    with pytest.raises(ValueError, match="L0 \\+ 4"):
        refine_until_stable(built.append, L0=8, L_max=10)
    assert built == []


# ------------------------------------------------------------- fixture

def test_synthetic_instability_fixture(geoms):
    # constant ambient curvature kappa injected in place of the curvature
    # term, A = 0 and parallel sections on the product slice:
    # delta^2(sigma) = -2 kappa Area exactly
    geom = geoms["slice"]
    kappa = 0.8
    fixture = curvature_override(geom, kappa)
    fix = weitzenboeck_variation(fixture, parallel_section(1.0, 0.0))[
        "index_two"]
    assert_allclose(fix["d2_sigma"], -2 * kappa * 4 * np.pi, rtol=1e-10)
    assert fix["unstable_pair"]
    assert fix["d2_pair"][0] < 0 and fix["d2_pair"][1] < 0

    form = assemble_index_form(fixture, SectionBasis(geom.S, 4))
    assert form.morse_index == 2
    assert_allclose(form.spectrum[:2], [-2 * kappa, -2 * kappa], atol=1e-8)


@pytest.mark.parametrize("name, pair, unstable", [
    ("cp1-line", (0.0, 0.0), False), ("equator4", (-2.0, -4.0), True)],
    ids=["cp1-line-fs", "equator4-round4"])
def test_index_two_construction_verdict_has_a_tolerance(geoms, name, pair,
                                                         unstable):
    # the near-holomorphic section at L = 6: on the projective line both
    # second variations are zero in exact arithmetic, and a rounding-level
    # negative value does not make the pair unstable; on the equator they
    # are -2 and -4
    geom = geoms[name]
    form = assemble_index_form(geom, SectionBasis(geom.S, 6))
    sig = near_holomorphic_section(geom, form)["section"]
    fix = weitzenboeck_variation(geom, sig)["index_two"]
    assert_allclose(fix["d2_pair"], pair, rtol=1e-12, atol=1e-12)
    assert fix["unstable_pair"] is unstable
    # a constant curvature of 1e-12 in place of the ambient one gives
    # d2 = -2e-12 Area on the parallel section of the slice: negative, but
    # below the tolerance 1e-9 max(1, int |nabla sigma|^2) = 1e-9
    fix = weitzenboeck_variation(curvature_override(geoms["slice"], 1e-12),
                                 parallel_section(1.0, 0.0))["index_two"]
    assert -1e-9 < fix["d2_pair"][1] <= fix["d2_pair"][0] < 0
    assert not fix["unstable_pair"]


def test_index_two_construction_evaluates_section_once_per_chart():
    # J sigma and sigma +- J sigma come from sigma's data by linearity
    S = product_slice()
    calls = []
    sig = NormalSection(lambda chart, u: calls.append(chart) or [1.0],
                        [[1.0], [0.0]])
    geom = curvature_override(surface_geometry(S, MP, QuadSpec(16)), 0.8)
    fix = weitzenboeck_variation(geom, sig)["index_two"]
    assert calls == ["a", "b"]
    assert fix["unstable_pair"]


def test_index_two_construction_matches_assembled_form_with_shear(geoms):
    # on the perturbed slice A != 0: the single-section second variation
    # under the override must keep the shear, like the assembled form
    geom = geoms["perturbed-slice"]
    kappa = 0.8
    basis = SectionBasis(geom.S, 2)
    fixture = curvature_override(geom, kappa)
    # the frame of the perturbed slice does not turn by one charge: the
    # form comes from the per-node geometry, where the basis is one block
    Q = dense_forms(curvature_override(per_node_geometry(geom), kappa),
                    basis)[0]
    k = 2                                  # Y_k n3; J turns it into Y_k n4
    j = basis.n_harmonics + k
    fix = averaged_second_variation(fixture, [
        section_data(cg, element(basis, k)) for cg in fixture.charts])[
            "index_two"]
    assert_allclose([fix["d2_sigma"], fix["d2_jsigma"]],
                    sorted([Q[k, k], Q[j, j]]), rtol=1e-10)
    assert_allclose(fix["cross"], Q[k, j], atol=1e-10 * abs(Q[k, k]))
    # the partner sigma -+ J sigma takes the sign that lowers delta^2
    w = np.zeros(basis.dim)
    w[k], w[j] = 1.0, -np.sign(Q[k, j])
    assert_allclose(fix["d2_pair"][1], w @ Q @ w, rtol=1e-10)
    # both against the override density with the shear written out
    vals = []
    for cg in geom.charts:
        d = section_data(cg, element(basis, k))
        shear = np.sum((cg.A[..., 0] * d["c3"][:, None, None]
                        + cg.A[..., 1] * d["c4"][:, None, None]) ** 2,
                       axis=(1, 2))
        vals.append(d["grad2"] - 2.0 * kappa * d["norm2"] - shear)
    assert_allclose(Q[k, k], geom.integrate(vals), rtol=1e-10)


# ------------------------------------------------------------- harness

def _theorem_c_run(m, L):
    """The Theorem-C harness on the product slice in m, one geometry: c1,
    the averaged second variation of the near-holomorphic section and the
    hypothesis margins."""
    geom = surface_geometry(product_slice(), m, QUAD)
    holo = near_holomorphic_section(
        geom, assemble_index_form(geom, SectionBasis(geom.S, L)))
    return (geom, chern_number(geom),
            weitzenboeck_variation(geom, holo["section"]),
            theorem_c_margins(geom))


def test_harness_on_product_family():
    for t in (0.0, 0.5):
        geom, c1, wv, margins = _theorem_c_run(ht_metric(t), L=4)
        assert geom.is_minimal()
        assert abs(c1) < 1e-3
        assert abs(wv["lhs"]) < 1e-8
        assert wv["residual"] < 1e-4
        assert margins["pairing_min"] > -1e-9
        # mixed planes are flat: strict positivity fails, no contradiction
        assert abs(margins["min_sectional"]) < 1e-6
        assert margins["hypotheses_hold"] is False
        assert geom.m.name == "ht"


def test_harness_on_twisted_metric_origin_slice():
    # the origin slice is the fixed locus of the factor-2 rotation, hence
    # still minimal under the twisted metrics; every piece runs
    from curv4.metrics import twisted_metric
    geom, c1, wv, _ = _theorem_c_run(twisted_metric(0.3, 0.02), L=2)
    assert geom.is_minimal()
    assert abs(c1) < 1e-3
    assert wv["residual"] < 1e-4


def test_slices_of_twisted_metrics_stay_minimal():
    # z2 = const is holomorphic, hence minimal for every Kahler metric in
    # the family, wherever the slice sits
    from curv4.metrics import twisted_metric
    m = twisted_metric(0.3, 0.02)
    g = surface_geometry(product_slice(point=(0.4, 0.3)), m, QUAD)
    assert g.min_residual < 1e-12


def test_theorem_c_searches_one_node_per_orbit(monkeypatch, geoms):
    # x^2 + y^2 of the nodes on one ray of the sphere rule differ in the
    # last bit; rounded radii give the 16 orbits of each chart
    from curv4 import stability
    sizes = []
    real = stability.sectional_extremes

    def counted(M6, **kw):
        sizes.append(len(M6))
        return real(M6, **kw)

    monkeypatch.setattr(stability, "sectional_extremes", counted)
    theorem_c_margins(geoms["cp1-line"])
    assert sizes == [32]


def test_harness_refuses_nonminimal_immersion(geoms):
    geom = geoms["perturbed-slice"]
    assert not geom.is_minimal()
    assert geom.min_residual > 1e-8
    with pytest.raises(NonMinimalSurfaceError):
        theorem_c_margins(geom)
