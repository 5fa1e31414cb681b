"""Test oracles and fixtures over the metric jets and the surface geometry.

``comps_ring`` forms a metric's components in any scalar ring, and
``comps_jets`` reads the jets of such a ring-generic 4x4 field over nested
duals.  They are the oracles of ``MetricField.jets``, of
``curvature.kaehler_form`` (through ``kaehler_comps``) and of the array
2-forms of the Weitzenboeck check; ``ring_form`` turns a ring-generic
2-form into such an array form.

The chart geometry stores values and first u-derivatives only.  The
Laplacian check of Lemma 3.15 and the order-2 frame coefficients of a
section need second derivatives, which these oracles rebuild over jets at
every node: the induced metric and the frame coefficients p of the normal
directions, with the frame taken by Cholesky of the Gram matrix as the
chart geometry takes it.

``twisted_parts`` splits the twisted family into its two forms as fields,
and ``transition`` maps points through a declared chart gluing: the
fixtures of the eps-bound oracles and of the gluing tests.

The pointwise readers (``point_geometry``, ``normal_connection``), the
parallel section of a trivial normal bundle and the single-section
``second_variation`` are references for the batched paths that the
commands take.  ``curvature_override`` is the fixture of the instability
branch that no constructible metric reaches.

``per_node_geometry`` rebuilds a surface geometry with every node its own
run, so that the charge-graded index form assembles the whole basis as one
block from the rows at every node; ``dense_forms`` reads that block back
on the elements Y_k V_c: the dense oracle of the charge blocks.

``lemma310_all_charts``, ``averaged_second_variation_all_charts`` and
``surface_identities_all_charts`` integrate sigma's section data with
every chart's held at once: the oracles of the chart-by-chart integrals
and of the identity rows that ``verify-identities`` streams.
"""

import copy

import numpy as np

from curv4 import metrics
from curv4.curvature import christoffel_arrays
from curv4.errors import SectionError
from curv4.jets import (array, drop, from_arrays, grad_array, hess_array, jlog,
                        jsqrt, partial, seedn)
from curv4.metrics import J_STANDARD, ht_metric
from curv4.stability import _charge_blocks
from curv4.surfaces import (ChartGeometry, NormalSection, _jacobi_pairing,
                            a_wedge_a_sq, chern_number, dbar_sq,
                            embedding_family, j_rotated_data,
                            kperp_extrinsic_field,
                            ric_perp_identity_residual,
                            second_variation_density, section_data)


def comps_ring(m, chart, x):
    """The components of m's metric over the scalar ring of x (jets
    allowed), a 4x4 nested list: the declaration of ``curv4.metrics``
    formed in the caller's ring, the nested-dual oracle of
    ``MetricField.jets``."""
    f0, f1, f12 = m.coeffs(chart, [x[0] * x[0] + x[1] * x[1],
                                   x[2] * x[2] + x[3] * x[3]])
    re = f12 * (x[0] * x[2] + x[1] * x[3])
    im = f12 * (x[0] * x[3] - x[1] * x[2])
    return [[f0, 0.0, re, im], [0.0, f0, -im, re],
            [re, -im, f1, 0.0], [im, re, 0.0, f1]]


def comps_jets(comps, chart, pts):
    """(A, dA, d2A) of a ring-generic 4x4 field comps(chart, x) at a point
    or an (n, 4) batch, over nested duals: dA[..., k, i, j] = d_k A_ij and
    d2A[..., l, k, i, j] = d_l d_k A_ij.  Constant entries and partials
    leave zeros."""
    pts = np.asarray(pts, dtype=float)
    batch = np.atleast_2d(pts)
    shape = batch.shape[:-1]
    rows = comps(chart, seedn(list(batch.T), 2))

    def field(read):
        out = np.array([[read(e) for e in row] for row in rows])
        return np.moveaxis(out, (0, 1), (-2, -1))

    out = (field(lambda e: array(e, shape)),
           field(lambda e: grad_array(e, shape, 4)),
           np.swapaxes(field(lambda e: hess_array(e, shape, 4)), -4, -3))
    return tuple(a[0] for a in out) if pts.ndim == 1 else out


def twisted_parts(t):
    """(h_t, 2 Re ddbar phi) as fields on h_t's atlas; the second, a copy of
    ``ht_metric(t)`` whose coefficients read ``metrics._phi_coeffs`` at
    call time (so a test may patch it), is not a metric."""
    base = ht_metric(t)
    pert = copy.copy(base)
    pert.name, pert.kaehler = "twisted-part", None
    pert._coeffs = lambda chart, s: metrics._phi_coeffs(chart, s)
    return base, pert


def transition(m, src, dst, pts):
    """Points of chart src of m mapped to chart dst through the declared
    gluing (plain values; a single point or an (n, 4) batch)."""
    pts = np.asarray(pts, dtype=float)
    out = m.charts[src].transitions[dst](list(np.moveaxis(pts, -1, 0)))
    return np.stack([np.asarray(c, dtype=float) for c in out], axis=-1)


def kaehler_comps(m):
    """The components J^T g of the Kahler form of m over the scalar ring of
    x, from ``comps_ring``: the oracle of ``curvature.kaehler_form``."""
    def comps(chart, x):
        g = comps_ring(m, chart, x)
        return [[sum((J_STANDARD[k][i] * g[k][j] for k in range(4)), 0.0)
                 for j in range(4)] for i in range(4)]
    return comps


def ring_form(comps):
    """The 2-form(chart, pts) -> (A, dA, d2A) of ring-generic antisymmetric
    components comps(chart, x), through ``comps_jets``."""
    return lambda chart, pts: comps_jets(comps, chart, pts)


def _dot(g, u, v):
    return sum(g[i][j] * u[i] * v[j] for i in range(4) for j in range(4))


def second_order_jets(S, m, cg):
    """(dh, d2p) at the nodes of cg: dh[n, k, a, b] = d_k h_ab of the
    induced metric, and d2p[n, c, s, a, b] the u-Hessians of the frame
    coefficients p = <V_c, n_s> (zero on a trivial bundle, where p = I)."""
    sh = cg.shape
    Fj = S.fmap(cg.chart, seedn([cg.u[:, 0], cg.u[:, 1]], 3))
    g2 = comps_ring(m, cg.amb, drop(Fj))
    B = [[partial(f, a) for f in Fj] for a in range(2)] + [
        [float(i == s) for i in range(4)] for s in S.normal_seeds]
    G = [[_dot(g2, B[j], B[i]) for j in range(i + 1)] for i in range(4)]
    dh = np.stack([np.stack([grad_array(G[max(a, b)][min(a, b)], sh, 2)
                             for b in range(2)], axis=-1)
                   for a in range(2)], axis=-2)
    C = S.n_directions
    if S.normal_generators is None:
        return dh, np.zeros(sh + (C, 2, 2, 2))
    L, frame = [], []
    for i in range(4):
        L.append([])
        for j in range(i + 1):
            acc = G[i][j] - sum(L[i][k] * L[j][k] for k in range(j))
            L[i].append(jsqrt(acc) if j == i else acc / L[j][j])
        v = B[i]
        for k in range(i):
            v = [v[p] - L[i][k] * frame[k][p] for p in range(4)]
        frame.append([x / L[i][i] for x in v])
    # n4 oriented like the chart geometry's frame
    sgn = np.sign(sum(array(frame[3][i], sh) * cg.n[:, i, 1]
                      for i in range(4)))
    n3, n4 = frame[2], [sgn * x for x in frame[3]]
    u2, F2 = seedn([cg.u[:, 0], cg.u[:, 1]], 2), drop(Fj)
    P = [(_dot(g2, V, n3), _dot(g2, V, n4))
         for V in (gen(cg.chart, u2, F2) for gen in S.normal_generators)]
    return dh, np.stack([np.stack([hess_array(x, sh, 2) for x in row],
                                  axis=1) for row in P], axis=1)


def coeff_jets(sigma, cg, order=1, d2p=None):
    """The frame coefficients (c3, c4) of one section as u-jets of
    ``order`` (1, or 2 with the Hessians d2p of cg.p), summed jet by
    jet from the chart's p and dp."""
    p = [sigma.frame(x) for x in (cg.p, cg.dp, d2p)[:order + 1]]
    Y = sigma.family(cg.chart, seedn([cg.u[:, 0], cg.u[:, 1]], order))
    sigma.require_columns(len(Y))
    f = [sum(float(w) * y for w, y in zip(wc, Y)) for wc in sigma.W]
    return tuple(sum(fc * from_arrays(*(x[:, c, s] for x in p))
                     for c, fc in enumerate(f)) for s in range(2))


def log_norm_check(geom, sigma, holo_tol=1e-6, norm_floor=1e-3,
                   chart_filter=None):
    """max | Kperp + 1/2 Laplacian_S log |sigma|^2 | over the grid.

    Requires sigma holomorphic (max pointwise dbar norm below holo_tol) and
    bounded away from zero.  The 1/2 is forced by this package's
    normal-curvature normalization: on the projective line Kperp = 2 while
    the holomorphic sections give Laplacian_S log |sigma|^2 = -4.
    """
    worst = 0.0
    for cg in geom.charts:
        if chart_filter is not None and not chart_filter(cg):
            continue
        dbar = dbar_sq(section_data(cg, sigma))
        if dbar.max() > holo_tol:
            raise SectionError(
                "section is not holomorphic at tolerance (max |dbar|^2 = %.3e)"
                % float(dbar.max()))
        dh, d2p = second_order_jets(geom.S, geom.m, cg)
        c3, c4 = coeff_jets(sigma, cg, 2, d2p)
        norm2 = c3 * c3 + c4 * c4
        if np.sqrt(array(norm2, cg.shape)).min() < norm_floor:
            raise SectionError("section norm falls below the floor")
        lap = surface_laplacian(cg, dh, jlog(norm2))
        worst = max(worst, float(np.abs(cg.kperp + 0.5 * lap).max()))
    return worst


def surface_laplacian(cg, dh, f):
    """Laplace-Beltrami of a 2-jet scalar on the induced metric h with
    gradient dh (div grad convention: <= 0 at interior maxima)."""
    df = grad_array(f, cg.shape, 2)
    d2f = hess_array(f, cg.shape, 2)
    hinv, Gamma = christoffel_arrays(cg.h, dh)
    hess = d2f - np.einsum("...cab,...c->...ab", Gamma, df)
    return np.einsum("...ab,...ab->...", hinv, hess)


def point_geometry(S, m, chart, u):
    """The ChartGeometry of surface chart coordinates u, one node each
    (a single point gives a one-node batch), with unit weights."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    return ChartGeometry(S, m, chart, u, np.ones(len(u)))


def parallel_section(c3=1.0, c4=0.0):
    """c3 n3 + c4 n4 with constant coefficients on a trivial normal bundle.
    Surfaces with generator fields (cp1-line) have no such global section:
    evaluating it there raises SectionError."""
    return NormalSection(lambda chart, u: [1.0], [[c3], [c4]])


def normal_connection(S, m, sigma, X, chart, u):
    """Ambient components of nabla^perp_X sigma at a single point.

    X is a tangent vector in surface chart coordinates.
    """
    cg = point_geometry(S, m, chart, u)
    d = section_data(cg, sigma)
    # X on the orthonormal frame: e_i = c[i,a] d_a, so X^a = c[i,a] x_i
    x = np.linalg.solve(cg.c[0].T, np.asarray(X, dtype=float))
    return (d["D3"][0] @ x) * cg.n[0, :, 0] + (d["D4"][0] @ x) * cg.n[0, :, 1]


def second_variation(geom, sigma):
    """delta^2(sigma) for a minimal surface (unnormalized curvature term)."""
    geom.require_minimal()
    vals = [second_variation_density(cg, section_data(cg, sigma))
            for cg in geom.charts]
    return geom.integrate(vals)


def curvature_override(geom, kappa):
    """A copy of geom whose charts put the curvature term of constant
    curvature kappa, 2 kappa I, in place of the ambient one in the Jacobi
    block and keep the shear: jacobi - Rterm + 2 kappa I.  Everything else,
    minimality included, is geom's."""
    out = copy.copy(geom)
    out.charts = []
    for cg in geom.charts:
        cg = copy.copy(cg)
        cg.jacobi = cg.jacobi - cg.Rterm + 2.0 * float(kappa) * np.eye(2)
        out.charts.append(cg)
    return out


def per_node_geometry(geom):
    """A copy of geom whose charts are built node by node, each over its own
    jets (``ChartGeometry`` with one angle a run)."""
    out = copy.copy(geom)
    out.charts = [ChartGeometry(geom.S, geom.m, cg.chart, cg.u, cg.w)
                  for cg in geom.charts]
    return out


def dense_forms(geom, basis):
    """(Q, G, D) on the elements Y_k V_c of basis over a per-node geometry,
    where the charge-graded assembly is one block: that block turned back
    by the block's charge-basis vectors, C M C^T."""
    (block,) = _charge_blocks(geom, basis)
    C = block.coefficients(basis, np.eye(basis.dim))
    return tuple(C @ M @ C.T for M in (block.Q, block.G, block.D))


def lemma310_all_charts(geom, data):
    """Both sides of Lemma 3.10 from the section_data of sigma on every
    chart at once, integrated by ``SurfaceGeometry.integrate``: the route
    that ``surfaces.chart_integrals`` streams chart by chart."""
    lhs = geom.integrate([d["grad2"] for d in data])
    rhs = geom.integrate([2 * dbar_sq(d) + cg.kperp * d["norm2"]
                          for cg, d in zip(geom.charts, data)])
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs)}


def averaged_second_variation_all_charts(geom, data):
    """``surfaces.averaged_second_variation`` from the section_data of
    sigma on every chart at once, each integral by
    ``SurfaceGeometry.integrate``."""
    def delta2(ds):
        return geom.integrate([second_variation_density(cg, d)
                               for cg, d in zip(geom.charts, ds)])

    jdata = [j_rotated_data(d) for d in data]
    d2s, d2j = delta2(data), delta2(jdata)
    lhs = d2s + d2j
    t_dbar = geom.integrate([4.0 * dbar_sq(d) for d in data])
    t_weyl = 0.0 - geom.integrate([cg.s6_pairing * d["norm2"]
                                   for cg, d in zip(geom.charts, data)])
    t_shear = 0.0 - geom.integrate([a_wedge_a_sq(cg.A) * d["norm2"]
                                    for cg, d in zip(geom.charts, data)])
    rhs = t_dbar + t_weyl + t_shear
    cross = 0.0 - geom.integrate([_jacobi_pairing(cg, d, dj) for cg, d, dj
                                  in zip(geom.charts, data, jdata)])
    low, high = np.minimum(d2s, d2j), np.maximum(d2s, d2j)
    pair = low + high - 2.0 * np.abs(cross)
    tol = 1e-9 * np.maximum(1.0, geom.integrate([d["grad2"] for d in data]))
    unstable = np.maximum(low, pair) < -tol
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs),
            "terms": {"dbar": t_dbar, "weyl_pairing": t_weyl,
                      "shear": t_shear},
            "index_two": {"d2_sigma": low, "d2_jsigma": high, "cross": cross,
                          "d2_pair": (low, pair),
                          "unstable_pair": unstable if np.ndim(unstable)
                          else bool(unstable)}}


def surface_identities_all_charts(geom, minimal, rng, n_sections, add):
    """``cli._surface_identities`` with sigma's section data held for every
    chart at once and J sigma read beside it, on the two routes above."""
    S = geom.S
    ctx = "%s@%s" % (S.name, geom.m.name)
    add("kperp-cross-path", ctx,
        max(np.abs(cg.kperp - kperp_extrinsic_field(cg)).max()
            for cg in geom.charts), 1e-5)
    add("ric-perp-eta-pairing", ctx,
        max(ric_perp_identity_residual(cg) for cg in geom.charts), 1e-5)
    b = rng.uniform(-0.6, 0.6, (n_sections, S.n_directions, 4))
    sig = NormalSection(embedding_family, np.moveaxis(b, 0, -1))
    data = [section_data(cg, sig) for cg in geom.charts]
    add("lemma-3-10", ctx, lemma310_all_charts(geom, data)["residual"].max(),
        1e-5)
    dbar_rot = 0.0
    for cg, d in zip(geom.charts, data):
        dj = section_data(cg, sig.rotated())
        dbar_rot = max(dbar_rot,
                       np.abs(dbar_sq(d, 0.0) - dbar_sq(d, 0.785)).max(),
                       np.abs(dj["grad2"] - d["grad2"]).max(),
                       np.abs(dj["norm2"] - d["norm2"]).max())
    add("dbar-frame-independence", ctx, dbar_rot, 1e-8)
    if minimal:
        add("averaged-second-variation", ctx,
            averaged_second_variation_all_charts(geom, data)[
                "residual"].max(), 1e-4)
    cn = chern_number(geom)
    add("chern-integrality", ctx, abs(cn - round(cn)), 1e-3)
