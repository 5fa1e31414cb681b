"""Immersed 2-spheres in a 4-manifold: induced geometry, second fundamental
form, normal connection, the normal-bundle curvature, and the pointwise
second-variation integrands.

Surfaces are parametrized by the two-chart stereographic atlas of S^2
(charts 'a' and 'b', glued by the holomorphic inversion), each surface
chart landing in a single ambient chart.  The immersion is evaluated three
jet layers deep, so the adapted frames are 2-jets in u and carry the
derivatives that the normal connection and the normal-bundle curvature need.

``ChartGeometry`` computes the per-node data of the second variation once:
the connection form ``omega``, the frame coefficients ``gen_coeffs`` of the
normal directions (2-jets in u) and the Jacobi block ``jacobi``.  Single
sections here and the index-form basis of ``stability`` read it.  A single
point is a batch of one: ``point_geometry`` is the ChartGeometry of one
node, and every pointwise quantity is read from its arrays.

``SurfaceGeometry`` holds one ChartGeometry per surface chart at the sphere
quadrature nodes.  The caller builds it once (``surface_geometry``) and
passes it to every integral: ``chern_number``, ``second_variation``,
``variational_identity_lemma310``, ``weitzenboeck_variation``,
``log_norm_check`` and the index forms of ``stability``.  Nothing caches
it, so it lives exactly as long as the caller holds it.

There is one section type, ``NormalSection``: a coefficient function per
normal direction.  The directions are the surface's normal generator
fields, or on a trivial bundle the adapted frame (n3, n4) with constant
coefficients (1, 0) and (0, 1).  ``section_data`` is linear in the
section, so the data of J sigma and of a sigma + b J sigma follow from one
evaluation of sigma.

Adapted frames are Gram-Schmidt of B = (F_u, F_v, d_s3, d_s4), the
coordinate tangents and two fixed ambient coordinate directions, read off
the Gram matrix G_ij = <B_i, B_j> and its Cholesky factor G = L L^T (Golub
& Van Loan, Matrix Computations, 4.2): frame_i = (B_i - sum_{k<i} L_ik
frame_k) / L_ii is (e1, e2, n3, n4), with n4 flipped where needed so that
the frame is positively oriented in M.  The tangent rotation I and
the normal rotation J are the +90-degree turns in these oriented planes.
"""

import numpy as np

from . import bivector as bv
from .curvature import christoffel_arrays, curvature_from_arrays
from .errors import ChartDomainError, NonMinimalSurfaceError, SectionError
from .jets import (Jet, array, drop, grad_array, hess_array, jlog, jsqrt,
                   partial, seedn)
from .metrics import QuadSpec, parse_spec, sphere_chart_nodes

TOL_MIN = 1e-8  # minimality threshold on the mean curvature vector


# ---------------------------------------------------------------------
# ring-generic vector algebra

def _dot(g, u, v):
    """<u, v> with a 4x4 metric, all entries in a common jet ring."""
    acc = 0.0
    for i in range(4):
        gi = g[i]
        ui = u[i]
        for j in range(4):
            acc = acc + gi[j] * ui * v[j]
    return acc


def _scale(a, x):
    return [a * x[i] for i in range(4)]


def _values(rows, shape):
    """out[..., r, k] = value of rows[r][k], a nested list of jets."""
    return np.stack([np.stack([array(x, shape) for x in row], axis=-1)
                     for row in rows], axis=-2)


# ---------------------------------------------------------------------
# real embedding functions of S^2, per chart (rational expressions)

def sphere_functions(chart, u):
    """The R^3 embedding components (N1, N2, N3) as chart expressions."""
    x, y = u[0], u[1]
    q = 1.0 + x * x + y * y
    if chart == "a":
        return 2.0 * x / q, 2.0 * y / q, 1.0 - 2.0 / q
    # chart b: w = 1/z, i.e. z = (x - i y)/|w|^2
    return 2.0 * x / q, -(2.0 * y / q), 2.0 / q - 1.0


class SurfaceImmersion:
    """Parametrized 2-sphere inside a metric field's atlas.

    chart_map: dict chart -> ambient chart name;
    fmap(chart, u) -> list of 4 ambient coordinates over the ring of u;
    normal_seeds: ambient coordinate indices Gram-Schmidted into the
    normal frame;
    normal_generators: optional list of ambient vector fields
    gen(chart, u, F) -> 4 ring components, spanning the normal bundle
    globally (used where no global normal frame exists, e.g. c1 != 0).
    n_directions counts the normal directions a NormalSection takes
    coefficients on: the generators, else the two frame vectors n3, n4.
    """

    def __init__(self, name, chart_map, fmap, normal_seeds=(2, 3),
                 normal_generators=None):
        self.name = name
        self.chart_map = dict(chart_map)
        self.fmap = fmap
        self.normal_seeds = tuple(normal_seeds)
        self.normal_generators = normal_generators
        self.n_directions = (2 if normal_generators is None
                             else len(normal_generators))


# ---------------------------------------------------------------------
# built-in immersions

def product_slice(factor=1, point=(0.0, 0.0)):
    """The slice S^2 x {q} (or {q} x S^2) inside a product metric."""
    q0, q1 = float(point[0]), float(point[1])
    if factor == 1:
        chart_map = {"a": "aa", "b": "ba"}

        def fmap(chart, u):
            return [u[0], u[1], q0, q1]
        seeds = (2, 3)
    elif factor == 2:
        chart_map = {"a": "aa", "b": "ab"}

        def fmap(chart, u):
            return [q0, q1, u[0], u[1]]
        seeds = (0, 1)
    else:
        raise ValueError("factor must be 1 or 2")
    return SurfaceImmersion("slice", chart_map, fmap, normal_seeds=seeds)


def equator_sphere():
    """The great 2-sphere x3 = x4 = 0 inside the round S^4 atlas."""
    chart_map = {"a": "n", "b": "s"}

    def fmap(chart, u):
        if chart == "a":
            return [u[0], u[1], 0.0, 0.0]
        return [u[0], -u[1], 0.0, 0.0]

    return SurfaceImmersion("equator4", chart_map, fmap, normal_seeds=(2, 3))


def cp1_line():
    """The projective line z2 = 0 in CP^2 (affine charts u0, u1).

    Its normal bundle has c1 = 1, so no global orthonormal frame exists;
    sections are spanned by projections of the four global linear fields
    below (real and J-rotated forms of d/dz2 and z1 d/dz2).
    """
    chart_map = {"a": "u0", "b": "u1"}

    def fmap(chart, u):
        return [u[0], u[1], 0.0, 0.0]

    def gen_re_dz2(chart, u, F):
        if chart == "a":
            return [0.0, 0.0, 1.0, 0.0]
        return [0.0, 0.0, F[0], F[1]]     # w1 d/dw2

    def gen_im_dz2(chart, u, F):
        if chart == "a":
            return [0.0, 0.0, 0.0, 1.0]
        return [0.0, 0.0, -F[1], F[0]]    # i w1 d/dw2

    def gen_re_z1dz2(chart, u, F):
        if chart == "a":
            return [0.0, 0.0, F[0], F[1]]     # z1 d/dz2
        return [0.0, 0.0, 1.0, 0.0]

    def gen_im_z1dz2(chart, u, F):
        if chart == "a":
            return [0.0, 0.0, -F[1], F[0]]
        return [0.0, 0.0, 0.0, 1.0]

    return SurfaceImmersion(
        "cp1-line", chart_map, fmap, normal_seeds=(2, 3),
        normal_generators=[gen_re_dz2, gen_im_dz2, gen_re_z1dz2, gen_im_z1dz2])


def perturbed_slice(c=0.1):
    """Graphical perturbation of the product slice: z2 = c (N1 + i N2)(z1).

    Not minimal; used for cross-path identity checks only.
    """
    chart_map = {"a": "aa", "b": "ba"}

    def fmap(chart, u):
        n1, n2, _ = sphere_functions(chart, u)
        return [u[0], u[1], c * n1, c * n2]

    return SurfaceImmersion("perturbed-slice", chart_map, fmap,
                            normal_seeds=(2, 3))


SURFACES = {"slice": product_slice, "equator4": equator_sphere,
            "cp1-line": cp1_line, "perturbed-slice": perturbed_slice}


def parse_surface_spec(spec):
    """Build an immersion from a CLI string like 'slice(factor=2)'."""
    return parse_spec(spec, SURFACES)


# ---------------------------------------------------------------------
# per-node geometry

class ChartGeometry:
    """All pointwise geometric data of a surface chart at quadrature nodes.

    The adapted frame comes from the Gram matrix G and its Cholesky factor L
    (module docstring): h = G[:2, :2], c = L[:2, :2]^-1 with e_i = c_ia F_a,
    and the second fundamental form is read on the orthonormal normal
    frame, A_ijs = c_ia c_jb <F_ab + Gamma(F_a, F_b), n_s>.

    Raises ChartDomainError if the metric's atlas has no chart of the name
    the immersion maps this surface chart into, or if an immersed node lies
    outside that chart's domain.
    """

    def __init__(self, S, m, chart, u_nodes, weights):
        self.chart = chart
        self.amb = S.chart_map[chart]
        self.u = np.asarray(u_nodes, dtype=float)
        self.w = np.asarray(weights, dtype=float)
        n = len(self.u)
        shape = (n,)
        self.shape = shape

        # immersion three jet layers deep; tangents are then 2-layer jets
        Fj = S.fmap(chart, seedn([self.u[:, 0], self.u[:, 1]], 3))
        F = np.stack([array(f, shape) for f in Fj], axis=-1)
        try:
            m.require_inside(self.amb, F)
        except ChartDomainError as exc:
            raise ChartDomainError("surface %s: %s" % (S.name, exc)) from None
        self.dF = dF = np.stack([grad_array(f, shape, 2) for f in Fj], axis=-2)
        d2F = np.stack([hess_array(f, shape, 2) for f in Fj], axis=-3)

        # ambient metric composed with the immersion, as 2-layer jets
        g2 = m.comps_ring(self.amb, drop(Fj))

        # Gram matrix of B (lower triangle); its tangent block is h
        B = [[partial(f, a) for f in Fj] for a in range(2)] + [
            [float(i == s) for i in range(4)] for s in S.normal_seeds]
        G = [[_dot(g2, B[j], B[i]) for j in range(i + 1)] for i in range(4)]
        self.h_jets = ((G[0][0], G[1][0]), (G[1][0], G[1][1]))
        self.h = _values(self.h_jets, shape)
        det = self.h[..., 0, 0] * self.h[..., 1, 1] - self.h[..., 0, 1] ** 2
        if det.min() <= 1e-20:
            raise NonMinimalSurfaceError(
                "%s: rank-deficient differential" % S.name)
        self.sqrt_h = np.sqrt(det)

        # Cholesky factor L of G row by row, and with it the frame
        L, frame = [], []
        for i in range(4):
            L.append([])
            for j in range(i + 1):
                acc = G[i][j]
                for k in range(j):
                    acc = acc - L[i][k] * L[j][k]
                L[i].append(jsqrt(acc) if j == i else acc / L[j][j])
            v = B[i]
            for k in range(i):
                v = [v[p] - L[i][k] * frame[k][p] for p in range(4)]
            frame.append(_scale(1.0 / L[i][i], v))
        self.c = np.linalg.inv(_values([[L[0][0], 0.0], L[1]], shape))

        # positive orientation of (e1, e2, n3, n4) in the ambient chart
        E = np.swapaxes(_values(frame, shape), -1, -2)
        sgn = np.sign(np.linalg.det(E))
        E[..., 3] *= sgn[..., None]
        self.e, self.n = E[..., :2], E[..., 2:]
        n3, n4 = frame[2], _scale(sgn, frame[3])

        # (n3, n4) coefficients of each normal generator field as 2-jets in
        # u; with no generators the frame itself spans the normal bundle
        self.gen_coeffs = [(1.0, 0.0), (0.0, 1.0)]
        if S.normal_generators is not None:
            u2, F2 = seedn([self.u[:, 0], self.u[:, 1]], 2), drop(Fj)
            Vs = [gen(chart, u2, F2) for gen in S.normal_generators]
            self.gen_coeffs = [(_dot(g2, V, n3), _dot(g2, V, n4)) for V in Vs]

        # ambient curvature data at the immersed points
        gA, dgA, d2gA = m.jets(self.amb, F)
        self.curv = curvature_from_arrays(gA, dgA, d2gA)
        self.g = self.curv["g"]
        self.Gamma = Gamma = self.curv["Gamma"]
        self.Rm = self.curv["Rm"]
        self.s = self.curv["s"]

        # second fundamental form on the orthonormal frames:
        # A_ijs = c_ia c_jb <F_ab + Gamma(F_a, F_b), n_s>
        dd = d2F + np.einsum("...kij,...ia,...jb->...kab", Gamma, dF, dF)
        ddn = np.einsum("...kab,...ks->...abs", dd, self.g @ self.n)
        cdd = np.einsum("...jb,...abs->...ajs", self.c, ddn)
        self.A = np.einsum("...ia,...ajs->...ijs", self.c, cdd)
        self.H_norm = np.linalg.norm(self.A[..., 0, 0, :] + self.A[..., 1, 1, :],
                                     axis=-1)

        # normal connection form and intrinsic bundle curvature:
        # omega_a = <nabla_a n3, n4>, K_perp = (d1 w2 - d2 w1)/sqrt(det h);
        # nabla_a n3 = d_a n3 + Gamma(F_a) n3, Gamma(F_a)^i_q = Gamma^i_pq F^p_a
        # a 1-jet in u: d_b Gamma(F_a) = dGamma(F_b, F_a) + Gamma(F_ab), b first
        GF = np.einsum("...ipq,...pa->...aiq", Gamma, dF)
        dGF = (np.einsum("...mipq,...mb,...pa->b...aiq",
                         self.curv["dGamma"], dF, dF)
               + np.einsum("...ipq,...pab->b...aiq", Gamma, d2F))
        omega = []
        g1, n3_1, n4_1 = drop([g2, n3, n4])
        for a in range(2):
            cov = [sum((Jet(GF[..., a, i, q], dGF[:, ..., a, i, q]) * n3_1[q]
                        for q in range(4)), partial(n3[i], a))
                   for i in range(4)]
            omega.append(_dot(g1, cov, n4_1))
        self.omega = np.stack([array(o, shape) for o in omega], axis=-1)
        # K_perp pairs R_perp(e1,e2) n4 against n3; with nabla n4 = -omega n3
        # this is the negative curl of the connection form
        curl = (array(partial(omega[1], 0), shape)
                - array(partial(omega[0], 1), shape))
        self.kperp = -curl / self.sqrt_h

        # frame-basis data for Theorem-3.18-type pairings
        E = self.curv["frame"]
        Einv = np.linalg.inv(E)
        ef = np.einsum("...ij,...jk->...ik", Einv, self.e)
        nf = np.einsum("...ij,...jk->...ik", Einv, self.n)
        self.eta6 = bv.wedge(ef[..., 0], ef[..., 1]) + bv.wedge(nf[..., 0], nf[..., 1])
        # pair eta with W+ and W- in the (eta, etabar) basis
        y = self.eta6 @ bv.ETA_FRAME
        yp, ym = y[..., :3], y[..., 3:]
        weyl = (np.einsum("...i,...ij,...j->...", yp, self.curv["wplus"], yp)
                + np.einsum("...i,...ij,...j->...", ym, self.curv["wminus"], ym))
        self.s6_pairing = self.s / 6.0 * np.sum(self.eta6 ** 2, axis=-1) - weyl

        # Jacobi block on the normal frame: sum_r Rm(e_r, n_p, e_r, n_q)
        # plus the shear sum_ij A_ijp A_ijq
        self.Rterm = np.einsum("...ijkl,...im,...jp,...km,...lq->...pq",
                               self.Rm, self.e, self.n, self.e, self.n,
                               optimize=True)
        self.jacobi = self.Rterm + np.einsum("...ijs,...ijt->...st",
                                             self.A, self.A)


class SurfaceGeometry:
    """The ChartGeometry of each surface chart at the sphere quadrature
    nodes of ``quad`` (default QuadSpec()), built once by the caller."""

    def __init__(self, S, m, quad=None):
        self.S = S
        self.m = m
        self.charts = [ChartGeometry(S, m, hemi, u, w) for hemi, u, w
                       in sphere_chart_nodes((quad or QuadSpec()).n)]
        self.min_residual = max(float(cg.H_norm.max()) for cg in self.charts)

    def integrate(self, values_per_chart):
        total = 0.0
        for cg, vals in zip(self.charts, values_per_chart):
            total += float(np.sum(cg.w * cg.sqrt_h * vals))
        return total

    def area(self):
        return self.integrate([np.ones(cg.shape) for cg in self.charts])

    def require_minimal(self, tol=TOL_MIN):
        if self.min_residual > tol:
            raise NonMinimalSurfaceError(
                "%s is not minimal under %s (max |H| = %.3e)"
                % (self.S.name, self.m.name, self.min_residual))


def surface_geometry(S, m, quad=None):
    """The SurfaceGeometry of immersion S in metric m; each call builds
    a new one."""
    return SurfaceGeometry(S, m, quad)


def point_geometry(S, m, chart, u):
    """The ChartGeometry of surface chart coordinates u, one node each
    (a single point gives a one-node batch), with unit weights."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    return ChartGeometry(S, m, chart, u, np.ones(len(u)))


# ---------------------------------------------------------------------
# normal sections

class NormalSection:
    """sigma = P_N(sum_k f_k V_k) over the surface's normal directions V_k,
    one coefficient function f_k(chart, u) each.

    The directions are the normal generator fields where the surface has
    them (twisted bundles, e.g. the projective line), else the adapted
    frame (n3, n4), which counts as the two directions of a trivial bundle.
    The frame coefficients are sum_k f_k p_k with p_k from the chart's
    ``gen_coeffs``, so the section is globally smooth whenever the f_k are.
    """

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)

    def coeff_jets(self, cg, order=1):
        if len(self.coeffs) != len(cg.gen_coeffs):
            raise SectionError("a normal section takes one coefficient per "
                               "normal direction of the surface (%d), not %d"
                               % (len(cg.gen_coeffs), len(self.coeffs)))
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        gens = cg.gen_coeffs if order == 2 else drop(cg.gen_coeffs)
        uj = seedn([cg.u[:, 0], cg.u[:, 1]], order)
        c3, c4 = 0.0, 0.0
        for (p3, p4), cf in zip(gens, self.coeffs):
            a = cf(cg.chart, uj)
            c3 = c3 + a * p3
            c4 = c4 + a * p4
        return c3, c4

    def rotated(self):
        return JRotated(self)


def parallel_section(c3=1.0, c4=0.0):
    """c3 n3 + c4 n4 with constant coefficients on a trivial normal bundle.
    Surfaces with generator fields (cp1-line) have no such global section:
    evaluating it there raises SectionError."""
    return NormalSection([lambda chart, u: float(c3),
                          lambda chart, u: float(c4)])


class JRotated:
    """J sigma: rotate the frame coefficients by +90 degrees."""

    def __init__(self, base):
        self.base = base

    def coeff_jets(self, cg, order=1):
        c3, c4 = self.base.coeff_jets(cg, order)
        return -1.0 * c4, c3


# ---------------------------------------------------------------------
# pointwise operators on sections

def covariant_coeffs(cg, v3, v4, d3, d4):
    """(nabla^perp_{d_a} sigma) frame coefficients, a = 1, 2, from the frame
    coefficients (v3, v4) and their coordinate gradients (d3, d4).  The
    arrays may carry a section axis between the node and derivative axes."""
    om = cg.omega.reshape(cg.shape + (1,) * (v3.ndim - 1) + (2,))
    return d3 - om * v4[..., None], d4 + om * v3[..., None]


def section_data(cg, sigma):
    """Values, frame covariant derivatives along e1/e2, and norms."""
    c3, c4 = sigma.coeff_jets(cg, order=1)
    sh = cg.shape
    v3, v4 = array(c3, sh), array(c4, sh)
    cov3, cov4 = covariant_coeffs(cg, v3, v4, grad_array(c3, sh, 2),
                                  grad_array(c4, sh, 2))
    # along the orthonormal tangent frame: e_i = c[i,a] d_a
    e3 = np.einsum("...ia,...a->...i", cg.c, cov3)
    e4 = np.einsum("...ia,...a->...i", cg.c, cov4)
    return {"c3": v3, "c4": v4, "D3": e3, "D4": e4,
            "norm2": v3 ** 2 + v4 ** 2,
            "grad2": e3[..., 0] ** 2 + e3[..., 1] ** 2
                     + e4[..., 0] ** 2 + e4[..., 1] ** 2}


def j_rotated_data(d):
    """section_data of J sigma from that of sigma: the frame coefficients
    and their covariant derivatives turn by +90 degrees, (c3, c4) ->
    (-c4, c3); the norms do not change."""
    return dict(d, c3=-d["c4"], c4=d["c3"], D3=-d["D4"], D4=d["D3"])


def normal_connection(S, m, sigma, X, chart, u):
    """Ambient components of nabla^perp_X sigma at a single point.

    X is a tangent vector in surface chart coordinates.
    """
    cg = point_geometry(S, m, chart, u)
    d = section_data(cg, sigma)
    # X on the orthonormal frame: e_i = c[i,a] d_a, so X^a = c[i,a] x_i
    x = np.linalg.solve(cg.c[0].T, np.asarray(X, dtype=float))
    return (d["D3"][0] @ x) * cg.n[0, :, 0] + (d["D4"][0] @ x) * cg.n[0, :, 1]


def dbar_sq(d, tau=0.0):
    """|dbar(sigma; e)|^2 / 2 from the section_data dict of sigma, where
    dbar(sigma; e) = nabla^perp_e sigma + nabla^perp_{Ie}(J sigma) and
    e = cos(tau) e1 + sin(tau) e2."""
    ct, st = np.cos(tau), np.sin(tau)
    # I e = -sin(tau) e1 + cos(tau) e2
    D3_e = ct * d["D3"][..., 0] + st * d["D3"][..., 1]
    D4_e = ct * d["D4"][..., 0] + st * d["D4"][..., 1]
    # J sigma has coefficients (-c4, c3): covariant derivative rotates too
    D3J_Ie = -(-st * d["D4"][..., 0] + ct * d["D4"][..., 1])
    D4J_Ie = (-st * d["D3"][..., 0] + ct * d["D3"][..., 1])
    b3, b4 = D3_e + D3J_Ie, D4_e + D4J_Ie
    return 0.5 * (b3 ** 2 + b4 ** 2)


def kperp_extrinsic_field(cg):
    # Ricci equation in the sign conventions of curv4.curvature:
    # Kperp = Rm(e1,e2,e3,e4) + <A3(e1), A4(e2)> - <A4(e1), A3(e2)>
    amb = np.einsum("...ijkl,...i,...j,...k,...l->...",
                    cg.Rm, cg.e[..., 0], cg.e[..., 1],
                    cg.n[..., 0], cg.n[..., 1])
    A3, A4 = cg.A[..., 0], cg.A[..., 1]
    corr = (np.einsum("...j,...j->...", A3[..., 0, :], A4[..., 1, :])
            - np.einsum("...j,...j->...", A4[..., 0, :], A3[..., 1, :]))
    return amb + corr


def chern_number(geom):
    """(1/2pi) * integral of the normal-bundle curvature."""
    return geom.integrate([cg.kperp for cg in geom.charts]) / (2 * np.pi)


def a_wedge_a_sq(A):
    """|A ^ A|^2 from second fundamental form components (..., 2, 2, 2):
    A[..., i, j, s] = <A(e_i, e_j), n_s>, as ``ChartGeometry.A``."""
    A3 = A[..., 0]
    A4 = A[..., 1]
    v1 = A3[..., 0, :] + A4[..., 1, :]
    v2 = A3[..., 1, :] - A4[..., 0, :]
    return np.sum(v1 ** 2, axis=-1) + np.sum(v2 ** 2, axis=-1)


def a_wedge_a_sq_expansion(A):
    """The expanded form: |A3|^2 + |A4|^2 + 2<A3 e1, A4 e2> - 2<A4 e1, A3 e2>."""
    A3 = A[..., 0]
    A4 = A[..., 1]
    return (np.sum(A3 ** 2, axis=(-1, -2)) + np.sum(A4 ** 2, axis=(-1, -2))
            + 2 * np.sum(A3[..., 0, :] * A4[..., 1, :], axis=-1)
            - 2 * np.sum(A4[..., 0, :] * A3[..., 1, :], axis=-1))


# ---------------------------------------------------------------------
# variational integrals

def jacobi_block(cg, ambient_override=None):
    """The 2x2 block M of the second-variation density |nabla sigma|^2 -
    c^T M c on the frame coefficients c of sigma.  ambient_override = kappa
    puts the curvature term of constant curvature kappa, 2 kappa I, in place
    of the ambient one and keeps the shear."""
    if ambient_override is None:
        return cg.jacobi
    return cg.jacobi - cg.Rterm + 2.0 * float(ambient_override) * np.eye(2)


def second_variation_density(cg, d, ambient_override=None):
    """Integrand of delta^2 from the section_data dict of sigma."""
    c = np.stack([d["c3"], d["c4"]], axis=-1)
    return d["grad2"] - np.einsum("...s,...st,...t->...", c,
                                  jacobi_block(cg, ambient_override), c)


def second_variation(geom, sigma):
    """delta^2(sigma) for a minimal surface (unnormalized curvature term)."""
    geom.require_minimal()
    vals = [second_variation_density(cg, section_data(cg, sigma))
            for cg in geom.charts]
    return geom.integrate(vals)


def lemma310_integrals(geom, data):
    """Both sides of Lemma 3.10 from the per-chart section_data of sigma."""
    lhs, rhs = 0.0, 0.0
    for cg, d in zip(geom.charts, data):
        lhs += float(np.sum(cg.w * cg.sqrt_h * d["grad2"]))
        rhs += float(np.sum(cg.w * cg.sqrt_h *
                            (2 * dbar_sq(d)
                             + cg.kperp * d["norm2"])))
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs)}


def variational_identity_lemma310(geom, sigma):
    """| int |nabla sigma|^2 - int (2 |dbar sigma|^2 + Kperp |sigma|^2) |."""
    return lemma310_integrals(geom, [section_data(cg, sigma)
                                     for cg in geom.charts])


def averaged_second_variation(geom, data):
    """Both sides of the averaged second-variation identity from the
    per-chart section_data of sigma; J sigma's data is its rotation.

    lhs = delta^2(sigma) + delta^2(J sigma); rhs integrates
    4 |dbar sigma|^2 - [ <(s/6 - W+) eta, eta> + |A ^ A|^2 ] |sigma|^2.
    """
    def delta2(ds):
        return geom.integrate([second_variation_density(cg, d)
                               for cg, d in zip(geom.charts, ds)])

    lhs = delta2(data) + delta2([j_rotated_data(d) for d in data])
    t_dbar, t_weyl, t_shear = 0.0, 0.0, 0.0
    for cg, d in zip(geom.charts, data):
        base = cg.w * cg.sqrt_h
        t_dbar += float(np.sum(base * 4.0 * dbar_sq(d)))
        t_weyl -= float(np.sum(base * cg.s6_pairing * d["norm2"]))
        t_shear -= float(np.sum(base * a_wedge_a_sq(cg.A) * d["norm2"]))
    rhs = t_dbar + t_weyl + t_shear
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs),
            "terms": {"dbar": t_dbar, "weyl_pairing": t_weyl,
                      "shear": t_shear}}


def weitzenboeck_variation(geom, sigma):
    """averaged_second_variation of sigma on a minimal surface, sigma
    evaluated once per chart."""
    geom.require_minimal()
    return averaged_second_variation(
        geom, [section_data(cg, sigma) for cg in geom.charts])


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
        c3, c4 = sigma.coeff_jets(cg, order=2)
        norm2 = c3 * c3 + c4 * c4
        if np.sqrt(array(norm2, cg.shape)).min() < norm_floor:
            raise SectionError("section norm falls below the floor")
        lap = _surface_laplacian(cg, jlog(norm2))
        worst = max(worst, float(np.abs(cg.kperp + 0.5 * lap).max()))
    return worst


def _surface_laplacian(cg, f):
    """Laplace-Beltrami of a 2-jet scalar on the induced metric
    (div grad convention: <= 0 at interior maxima)."""
    sh = cg.shape
    df = grad_array(f, sh, 2)
    d2f = hess_array(f, sh, 2)
    dh = np.empty(sh + (2, 2, 2))
    for a in range(2):
        for b in range(2):
            dh[..., :, a, b] = grad_array(cg.h_jets[a][b], sh, 2)
    hinv, Gamma = christoffel_arrays(cg.h, dh)
    hess = d2f - np.einsum("...cab,...c->...ab", Gamma, df)
    return np.einsum("...ab,...ab->...", hinv, hess)


def ric_perp_identity_residual(cg):
    """Pointwise residual of the Bianchi/(2.3) identity relating
    -2<R(e1,e2)e4,e3> + Ric_perp(e3) + Ric_perp(e4) to the eta pairing."""
    amb = np.einsum("...ijkl,...i,...j,...k,...l->...",
                    cg.Rm, cg.e[..., 0], cg.e[..., 1],
                    cg.n[..., 0], cg.n[..., 1])
    ric3 = sum(np.einsum("...ijkl,...i,...j,...k,...l->...",
                         cg.Rm, cg.e[..., k], cg.n[..., 0],
                         cg.e[..., k], cg.n[..., 0]) for k in range(2))
    ric4 = sum(np.einsum("...ijkl,...i,...j,...k,...l->...",
                         cg.Rm, cg.e[..., k], cg.n[..., 1],
                         cg.e[..., k], cg.n[..., 1]) for k in range(2))
    lhs = -2.0 * amb + ric3 + ric4
    return np.abs(lhs - cg.s6_pairing).max()
