"""Immersed 2-spheres in a 4-manifold: induced geometry, second fundamental
form, normal connection, the normal-bundle curvature, and the pointwise
second-variation integrands.

Surfaces are parametrized by the two-chart stereographic atlas of S^2
(charts 'a' and 'b', glued by the holomorphic inversion), each surface
chart landing in a single ambient chart.  The immersion is evaluated three
jet layers deep, so the adapted frames are 2-jets in u and carry the
derivatives that the normal connection and the normal-bundle curvature need.

``ChartGeometry`` computes the per-node data of the second variation once:
the connection form ``omega``, the frame coefficients ``p`` of the normal
directions with their u-gradients ``dp``, and the Jacobi block ``jacobi``.
Sections here and the index-form basis of ``stability`` read it.  Every
built-in surface is S^1-equivariant: turning a chart's u-plane moves the
immersed point by a rotation of the ambient factor planes (measured and
verified by the chart), an isometry of every T^2-invariant metric (see
``metrics``).  So the geometry is built over jets at one node per radius
of the sphere rule and carried to the other nodes of that radius by the
rotation, in the Gram-Schmidt gauge of each node.

``SurfaceGeometry`` holds one ChartGeometry per surface chart at the sphere
quadrature nodes.  The caller builds it once (``surface_geometry``) and
passes it to every integral: ``chern_number``, ``lemma310_integrals``,
``averaged_second_variation`` and the index forms of ``stability``.
Nothing caches it, so it lives exactly as long as the caller holds it.

There is one section type, ``NormalSection``: a coefficient matrix W on
one scalar family Y (K functions, e.g. harmonics), sigma = sum_{c,k}
W[c, k] Y_k V_c.  The directions V_c are the surface's normal generator
fields, or on a trivial bundle the adapted frame (n3, n4) with constant
coefficients (1, 0) and (0, 1).  ``section_data`` reads the family once
per chart, contracts W with it and applies the chart's ``direction_factor``
to the result; trailing axes of W give a batch of sections in one read.
It is linear in the section, so the data of J sigma and of a sigma + b J
sigma follow from one evaluation of sigma.

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
from .curvature import curvature_from_arrays
from .errors import (ChartDomainError, NonMinimalSurfaceError, SectionError,
                     SpecParseError)
from .jets import (array, drop, from_arrays, grad_array, hess_array, jsqrt,
                   partial, seedn)
from .metrics import QuadSpec, parse_spec, sphere_chart_nodes

TOL_MIN = 1e-8  # minimality threshold on the mean curvature vector


# ---------------------------------------------------------------------
# ring-generic vector algebra

def _dot(g, u, v):
    """<u, v> with a 4x4 metric over a common jet ring, skipping the terms
    with a float 0.0 in u or v, which an array entry of g would not drop."""
    iu, iv = ([i for i in range(4) if x[i].__class__ is not float or x[i]]
              for x in (u, v))
    acc = 0.0
    for i in iu:
        for j in iv:
            acc = acc + g[i][j] * u[i] * v[j]
    return acc


def _scale(a, x):
    return [a * x[i] for i in range(4)]


def _values(rows, shape, read=array):
    """out[n, r, k, ...] = read(rows[r][k], shape)[n, ...] for a nested list
    of jets; the reader's trailing axes (gradients, Hessians) come last."""
    ax = len(shape)
    return np.stack([np.stack([read(x, shape) for x in row], axis=ax)
                     for row in rows], axis=ax)


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
    normal_seeds: the ambient coordinate indices of one factor plane,
    Gram-Schmidted into the normal frame (else ValueError);
    normal_generators: optional ambient vector fields gen(chart, u, F) -> 4
    ring components in (re, im) pairs, spanning the normal bundle globally
    (where no global normal frame exists, e.g. c1 != 0).
    n_directions counts the normal directions a NormalSection takes
    coefficients on: the generators, else the two frame vectors n3, n4.
    """

    def __init__(self, name, chart_map, fmap, normal_seeds=(2, 3),
                 normal_generators=None):
        self.name = name
        self.chart_map = dict(chart_map)
        self.fmap = fmap
        self.normal_seeds = tuple(normal_seeds)
        if sorted(self.normal_seeds) not in ([0, 1], [2, 3]):
            raise ValueError("normal_seeds must span one factor plane")
        self.normal_generators = normal_generators
        self.n_directions = (2 if normal_generators is None
                             else len(normal_generators))


# ---------------------------------------------------------------------
# built-in immersions

def product_slice(factor=1, point=(0.0, 0.0)):
    """The slice S^2 x {q} (or {q} x S^2) inside a product metric."""
    if factor not in (1, 2):
        raise ValueError("factor must be 1 or 2")
    q, first = [float(point[0]), float(point[1])], factor == 1

    def fmap(chart, u):
        return [u[0], u[1]] + q if first else q + [u[0], u[1]]

    return SurfaceImmersion("slice", {"a": "aa", "b": "ba" if first else "ab"},
                            fmap, normal_seeds=(2, 3) if first else (0, 1))


def equator_sphere():
    """The great 2-sphere x3 = x4 = 0 inside the round S^4 atlas."""
    def fmap(chart, u):
        if chart == "a":
            return [u[0], u[1], 0.0, 0.0]
        return [u[0], -u[1], 0.0, 0.0]

    return SurfaceImmersion("equator4", {"a": "n", "b": "s"}, fmap)


def cp1_line():
    """The projective line z2 = 0 in CP^2 (affine charts u0, u1).

    Its normal bundle has c1 = 1, so no global orthonormal frame exists;
    sections are spanned by projections of the four global linear fields
    below (real and J-rotated forms of d/dz2 and z1 d/dz2).
    """
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
        "cp1-line", {"a": "u0", "b": "u1"}, fmap,
        normal_generators=[gen_re_dz2, gen_im_dz2, gen_re_z1dz2, gen_im_z1dz2])


def perturbed_slice(c=0.1):
    """Graphical perturbation of the product slice: z2 = c (N1 + i N2)(z1).

    Not minimal; used for cross-path identity checks only.
    """
    def fmap(chart, u):
        n1, n2, _ = sphere_functions(chart, u)
        return [u[0], u[1], c * n1, c * n2]

    return SurfaceImmersion("perturbed-slice", {"a": "aa", "b": "ba"}, fmap)


SURFACES = {"slice": product_slice, "equator4": equator_sphere,
            "cp1-line": cp1_line, "perturbed-slice": perturbed_slice}


def parse_surface_spec(spec):
    """Build an immersion from a CLI string like 'slice(factor=2)'."""
    return parse_spec(spec, SURFACES)


# ---------------------------------------------------------------------
# per-node geometry

def _rot(t, ks=(1,)):
    """Block-diagonal rotations (..., 2 m, 2 m), plane j by angles ks[j] t."""
    out = np.zeros(t.shape + (2 * len(ks),) * 2)
    for j, k in enumerate(ks):
        c, s = np.cos(k * t), np.sin(k * t)
        out[..., 2 * j:2 * j + 2, 2 * j:2 * j + 2] = np.stack(
            [np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    return out


def _turns(x, y, th, n_angles):
    """Integers k[j] with y = e^(i k[j] th) x, summed over the second nodes
    of the runs, for x and y (n, 2 m, d) whose (re, im) row pairs are
    complex vectors; 0 where x vanishes there, or with one node a run."""
    if n_angles == 1:
        return (0,) * (x.shape[1] // 2)
    x, y = (a[1::n_angles, ::2] + 1j * a[1::n_angles, 1::2] for a in (x, y))
    w = np.sum(np.conj(x) * y, axis=(0, -1))
    return tuple(np.rint(np.angle(w) / th[1]).astype(int).tolist())


class ChartGeometry:
    """All pointwise geometric data of a surface chart at quadrature nodes.

    The adapted frame comes from the Gram matrix G and its Cholesky factor L
    (module docstring): h = G[:2, :2], c = L[:2, :2]^-1 with e_i = c_ia F_a,
    and the second fundamental form is read on the orthonormal normal
    frame, A_ijs = c_ia c_jb <F_ab + Gamma(F_a, F_b), n_s>.

    Rm meets the frame here once, as ``R1234`` = Rm(e1, e2, n3, n4) and
    ``Rterm``_pq = sum_r Rm(e_r, n_p, e_r, n_q); ``dA`` = w sqrt(det h) is
    the area weight of each node in every surface integral.

    The nodes come in runs of ``n_angles`` on one radius, ``orbit`` (n,)
    giving the run of each.  All of the above is computed over jets, with
    the curvature record, at the first node of each run only and carried
    to the others by the turn R of the u-plane onto the node and its
    ambient rotation Phi, factor plane a by ``weights``[a] times R's angle,
    in each node's Gram-Schmidt gauge: dF = Phi dF0 R^T, h = R h0 R^T, c
    from the Cholesky factor of h; the tangent frame turns by V = c R L0
    and the normal one by U, the Q factor of L_nn^T S^T with n4's sign (L0,
    L_nn the tangent and normal Cholesky blocks, S Phi on the seed plane).
    A turns by V and U, Rterm and jacobi by U, omega = R (omega0 + d psi)
    with psi U's angle, p = T p0 U (T turns generator pair j by
    ``charges``[j]) and dp likewise, its u-index turned by R; scalars are
    copied.  Weights and charges are read off the first two nodes of each
    run (0 with one); SpecParseError unless F and the generators at every
    node are then the carried ones to 1e-12.  ``frame_charge`` is read the
    same way off the normal frame, n3 + i n4 = e^(-i q th) Phi (n3 + i
    n4)_rep, and is None, without an error, where the frame does not turn
    by one such q to 1e-12: the charge of the directions of a trivial
    bundle, which the charge-graded index forms of ``stability`` need.

    Of the record the chart keeps only the curvature operator ``M6`` on the
    orthonormal frame, once per orbit, for the sectional search; g, Gamma,
    Rm and s are spent here.
    ``F`` holds the immersed points (n, 4), so a caller that needs the
    record at the nodes recomputes it as ``curvature_batch(m, cg.amb,
    cg.F)``.

    Raises ChartDomainError if the metric's atlas has no chart of the name
    the immersion maps this surface chart into, or if an immersed node lies
    outside that chart's domain.
    """

    def __init__(self, S, m, chart, u_nodes, w, n_angles=1):
        self.chart = chart
        self.amb = S.chart_map[chart]
        self.u = u = np.asarray(u_nodes, dtype=float)
        self.w = np.asarray(w, dtype=float)
        n = len(u)
        self.shape = shape = (n,)
        self.n_angles = n_angles
        self.orbit = o = np.repeat(np.arange(n // n_angles), n_angles)
        ur = u[::n_angles]
        sh = (len(ur),)

        self.F = F = np.stack(
            [array(f, shape) for f in S.fmap(chart, list(u.T))], axis=-1)
        try:
            m.require_inside(self.amb, F)
        except ChartDomainError as exc:
            raise ChartDomainError("surface %s: %s" % (S.name, exc)) from None

        # at the representatives: the immersion three jet layers deep, so
        # tangents are 2-layer jets, and the ambient metric along it as
        # 2-layer u-jets, from its x-jets by the chain rule: d_a g = dg F_a
        # and d_a d_b g = d2g F_a F_b + dg F_ab
        Fj = S.fmap(chart, seedn([ur[:, 0], ur[:, 1]], 3))
        dF0 = np.stack([grad_array(f, sh, 2) for f in Fj], axis=-2)
        d2F0 = np.stack([hess_array(f, sh, 2) for f in Fj], axis=-3)
        F0 = F[::n_angles]
        g, dg, d2g = gx = m.jets(self.amb, F0)
        gu = np.einsum("npij,npa->nija", dg, dF0)
        guu = (np.einsum("nqpij,npa,nqb->nijab", d2g, dF0, dF0)
               + np.einsum("npij,npab->nijab", dg, d2F0))
        # an entry constant along the surface stays its value array, and one
        # that vanishes the float 0.0, whose jet products cost nothing
        moves = gu.any(axis=(0, 3)) | guu.any(axis=(0, 3, 4))
        g2 = [[from_arrays(g[:, i, j], gu[:, i, j], guu[:, i, j])
               if moves[i, j] else g[:, i, j] if g[:, i, j].any() else 0.0
               for j in range(4)] for i in range(4)]

        # Gram matrix of B (lower triangle); its tangent block is h
        B = [[partial(f, a) for f in Fj] for a in range(2)] + [
            [float(i == s) for i in range(4)] for s in S.normal_seeds]
        G = [[_dot(g2, B[j], B[i]) for j in range(i + 1)] for i in range(4)]
        h0 = _values(((G[0][0], G[1][0]), (G[1][0], G[1][1])), sh)
        det = h0[..., 0, 0] * h0[..., 1, 1] - h0[..., 0, 1] ** 2
        if det.min() <= 1e-20:
            raise NonMinimalSurfaceError(
                "%s: rank-deficient differential" % S.name)

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
        L0 = _values([[L[0][0], 0.0], L[1]], sh)
        c0 = np.linalg.inv(L0)

        # positive orientation of (e1, e2, n3, n4) in the ambient chart
        E = np.swapaxes(_values(frame, sh), -1, -2)
        sgn = np.sign(np.linalg.det(E))
        E[..., 3] *= sgn[..., None]
        e0, n0 = E[..., :2], E[..., 2:]
        n3, n4 = frame[2], _scale(sgn, frame[3])
        g1, n3_1, n4_1 = drop([g2, n3, n4])

        # ambient curvature record at the immersed representatives; of it
        # the chart keeps only M6
        curv = curvature_from_arrays(*gx)
        self.M6 = curv["M6"]
        k = len(self.M6)

        # Gamma(F_a)^i_q = Gamma^i_pq F^p_a, shared by A and omega, and its
        # u-derivative d_b Gamma(F_a) = dGamma(F_b, F_a) + Gamma(F_ab), as
        # products with Gamma^i_pq read as a (p, iq) and d_m Gamma^i_pq as
        # an (mp, iq) matrix
        Ft = np.swapaxes(dF0, -1, -2)
        Gam = np.swapaxes(curv["Gamma"], 1, 2).reshape(k, 4, 16)
        GF = (Ft @ Gam).reshape(k, 2, 4, 4)
        FF = (Ft[:, :, None, None, :] * Ft[:, None, :, :, None]).reshape(k, 4, 16)
        dGF = (FF @ curv["dGamma"].transpose(0, 1, 3, 2, 4).reshape(k, 16, 16)
               + np.swapaxes(d2F0.reshape(k, 4, 4), -1, -2) @ Gam)

        # second fundamental form on the orthonormal frames:
        # A_ijs = c_ia c_jb <F_ab + Gamma(F_a) F_b, n_s>
        dd = d2F0 + np.swapaxes(GF @ dF0[:, None], 1, 2)
        ddn = np.einsum("...kab,...ks->...abs", dd, curv["g"] @ n0)
        A0 = np.einsum("...ia,...jb,...abs->...ijs", c0, c0, ddn)
        H0 = np.linalg.norm(A0[..., 0, 0, :] + A0[..., 1, 1, :], axis=-1)

        # normal connection form and intrinsic bundle curvature:
        # omega_a = <nabla_a n3, n4>, K_perp = (d1 w2 - d2 w1)/sqrt(det h);
        # nabla_a n3 = d_a n3 + Gamma(F_a) n3 with Gamma(F_a) a 1-jet in u,
        # the u-index b of dGF last
        dGF = np.moveaxis(dGF.reshape(k, 2, 2, 4, 4), 2, -1)
        omega = []
        for a in range(2):
            cov = [sum((from_arrays(GF[:, a, i, q], dGF[:, a, i, q]) * n3_1[q]
                        for q in range(4)), partial(n3[i], a))
                   for i in range(4)]
            omega.append(_dot(g1, cov, n4_1))
        omega0 = np.stack([array(w, sh) for w in omega], axis=-1)
        # K_perp pairs R_perp(e1,e2) n4 against n3; with nabla n4 = -omega n3
        # this is the negative curl of the connection form
        curl = array(partial(omega[1], 0), sh) - array(partial(omega[0], 1), sh)

        # eta = e1 ^ e2 + n3 ^ n4 on the record's orthonormal frame, paired
        # with W+ and W- in the (eta, etabar) basis
        Einv = np.linalg.inv(curv["frame"])
        ef, nf = Einv @ e0, Einv @ n0
        eta6 = bv.wedge(ef[..., 0], ef[..., 1]) + bv.wedge(nf[..., 0], nf[..., 1])
        y = eta6 @ bv.ETA_FRAME
        yp, ym = y[..., :3], y[..., 3:]
        weyl = (np.einsum("...i,...ij,...j->...", yp, curv["wplus"], yp)
                + np.einsum("...i,...ij,...j->...", ym, curv["wminus"], ym))
        s6 = curv["s"] / 6.0 * np.sum(eta6 ** 2, axis=-1) - weyl

        # Rm(e1, e2, n3, n4), and Rterm from Rf = Rm(e_r, n_p, e_s, n_q), the
        # (ij, kl) matrix of Rm between pair vectors; the Jacobi block on the
        # normal frame is Rterm plus the shear sum_ij A_ijp A_ijq
        Rm = curv["Rm"].reshape(k, 16, 16)
        R1234 = ((e0[:, :, None, 0] * e0[:, None, :, 1]).reshape(k, 1, 16)
                 @ Rm @ (n0[:, :, None, 0] * n0[:, None, :, 1]).reshape(
                     k, 16, 1))[:, 0, 0]
        K = (e0[:, :, None, :, None] * n0[:, None, :, None, :]).reshape(k, 16, 4)
        Rf = (np.swapaxes(K, -1, -2) @ Rm @ K).reshape(k, 2, 2, 2, 2)
        Rterm0 = Rf[:, 0, :, 0, :] + Rf[:, 1, :, 1, :]
        jacobi0 = Rterm0 + np.einsum("...ijs,...ijt->...st", A0, A0)

        # R turns the u-plane from each node's representative onto it, Phi
        # the factor planes and T each pair v = V_re + i V_im by its charge,
        # v = e^(-i q th) Phi v_rep; all measured, then checked at every node
        z = u @ [1.0, 1.0j]
        th = np.angle(z * np.conj(z[::n_angles][o]))
        self.weights = _turns(F0[o, :, None], F[..., None], th, n_angles)
        R, Phi = _rot(th), _rot(th, self.weights)
        Pt = np.swapaxes(Phi, -1, -2)
        pairs, self.charges = [(F, (F0[o, None] @ Pt)[:, 0])], ()
        if S.normal_generators is not None:
            V = _values([gen(chart, list(u.T), list(F.T))
                         for gen in S.normal_generators], shape)
            W = V[::n_angles][o] @ Pt
            turns = _turns(W, V, th, n_angles)
            self.charges, T = tuple(-q for q in turns), _rot(th, turns)
            pairs.append((V, T @ W))
        if not all(np.allclose(*ab, rtol=1e-12, atol=1e-12) for ab in pairs):
            raise SpecParseError("surface %s: chart %s does not turn by its "
                                 "weights and charges" % (S.name, chart))

        # the tangent side; c = L^-1 for h = L L^T, L_11 = sqrt(det h) / L_00
        self.dF = dF = Phi @ dF0[o] @ np.swapaxes(R, -1, -2)
        self.h = h = R @ h0[o] @ np.swapaxes(R, -1, -2)
        self.sqrt_h = r = np.sqrt(det)[o]
        self.dA = self.w * r
        l00 = np.sqrt(h[:, 0, 0])
        self.c = c = np.zeros((n, 2, 2))
        c[:, 0, 0], c[:, 1, 1] = 1.0 / l00, l00 / r
        c[:, 1, 0] = -h[:, 1, 0] / (l00 * r)
        self.e = dF @ np.swapaxes(c, -1, -2)
        Vt = c @ R @ L0[o]

        # the normal side: row 0 of x and y is the first column of L_nn^T
        # S^T with n4's sign, rows 1 and 2 its u-gradient at the
        # representative, from the values and gradients of L_nn
        si, sj = S.normal_seeds
        Ln = np.array([[array(lj, sh), *grad_array(lj, sh, 2).T]
                       for lj in (L[2][2], L[3][2], L[3][3])])[..., o]
        x = Ln[0] * Phi[:, si, si] + Ln[1] * Phi[:, si, sj]
        y = Ln[2] * sgn[o] * Phi[:, si, sj]
        U = _rot(np.arctan2(y[0], x[0]))
        dpsi = ((x[0] * y[1:] - y[0] * x[1:]) / (x[0] ** 2 + y[0] ** 2)).T
        self.n = Phi @ n0[o] @ U
        # the gauge frame's charge, measured like the generators' on the
        # rows of U^T, the frame on the carried one: n3 + i n4 = e^(-i q th)
        # Phi (n3 + i n4)_rep, or None where the Gram-Schmidt gauge does not
        # turn so uniformly (the perturbed slice)
        Ut = np.swapaxes(U, -1, -2)
        (turn,) = _turns(np.broadcast_to(np.eye(2), Ut.shape), Ut, th,
                         n_angles)
        self.frame_charge = (-turn if np.allclose(
            _rot(th, (turn,)), Ut, rtol=1e-12, atol=1e-12) else None)
        self.omega = (R @ (omega0[o] + dpsi)[..., None])[..., 0]
        AU = Vt[:, None] @ (A0[o] @ U[:, None])
        self.A = (Vt @ AU.reshape(n, 2, 4)).reshape(n, 2, 2, 2)
        self.Rterm, self.jacobi = (np.swapaxes(U, -1, -2) @ f[o] @ U
                                   for f in (Rterm0, jacobi0))
        self.kperp, self.H_norm, self.s6_pairing, self.R1234 = (
            f[o] for f in (-curl / np.sqrt(det), H0, s6, R1234))

        # frame coefficients p[n, c, s] = <V_c, n_s> of the directions V_c
        # and their u-gradients dp[n, c, s, a]; with no generator fields the
        # frame itself spans the normal bundle and p is the identity
        if S.normal_generators is None:
            self.p = np.tile(np.eye(2), (n, 1, 1))
            self.dp = np.zeros((n, 2, 2, 2))
            return
        u1, F1 = seedn([ur[:, 0], ur[:, 1]], 1), drop(drop(Fj))
        P = [(_dot(g1, V, n3_1), _dot(g1, V, n4_1))
             for V in (gen(chart, u1, F1) for gen in S.normal_generators)]
        p0 = _values(P, sh)[o]
        dp0 = np.moveaxis(_values(P, sh, lambda x, s: grad_array(x, s, 2)),
                          -1, 1)[o]
        self.p = T @ p0 @ U
        # d_b U = d_b psi U J, J the quarter turn; the u-index b of dp turns
        # by R and goes last
        UJ = U @ [[0.0, -1.0], [1.0, 0.0]]
        dq = T[:, None] @ (dp0 @ U[:, None]
                           + (p0 @ UJ)[:, None] * dpsi[..., None, None])
        self.dp = np.moveaxis((R @ dq.reshape(n, 2, -1)).reshape(
            n, 2, S.n_directions, 2), 1, -1)


class SurfaceGeometry:
    """The ChartGeometry of each surface chart at the sphere quadrature
    nodes of ``quad`` (default QuadSpec()), built once by the caller."""

    def __init__(self, S, m, quad=None):
        self.S = S
        self.m = m
        # sphere_chart_nodes puts 2 n uniform angles on each of its radii
        n = (quad or QuadSpec()).n
        self.charts = [ChartGeometry(S, m, hemi, u, w, 2 * n) for hemi, u, w
                       in sphere_chart_nodes(n)]
        self.min_residual = max(float(cg.H_norm.max()) for cg in self.charts)

    def integrate(self, values_per_chart):
        """sum over the nodes of dA * values; leading section axes of the
        values are kept, a single section gives a float."""
        total = sum(np.sum(cg.dA * vals, axis=-1)
                    for cg, vals in zip(self.charts, values_per_chart))
        return float(total) if np.ndim(total) == 0 else total

    def area(self):
        return self.integrate([np.ones(cg.shape) for cg in self.charts])

    def is_minimal(self):
        return self.min_residual <= TOL_MIN

    def require_minimal(self):
        if not self.is_minimal():
            raise NonMinimalSurfaceError(
                "%s is not minimal under %s (max |H| = %.3e)"
                % (self.S.name, self.m.name, self.min_residual))


def surface_geometry(S, m, quad=None):
    """The SurfaceGeometry of immersion S in metric m; each call builds
    a new one."""
    return SurfaceGeometry(S, m, quad)


# ---------------------------------------------------------------------
# normal sections

class NormalSection:
    """sigma = sum_{c,k} W[c, k] Y_k V_c: a coefficient matrix W on the
    scalar family Y = family(chart, u) and the surface's normal directions
    V_c.

    ``family(chart, u)`` returns K ring-generic scalars, so it evaluates
    over jets; W is a real array of shape (n_directions, K) whose trailing
    axes, if any, index a batch of sections read together.  The directions
    are the normal generator fields where the surface has them (twisted
    bundles, e.g. the projective line), else the adapted frame (n3, n4),
    which counts as the two directions of a trivial bundle.  The frame
    coefficients are sum_c f_c p_c with f_c = sum_k W[c, k] Y_k and p_c the
    chart's ``p``, so the section is globally smooth whenever the family
    is.  ``turns`` counts the quarter turns J applied to sigma.
    """

    def __init__(self, family, W, turns=0):
        self.family = family
        self.W = np.asarray(W, dtype=float)
        self.turns = turns

    def rotated(self):
        return NormalSection(self.family, self.W, self.turns + 1)

    def frame(self, x):
        """Frame-coefficient arrays x[n, c, s, ...] of the directions, J
        applied ``turns`` times, (x3, x4) -> (-x4, x3).  Raises SectionError
        unless W has one row per normal direction of the surface."""
        if len(self.W) != x.shape[1]:
            raise SectionError("W takes one row per normal direction (%d), "
                               "not %d" % (x.shape[1], len(self.W)))
        for _ in range(self.turns % 4):
            x = np.stack([-x[:, :, 1], x[:, :, 0]], axis=2)
        return x

    def require_columns(self, K):
        """Raise SectionError unless W has one column per member of a family
        of K functions."""
        if self.W.shape[1:2] != (K,):
            raise SectionError("W of shape %r: one column per family member "
                               "(%d)" % (self.W.shape, K))


def embedding_family(chart, u):
    """[1, N1, N2, N3]: the constant and the R^3 embedding functions, whose
    combinations are the affine functions on S^2."""
    return [1.0] + list(sphere_functions(chart, u))


# ---------------------------------------------------------------------
# pointwise operators on sections

def direction_factor(c, omega, p, dp):
    """P[n, s, c] = p[n, c, s] and B[n, 2 s + i, c] = sum_a c[n, i, a]
    (dp[n, c, s, a] + omega[n, a] (J p)[n, c, s]), J (x3, x4) -> (-x4, x3),
    from a chart's frame map c and connection form omega at some of its
    nodes, and there the frame coefficients p of the normal directions V_c
    and their u-gradients dp: sum_c f_c V_c has frame coefficients P f and
    covariant derivatives D_{s,i} = B f + P e_i f along e_i = c[i, a] d_a."""
    P = np.swapaxes(p, 1, 2)
    Jp = np.stack([-P[:, 1], P[:, 0]], axis=1)
    dP = np.moveaxis(dp, 1, -1) + omega[:, None, :, None] * Jp[:, :, None]
    return P, (c[:, None] @ dP).reshape(len(P), 4, -1)


def read_family(family, chart, u, c):
    """Values Y[n, k] and frame gradients eY[n, i, k] = c[n, i, a] dY[n, k, a]
    of a scalar family at nodes u of a chart with frame map c, read once
    over 1-jets."""
    sh = (len(u),)
    Y = family(chart, seedn([u[:, 0], u[:, 1]], 1))
    dY = np.stack([grad_array(y, sh, 2) for y in Y], axis=-1)
    return np.stack([array(y, sh) for y in Y], axis=-1), c @ dY


def section_data(cg, sigma):
    """Values, frame covariant derivatives along e1/e2, and norms.

    The family is read once and W contracted with it first, f = Y W and
    e_i f = eY W; then c_s = P f and D_{s,i} = B f + P e_i f with the
    chart's ``direction_factor``.  W's section axes lead every returned
    array: (..., n) for c3, c4, norm2 and grad2, (..., n, 2) for D3 and D4.
    Raises SectionError unless W has one row per normal direction and one
    column per family member.
    """
    P, B = direction_factor(cg.c, cg.omega, sigma.frame(cg.p),
                            sigma.frame(cg.dp))
    Y, eY = read_family(sigma.family, cg.chart, cg.u, cg.c)
    sigma.require_columns(Y.shape[-1])
    (C, K), n, sh = sigma.W.shape[:2], len(Y), sigma.W.shape[2:] + cg.shape
    # W as a (k, c t) matrix, t the flattened section axes
    W = np.swapaxes(sigma.W.reshape(C, K, -1), 0, 1).reshape(K, -1)
    f, ef = (Y @ W).reshape(n, C, -1), (eY @ W).reshape(n, 2, C, -1)
    v = np.moveaxis(P @ f, -1, 0).reshape(sh + (2,))              # s last
    D = (B @ f).reshape(n, 2, 2, -1) + np.swapaxes(P[:, None] @ ef, 1, 2)
    D = np.moveaxis(D, -1, 0).reshape(sh + (2, 2))                # s, i last
    v3, v4, e3, e4 = v[..., 0], v[..., 1], D[..., 0, :], D[..., 1, :]
    return {"c3": v3, "c4": v4, "D3": e3, "D4": e4,
            "norm2": v3 ** 2 + v4 ** 2,
            "grad2": e3[..., 0] ** 2 + e3[..., 1] ** 2
                     + e4[..., 0] ** 2 + e4[..., 1] ** 2}


def j_rotated_data(d):
    """section_data of J sigma from that of sigma: the frame coefficients
    and their covariant derivatives turn by +90 degrees, (c3, c4) ->
    (-c4, c3); the norms do not change."""
    return dict(d, c3=-d["c4"], c4=d["c3"], D3=-d["D4"], D4=d["D3"])


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
    A3, A4 = cg.A[..., 0], cg.A[..., 1]
    corr = (np.einsum("...j,...j->...", A3[..., 0, :], A4[..., 1, :])
            - np.einsum("...j,...j->...", A4[..., 0, :], A3[..., 1, :]))
    return cg.R1234 + corr


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

def _jacobi_pairing(cg, d, e):
    """c_d^T M c_e, c the frame coefficients of section_data d and e and M
    the chart's Jacobi block ``jacobi``."""
    c, ce = (np.stack([x["c3"], x["c4"]], axis=-1) for x in (d, e))
    return np.einsum("...s,...st,...t->...", c, cg.jacobi, ce)


def second_variation_density(cg, d):
    """Integrand of delta^2 from the section_data dict of sigma."""
    return d["grad2"] - _jacobi_pairing(cg, d, d)


def lemma310_integrals(geom, data):
    """Both sides of Lemma 3.10 from the per-chart section_data of sigma."""
    lhs = geom.integrate([d["grad2"] for d in data])
    rhs = geom.integrate([2 * dbar_sq(d) + cg.kperp * d["norm2"]
                          for cg, d in zip(geom.charts, data)])
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

    ``index_two`` polarizes: J is parallel, so delta^2(sigma + b J sigma) =
    low + b^2 high + 2 b cross, cross = -int c^T M (J c), for the two
    variations ordered low, high.  d2_pair = (low, low + high - 2 |cross|)
    is unstable if both are below -1e-9 max(1, int |nabla sigma|^2); a
    single section gives floats and a bool, a batch arrays.
    """
    def delta2(ds):
        return geom.integrate([second_variation_density(cg, d)
                               for cg, d in zip(geom.charts, ds)])

    jdata = [j_rotated_data(d) for d in data]
    d2s, d2j = delta2(data), delta2(jdata)
    lhs = d2s + d2j
    t_dbar = geom.integrate([4.0 * dbar_sq(d) for d in data])
    # 0.0 - x, not -x, so that a zero integral is reported as 0.0
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


def weitzenboeck_variation(geom, sigma):
    """averaged_second_variation of sigma on a minimal surface, sigma
    evaluated once per chart."""
    geom.require_minimal()
    return averaged_second_variation(
        geom, [section_data(cg, sigma) for cg in geom.charts])


def ric_perp_identity_residual(cg):
    """Pointwise residual of the Bianchi/(2.3) identity relating
    -2<R(e1,e2)e4,e3> + Ric_perp(e3) + Ric_perp(e4), the last two the
    diagonal of Rterm, to the eta pairing that s6_pairing reads via W+."""
    lhs = -2.0 * cg.R1234 + cg.Rterm[..., 0, 0] + cg.Rterm[..., 1, 1]
    return np.abs(lhs - cg.s6_pairing).max()
