"""Pointwise curvature of a metric field and its Lambda^2 decomposition.

Sign conventions, fixed once and verified by the calibration tests:

    R(X,Y)Z      = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    Rm(X,Y,Z,V)  = < R(X,Y)V, Z >
    <R(X^Y), U^V> = < R(X,Y)V, U >     (curvature operator on bivectors)

With these choices the unit round 4-sphere has sectional curvature +1 and
its curvature operator is the identity on the unit bivector basis.  In the
orthonormal (eta, etabar) basis the operator takes the block form

    [[ s/12 + W+ ,   B   ],
     [    B^t    , s/12 + W- ]]

with B induced by the traceless Ricci part.

There is one curvature record, the dict of ``curvature_from_arrays``, and
the pointwise checks read it with any number of leading axes: a single
point is a batch of one (``riemann_at``).
"""

import numpy as np

from . import bivector as bv
from .bivector import PAIRS, kn_tensor4, operator6, to_eta_basis
from .errors import MetricConstructionError
from .jets import jlog, value
from .metrics import (J_STANDARD, toric_metric, twisted_coeffs,
                      twisted_eps_max, twisted_metric)

I3 = np.eye(3)
I4 = np.eye(4)


# ---------------------------------------------------------------------
# batched tensor pipeline

def _s_tensor(dg):
    """S[...,l,i,j] = d_i g_jl + d_j g_il - d_l g_ij, so Gamma = g^-1 S / 2.

    Extra leading axes pass through, so the same call lowers d2g."""
    S = np.einsum("...ijl->...lij", dg)
    out = S + np.swapaxes(S, -1, -2)
    out -= dg
    return out


def christoffel_arrays(g, dg):
    """(g^{-1}, Gamma^k_ij) from metric values and first derivatives, in
    any dimension n: g is (..., n, n) and dg[..., k, i, j] = d_k g_ij."""
    ginv = np.linalg.inv(g)
    S = _s_tensor(dg)
    Gamma = 0.5 * (ginv @ S.reshape(S.shape[:-2] + (-1,))).reshape(S.shape)
    return ginv, Gamma


def christoffel_derivatives(g, dg, d2g):
    """(ginv, Gamma, dGamma) with dGamma[...,m,k,i,j] = d_m Gamma^k_ij.

    With d_m g^-1 = -g^-1 (d_m g) g^-1 and S = 2 g Gamma this is
    d_m Gamma = g^-1 (d_m S / 2 - (d_m g) Gamma), batched over m."""
    ginv, Gamma = christoffel_arrays(g, dg)
    batch = g.shape[:-2]
    X = _s_tensor(d2g).reshape(batch + (4, 4, 16))
    X *= 0.5
    X -= dg @ Gamma.reshape(batch + (1, 4, 16))
    dGamma = ginv[..., None, :, :] @ X
    return ginv, Gamma, dGamma.reshape(batch + (4, 4, 4, 4))


def riemann_arrays(g, dg, d2g):
    """Coordinate curvature tensor Rm[...,i,j,k,l] = <R(di,dj)dl, dk>.

    R^l_kij = A[i,l,j,k] - A[j,l,i,k] with A[i,l,j,k] = d_i Gamma^l_jk
    + Gamma^l_im Gamma^m_jk; the quadratic term is one (16, 4) @ (4, 16)
    product and the index is lowered by one (4, 4) @ (4, 64) product."""
    ginv, Gamma, dGamma = christoffel_derivatives(g, dg, d2g)
    batch = g.shape[:-2]
    A = Gamma.reshape(batch + (16, 4)) @ Gamma.reshape(batch + (4, 16))
    A = np.swapaxes(A.reshape(batch + (4, 4, 4, 4)), -4, -3) + dGamma
    Rup = np.subtract(np.einsum("...iljk->...lkij", A),
                      np.einsum("...jlik->...lkij", A), order="C")
    low = (g @ Rup.reshape(batch + (4, 64))).reshape(batch + (16, 16))
    Rm = np.swapaxes(low, -1, -2).reshape(batch + (4, 4, 4, 4))
    return ginv, Gamma, dGamma, Rm


def orthonormal_frames(g):
    """Positively oriented g-orthonormal frames via Cholesky (columns)."""
    L = np.linalg.cholesky(g)
    return np.swapaxes(np.linalg.inv(L), -1, -2)


def curvature_from_arrays(g, dg, d2g):
    """All pointwise curvature data from raw metric derivative arrays.

    The same pipeline serves the exact (dual-number) and the
    finite-difference cross-check paths.
    """
    ginv, Gamma, dGamma, Rm = riemann_arrays(g, dg, d2g)
    E = orthonormal_frames(g)
    # Rf[a,b,c,d] = E[i,a] E[j,b] E[k,c] E[l,d] Rm[i,j,k,l] is K^T Rm K
    # on pair indices, K = E (x) E
    batch = g.shape[:-2]
    K = (E[..., :, None, :, None] * E[..., None, :, None, :]).reshape(
        batch + (16, 16))
    Rf = (np.swapaxes(K, -1, -2) @ Rm.reshape(batch + (16, 16)) @ K).reshape(
        batch + (4, 4, 4, 4))
    M6 = operator6(Rf)
    R_op = to_eta_basis(M6)
    ric = np.einsum("...akbk->...ab", Rf)
    s = np.einsum("...aa->...", ric)
    ric0 = ric - s[..., None, None] / 4.0 * I4
    s3 = s[..., None, None]
    wplus = R_op[..., :3, :3] - s3 / 12.0 * I3
    wminus = R_op[..., 3:, 3:] - s3 / 12.0 * I3
    return {
        "g": g, "ginv": ginv, "Gamma": Gamma, "dGamma": dGamma,
        "Rm": Rm, "frame": E, "Rm_frame": Rf, "M6": M6, "R_op": R_op,
        "s": s, "ric": ric, "ric0": ric0,
        "wplus": wplus, "wminus": wminus, "ric_block": R_op[..., :3, 3:],
    }


def curvature_batch(m, chart, pts):
    g, dg, d2g = m.jets(chart, pts)
    return curvature_from_arrays(g, dg, d2g)


def riemann_at(m, chart, p):
    """The curvature_from_arrays record at a single point of the chart."""
    m.require_inside(chart, p)
    data = curvature_batch(m, chart, np.asarray(p, dtype=float)[None, :])
    return {k: v[0] for k, v in data.items()}


# ---------------------------------------------------------------------
# scalar / Ricci / Weyl decomposition (Kulkarni-Nomizu subtraction)

# frozen decomposition coefficients for n = 4 with the half-determinant
# product: R = C_SCAL * s * (g o g) + C_RIC * (ric0 o g) + W.  The test
# suite re-derives both from the requirement that W be totally trace-free.
C_SCAL = 1.0 / 12.0
C_RIC = 1.0


class Decomposition:
    """Weyl part of a curvature record; ``residual`` (reassembly error) and
    ``trace_norm`` (Ricci contraction of W, ~0 certifies the coefficients)
    are maxima per point."""

    def __init__(self, W4, residual):
        self.W4 = W4
        self.W6 = operator6(W4)
        op = to_eta_basis(self.W6)
        self.wplus = op[..., :3, :3]
        self.wminus = op[..., 3:, 3:]
        self.residual = residual
        self.trace_norm = np.abs(np.einsum("...akbk->...ab", W4)).max(
            axis=(-2, -1))


def decompose(c):
    """Split the frame curvature tensor into scalar + Ricci + Weyl parts."""
    s = c["s"][..., None, None, None, None]
    scal_part = C_SCAL * s * kn_tensor4(I4, I4)
    ric_part = C_RIC * kn_tensor4(c["ric0"], I4)
    W4 = c["Rm_frame"] - scal_part - ric_part
    recon = scal_part + ric_part + W4
    residual = np.abs(recon - c["Rm_frame"]).max(axis=(-4, -3, -2, -1))
    return Decomposition(W4, residual)


def ric_block_from_traceless(ric0):
    """Off-diagonal block predicted by Eq.-(2.3)-style algebra: the
    operator of (ric0 o g) in the eta basis (its diagonal blocks vanish)."""
    T = kn_tensor4(ric0, I4)
    op = to_eta_basis(operator6(T))
    return op[..., :3, 3:]


def block_identity_residual(c):
    """Mismatch between R_op and [[s/12+W+, B],[B^t, s/12+W-]] per point."""
    dec = decompose(c)
    B = ric_block_from_traceless(c["ric0"])
    s12 = c["s"][..., None, None] / 12.0 * I3
    top = np.concatenate([s12 + dec.wplus, B], axis=-1)
    bot = np.concatenate([np.swapaxes(B, -1, -2), s12 + dec.wminus], axis=-1)
    assembled = np.concatenate([top, bot], axis=-2)
    return np.abs(assembled - c["R_op"]).max(axis=(-2, -1))


# ---------------------------------------------------------------------
# sectional curvature extremes by Thorpe duality

#: bisection steps on t; the primal-dual gap is at most the final bracket
#: width 2 (lambda_max - lambda_min) 2^-steps, plus rounding
SECTIONAL_STEPS = 40


def sectional_extremes(M6):
    """Exact minimum of the sectional curvature <M xi, xi> over unit
    decomposable bivectors xi = x ^ y, by Thorpe duality.

    A unit bivector is decomposable exactly when <*xi, xi> = 0, so every
    lambda_min(M + t *) is a lower bound on the minimum.  In dimension 4 the
    largest of them equals it (Thorpe, J. Diff. Geom. 5, 1971; exact because
    two quadratic forms map the unit sphere of Lambda^2 onto a convex set,
    Brickman 1961).  lambda_min(M + t *) is concave in t with slope v^T * v
    at a bottom eigenvector v, and its maximum lies in |t| <= lambda_max(M)
    - lambda_min(M), so all points bisect together on the sign of that
    slope.  The bottom eigenvectors kept at the two bracket ends have slopes
    of opposite sign, and their mix with <*xi, xi> = 0 is decomposable.

    M6 may be batched (..., 6, 6); the computation is deterministic.
    Returns (value, xi, bound): xi is that unit decomposable bivector
    (..., 6) in the basis of PAIRS, value = <M xi, xi> its sectional
    curvature, an upper bound on the minimum, and bound is the certified
    lower bound lambda_min(M + t* *) at the better bracket end; value minus
    bound is the primal-dual gap.
    """
    M = np.asarray(M6, dtype=float)
    batch = M.shape[:-2]
    M = M.reshape(-1, 6, 6)
    rows = np.arange(len(M))
    lam = np.linalg.eigvalsh(M)
    # columns: the lower and the upper bracket end, with the bottom
    # eigenpair found there
    t = (lam[:, -1] - lam[:, 0])[:, None] * np.array([-1.0, 1.0])
    f, v = np.linalg.eigh(M[:, None] + t[..., None, None] * bv.STAR6)
    f, v = f[..., 0], v[..., 0]
    for _ in range(SECTIONAL_STEPS):
        mid = t.mean(axis=1)
        fm, vm = np.linalg.eigh(M + mid[:, None, None] * bv.STAR6)
        # slope > 0: the maximum lies above mid, which becomes the lower end
        end = (bv.plucker_residual(vm[..., 0]) <= 0.0).astype(int)
        t[rows, end] = mid
        f[rows, end] = fm[:, 0]
        v[rows, end] = vm[..., 0]

    x, y = v[:, 0], v[:, 1]
    y = y * np.where(np.sum(x * y, axis=-1) < 0.0, -1.0, 1.0)[:, None]
    # <*xi, xi> on cos(th) x + sin(th) y is a c^2 + 2 b c s + d s^2 with
    # a >= 0 >= d (the clips only absorb rounding at the initial ends);
    # take its root in [0, pi/2], where |xi| >= 1, in the form free of
    # cancellation
    a = bv.plucker_residual(x).clip(min=0.0)
    d = bv.plucker_residual(y).clip(max=0.0)
    b = np.sum(bv.hodge_star(x) * y, axis=-1)
    r = np.sqrt(b * b - a * d)
    th = np.where(b > 0.0, np.arctan2(b + r, -d), np.arctan2(a, r - b))
    xi = np.cos(th)[:, None] * x + np.sin(th)[:, None] * y
    xi /= np.linalg.norm(xi, axis=-1, keepdims=True)
    value = np.einsum("ni,nij,nj->n", xi, M, xi)
    return (value.reshape(batch), xi.reshape(batch + (6,)),
            f.max(axis=1).reshape(batch))


# ---------------------------------------------------------------------
# positivity conditions

def psd_tolerance(s):
    return 1e-9 * (1.0 + np.abs(s) / 12.0)


def condition_check(m, grid_n=6, include_sectional=True):
    """Aggregate eigenvalue margins over chart.grid(grid_n) of every chart.

    Margins are minima over all points of: min eig(s/6 - W+-),
    min eig(s/12 + W+-), min eig(R_op) and the minimal sectional curvature.
    Precondition: the rotations z_a -> e^{i th_a} z_a are isometries in
    every chart (the test suite checks this for every entry of METRICS), so
    every margin is constant on each T^2 orbit.  The curvature is evaluated
    once per orbit that the grid meets (``Chart.orbit_grid``) and each
    margin is scattered back to the grid points.  The sectional minimum is
    exact up to the certified gap (Thorpe duality, see
    ``sectional_extremes``): each point's value is the curvature of an
    actual plane, so it is an upper bound, and it exceeds the dual lower
    bound by at most ``sectional_gap``.  Nothing is random, so the result
    does not depend on a seed.

    Returns (conditions, records).  ``conditions`` is the report block:
    ``npoints`` counts the grid points the margins cover, not the points
    evaluated (one per T^2 orbit); ``tol_psd`` is the tolerance of
    ``satisfied`` (margin >= -tol_psd); ``sectional_gap``, the largest
    primal-dual gap of the sectional search, is present only when the
    search ran; ``worst_point`` gives each margin's first grid point, in
    chart and grid order, within tol_psd of its minimum, and the number of
    such points as ``ties``.  ``records`` is [(chart, margins)] with each
    margin an array over the chart's grid points in grid order.
    """
    smax, gap, total = 0.0, -np.inf, 0
    records = []
    for chart, reps, index in m.orbit_points(grid_n):
        data = curvature_batch(m, chart, reps)
        s = data["s"][:, None, None]
        out = {
            "s6_minus_wplus": np.linalg.eigvalsh(s / 6 * I3 - data["wplus"])[:, 0],
            "s6_minus_wminus": np.linalg.eigvalsh(s / 6 * I3 - data["wminus"])[:, 0],
            "s12_plus_wplus": np.linalg.eigvalsh(s / 12 * I3 + data["wplus"])[:, 0],
            "s12_plus_wminus": np.linalg.eigvalsh(s / 12 * I3 + data["wminus"])[:, 0],
            "curvature_operator": np.linalg.eigvalsh(data["R_op"])[:, 0],
        }
        if include_sectional:
            vals, _, bound = sectional_extremes(data["M6"])
            out["min_sectional"] = vals
            gap = max(gap, float((vals - bound).max()))
        smax = max(smax, float(np.abs(data["s"]).max()))
        total += len(index)
        records.append((chart, {k: v[index] for k, v in out.items()}))

    # where a margin is flat up to rounding (s/12 + W+ on a Kaehler metric),
    # the tie rule lets the grid fix the worst point, not the order of the
    # kernel's sums
    tol = psd_tolerance(smax)
    conditions = {"npoints": total, "tol_psd": tol, "margins": {},
                  "satisfied": {}, "worst_point": {}}
    for key in records[0][1]:
        low = min(float(out[key].min()) for _, out in records)
        near = [(chart, np.flatnonzero(out[key] <= low + tol))
                for chart, out in records]
        chart, flat = next((c, f) for c, f in near if len(f))
        point = m.charts[chart].grid_point(grid_n, flat[0])
        conditions["margins"][key] = low
        conditions["satisfied"][key] = bool(low >= -tol)
        conditions["worst_point"][key] = {
            "chart": chart, "point": point.tolist(),
            "ties": sum(len(f) for _, f in near)}
    if include_sectional:
        conditions["sectional_gap"] = gap
    return conditions, records


def kaehler_scalar_curvature(coeffs, chart, pts):
    """(s, det_C) at points of the chart of the Kahler metric with the
    coefficients coeffs(chart, s) of ``metrics``; their leading axes pass
    through.  With det_C = f0 f1 - f12^2 s1 s2 = sqrt(det g), the Ricci
    form is -i ddbar log det_C (Kobayashi & Nomizu, Foundations II, ch. IX),
    with coefficients (r0, r1, r12) = ``toric_metric(-log det_C)``, and s =
    2 (r0 f1 + r1 f0 - 2 r12 f12 s1 s2) / det_C.  The coefficients are read
    once, on s seeded with two dual layers."""
    s = [pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1],
         pts[:, 2] * pts[:, 2] + pts[:, 3] * pts[:, 3]]
    f = []

    def ricci_potential(chart, s):
        f.extend(coeffs(chart, s))
        return -jlog(f[0] * f[1] - f[2] * f[2] * s[0] * s[1])

    r0, r1, r12 = toric_metric(ricci_potential)(chart, s)
    f0, f1, f12 = (value(c) for c in f)
    s12 = s[0] * s[1]
    det = f0 * f1 - f12 * f12 * s12
    return 2.0 * (r0 * f1 + r1 * f0 - 2.0 * r12 * f12 * s12) / det, det


def positivity_eps_max(t, grid_n=5):
    """The first eps in (0, hi] at which s/6 - W+ stops being PSD on
    chart.grid(grid_n) of some chart, else hi = 0.95 ``twisted_eps_max(t)``.

    The family is Kahler, so W+ has spectrum (s/6, -s/12, -s/12)
    (Derdzinski, Compositio Math. 49, 1983) and min eig(s/6 - W+) =
    min(0, s/4).  s comes from the Ricci potential
    (``kaehler_scalar_curvature``): det_C = sqrt(det g) is a quadratic in
    eps and the Ricci coefficients have the denominator det_C^2, so
    s det g^{3/2} = s det_C^3 is a quintic in eps at each point.  It is
    taken at the six Chebyshev nodes of [0, hi], which fit it exactly, and
    the result is its smallest real root in (0, hi].  Roots more than 1e-9
    off the real line of [-1, 1] are skipped, and with them tangential
    double roots, where s does not go negative.

    s is T^2-invariant, so it is taken once per orbit that the grid meets
    (``Chart.orbit_grid``).  Per chart, the family's coefficients are read
    once, with the six nodes in a leading axis (node, point); no metric jet
    or curvature tensor is formed.  Use odd grid sizes: the tightest spot of
    the perturbation sits at a chart centre, which even grids skip.
    """
    hi = 0.95 * twisted_eps_max(t)
    x = np.polynomial.chebyshev.chebpts1(6)
    coeffs = twisted_coeffs(t, 0.5 * hi * (x + 1.0)[:, None])
    roots = [1.0]
    for chart, reps, _ in twisted_metric(t, 0.0).orbit_points(grid_n):
        s, det = kaehler_scalar_curvature(coeffs, chart, reps)
        for c in np.polynomial.chebyshev.chebfit(x, s * det ** 3, 5).T:
            r = np.polynomial.chebyshev.chebroots(c)
            roots.extend(r.real[(abs(r.imag) <= 1e-9) & (r.real > -1.0)
                                & (r.real <= 1.0)])
    return float(0.5 * hi * (min(roots) + 1.0))


# ---------------------------------------------------------------------
# the eigenvalue implication s/12 + W+ >= 0  =>  s/6 - W+ >= 0

def lemma21_check(c):
    """The implication's margins per point, read at ``psd_tolerance``."""
    s = c["s"]
    tol = psd_tolerance(s)
    out = {}
    for name in ("plus", "minus"):
        lam = np.linalg.eigvalsh(c["w" + name])
        ante = s / 12.0 + lam[..., 0]
        cons = s / 6.0 - lam[..., -1]
        out[name] = {"antecedent_margin": ante, "consequent_margin": cons,
                     "violated": (ante >= -tol) & (cons < -tol)}
    return out


# ---------------------------------------------------------------------
# Kaehler structure

def kaehler_residuals(m):
    """Max-norm residuals of J^2 + Id, g(J.,J.) - g and nabla J over
    chart.grid(4) of every chart, taken once per T^2 orbit: J_STANDARD
    commutes with the rotations, which are isometries, so the residual at a
    rotated point is the rotated residual."""
    if not m.is_kaehler:
        raise MetricConstructionError("%s has no complex structure" % m.name)
    out = {"j_squared": 0.0, "compatibility": 0.0, "nabla_j": 0.0}
    for chart, pts, _ in m.orbit_points(4):
        g, dg, _ = m.jets(chart, pts)
        _, Gamma = christoffel_arrays(g, dg)
        J = np.broadcast_to(J_STANDARD, g.shape)
        out["j_squared"] = max(out["j_squared"], np.abs(
            np.einsum("...ij,...jk->...ik", J, J) + np.eye(4)).max())
        out["compatibility"] = max(out["compatibility"], np.abs(
            np.einsum("...ij,...ik,...jl->...kl", g, J, J) - g).max())
        # dJ = 0 for the built-ins (chart-constant J); covariant derivative
        # reduces to the bracket with the connection
        nj = (np.einsum("...ikm,...mj->...kij", Gamma, J)
              - np.einsum("...mkj,...im->...kij", Gamma, J))
        out["nabla_j"] = max(out["nabla_j"], np.abs(nj).max())
    return out


# ---------------------------------------------------------------------
# the Weitzenboeck identity on 2-forms
#
# A 2-form is its jets form(chart, pts) -> (A, dA, d2A) on (n, 4) batches,
# laid out as ``MetricField.jets`` lays out (g, dg, d2g).

def kaehler_form(m):
    """The Kahler 2-form omega(X, Y) = g(JX, Y) of a Kahler built-in: J is
    constant in every chart, so its jets are J^T applied to those of g."""
    if not m.is_kaehler:
        raise MetricConstructionError("%s has no complex structure" % m.name)

    def form(chart, pts):
        return tuple(np.transpose(J_STANDARD) @ a for a in m.jets(chart, pts))

    return form


def _covariant_2form(Gamma, dGamma, A, dA, d2A):
    """(nabla_j alpha)_{kl} and its coordinate derivative d_p of it."""
    nabA = (dA
            - np.einsum("...mjk,...ml->...jkl", Gamma, A)
            - np.einsum("...mjl,...km->...jkl", Gamma, A))
    dnabA = (d2A
             - np.einsum("...pmjk,...ml->...pjkl", dGamma, A)
             - np.einsum("...mjk,...pml->...pjkl", Gamma, dA)
             - np.einsum("...pmjl,...km->...pjkl", dGamma, A)
             - np.einsum("...mjl,...pkm->...pjkl", Gamma, dA))
    return nabA, dnabA


def hodge_laplacian_2form(ginv, dg, Gamma, dA, d2A, nabA, dnabA):
    """(d delta + delta d) alpha in coordinates, all lower indices."""
    # d(delta alpha), with delta alpha = -g^{jk} (nabla_j alpha)_{kl}
    dginv = -np.einsum("...ka,...mab,...bl->...mkl", ginv, dg, ginv, optimize=True)
    ddelta = -(np.einsum("...pjk,...jkl->...pl", dginv, nabA)
               + np.einsum("...jk,...pjkl->...pl", ginv, dnabA))
    d_delta = ddelta - np.einsum("...pl->...lp", ddelta)

    # d alpha (cyclic) and delta d alpha
    B = (dA + np.einsum("...jki->...ijk", dA) + np.einsum("...kij->...ijk", dA))
    dB = (d2A + np.einsum("...pjki->...pijk", d2A)
          + np.einsum("...pkij->...pijk", d2A))
    nabB = (dB
            - np.einsum("...qim,...qjk->...imjk", Gamma, B)
            - np.einsum("...qij,...mqk->...imjk", Gamma, B)
            - np.einsum("...qik,...mjq->...imjk", Gamma, B))
    delta_d = -np.einsum("...im,...imjk->...jk", ginv, nabB)
    return d_delta + delta_d


def rough_laplacian_2form(ginv, Gamma, nabA, dnabA):
    """nabla^* nabla alpha = -g^{ij} (nabla^2 alpha)_{ij;kl}."""
    nab2 = (dnabA
            - np.einsum("...mij,...mkl->...ijkl", Gamma, nabA)
            - np.einsum("...mik,...jml->...ijkl", Gamma, nabA)
            - np.einsum("...mil,...jkm->...ijkl", Gamma, nabA))
    return -np.einsum("...ij,...ijkl->...kl", ginv, nab2)


def _coord_form_to_frame6(A, frame):
    # frame components alpha(e_a, e_b): contract both slots with the frame
    Af = np.einsum("...ia,...jb,...ij->...ab", frame, frame, A)
    return np.stack([Af[..., i, j] for i, j in PAIRS], axis=-1)


def weitzenboeck_residual(m, alpha, chart, pts):
    """|| Delta alpha - (nabla^* nabla alpha - 2 W alpha + (s/3) alpha) ||
    at the (n, 4) points pts, for the 2-form with jets alpha(chart, pts).

    In dimension 4 the identity holds on Lambda^2 for every metric: the
    traceless-Ricci terms of the curvature term cancel.  The Hodge route
    (d delta + delta d) and the rough route (nabla^* nabla) share nabla
    alpha and its derivative; one curvature record gives the connection,
    the frame, s and W.  The residual is taken in the orthonormal bivector
    basis.  Returns (residuals, parts): "hodge" and "rough" are coordinate
    2-forms, "weyl" is W alpha in the bivector basis and "s" the scalar
    curvature, each per point.
    """
    m.require_inside(chart, pts)
    g, dg, d2g = m.jets(chart, pts)
    A, dA, d2A = alpha(chart, pts)
    c = curvature_from_arrays(g, dg, d2g)
    nabA, dnabA = _covariant_2form(c["Gamma"], c["dGamma"], A, dA, d2A)
    hodge = hodge_laplacian_2form(c["ginv"], dg, c["Gamma"], dA, d2A,
                                  nabA, dnabA)
    rough = rough_laplacian_2form(c["ginv"], c["Gamma"], nabA, dnabA)
    weyl = np.einsum("...ij,...j->...i", decompose(c).W6,
                     _coord_form_to_frame6(A, c["frame"]))
    s = c["s"]
    diff6 = _coord_form_to_frame6(hodge - rough - s[..., None, None] / 3.0 * A,
                                  c["frame"]) + 2.0 * weyl
    return (np.linalg.norm(diff6, axis=-1),
            {"hodge": hodge, "rough": rough, "weyl": weyl, "s": s})
