"""Second-variation index forms over minimal 2-spheres.

Normal sections are discretized by real spherical harmonics times the
surface's normal directions: the adapted normal frame on trivial normal
bundles, or a globally spanning set of projected ambient fields on twisted
ones (e.g. the projective line).  Both are ``surfaces.NormalSection``s.
The polarized second variation and the mass matrix define a generalized
eigenvalue pencil whose negative count is the Morse index.

The basis and single sections (``index_two_construction``) read the same
per-node data of ``surfaces.ChartGeometry``: the frame coefficients of the
normal directions, the connection form and the Jacobi block.  Every
function here takes the ``surfaces.SurfaceGeometry`` its caller built once.

``theorem_c_margins`` reads the hypotheses of Theorem C off the same
geometry: the eta-pairing, the shear and the minimal sectional curvature.
The ``surface`` command reports them next to c1 and the averaged second
variation of the near-holomorphic section, which together carry the
theorem's argument; a curvature-override fixture exercises the
instability branch that no constructible metric can reach.
"""

import numpy as np

from .curvature import sectional_extremes
from .errors import RefinementError
from .sphharm import harmonic_fn, real_harmonics
from .surfaces import (
    NormalSection, a_wedge_a_sq, covariant_coeffs, j_rotated_data,
    jacobi_block, second_variation_density, section_data,
)
from .jets import array, drop, grad_array, seedn

MASS_COND_MAX = 1e6


class SectionBasis:
    """Harmonics-times-normal-directions basis over a surface.

    The elements are Y_lm V_c for the surface's normal directions V_c: the
    adapted frame n3, n4 on a trivial bundle (dimension 2 (L+1)^2), else
    each of its normal generator fields, whose redundant mass-matrix kernel
    is projected out when solving.
    """

    def __init__(self, S, L):
        self.S = S
        self.L = int(L)
        self.n_harmonics = (L + 1) ** 2
        self.n_fields = S.n_directions
        self.dim = self.n_fields * self.n_harmonics

    def sections(self):
        """The basis as NormalSection objects (jet-capable, slower path)."""
        out = []
        fns = [harmonic_fn(l, m) for l in range(self.L + 1)
               for m in range(-l, l + 1)]
        zero = lambda chart, u: 0.0
        for c in range(self.n_fields):
            for f in fns:
                coeffs = [zero] * self.n_fields
                coeffs[c] = f
                out.append(NormalSection(coeffs))
        return out

    def as_section(self, coefs):
        """sum_j coefs[j] * (element j) as a single section.

        Field c gets the coefficient function sum_k coefs[c, k] Y_k, so each
        evaluation costs one real_harmonics call per field, at any jet order.
        """
        W = np.asarray(coefs, dtype=float).reshape(self.n_fields,
                                                    self.n_harmonics)
        L = self.L

        def combination(wc):
            def f(chart, u):
                return sum(float(w) * y
                           for w, y in zip(wc, real_harmonics(chart, u, L)))
            return f

        return NormalSection([combination(wc) for wc in W])

    def node_data(self, cg):
        """Vectorized per-node coefficients and covariant derivatives.

        Returns (v3, v4, cov3, cov4): values (N, dim) and coordinate
        covariant derivatives (N, dim, 2).
        """
        sh = cg.shape
        uj = seedn([cg.u[:, 0], cg.u[:, 1]], 1)
        Y = real_harmonics(cg.chart, uj, self.L)
        Yv = np.stack([array(y, sh) for y in Y], axis=-1)
        dY = np.stack([grad_array(y, sh, 2) for y in Y], axis=-2)
        # frame coefficients of the normal directions and their gradients
        gens = drop(cg.gen_coeffs)
        p3 = np.stack([array(a3, sh) for a3, _ in gens], axis=-1)
        p4 = np.stack([array(a4, sh) for _, a4 in gens], axis=-1)
        dp3 = np.stack([grad_array(a3, sh, 2) for a3, _ in gens], axis=-2)
        dp4 = np.stack([grad_array(a4, sh, 2) for _, a4 in gens], axis=-2)

        # combine: element (c, k) has coefficients Y_k p3_c, Y_k p4_c
        v3 = (p3[..., :, None] * Yv[..., None, :]).reshape(sh + (self.dim,))
        v4 = (p4[..., :, None] * Yv[..., None, :]).reshape(sh + (self.dim,))
        d3 = (dp3[..., :, None, :] * Yv[..., None, :, None]
              + p3[..., :, None, None] * dY[..., None, :, :])
        d4 = (dp4[..., :, None, :] * Yv[..., None, :, None]
              + p4[..., :, None, None] * dY[..., None, :, :])
        d3 = d3.reshape(sh + (self.dim, 2))
        d4 = d4.reshape(sh + (self.dim, 2))
        return (v3, v4) + covariant_coeffs(cg, v3, v4, d3, d4)


def _mass_whitening(G):
    """Z with Z^T G Z = I on the directions kept by the MASS_COND_MAX cut."""
    lam, U = np.linalg.eigh(G)
    keep = lam > lam[-1] / MASS_COND_MAX
    return U[:, keep] / np.sqrt(lam[keep])


class IndexForm:
    """Discretized second-variation pencil Q x = lambda G x.

    D, the dbar matrix assembled with Q and G, is kept for
    ``near_holomorphic_section``.
    """

    def __init__(self, Q, G, basis, D):
        self.Q = Q
        self.G = G
        self.D = D
        self.basis = basis
        self.Z = Z = _mass_whitening(G)
        self.mass_rank = Z.shape[1]
        Qw = Z.T @ Q @ Z
        Qw = 0.5 * (Qw + Qw.T)
        self.spectrum, V = np.linalg.eigh(Qw)
        self.vectors = Z @ V
        self.tol_idx = 1e-6 * max(1.0, np.abs(self.spectrum).max())
        self.morse_index = int(np.sum(self.spectrum < -self.tol_idx))
        self.nullity = int(np.sum(np.abs(self.spectrum) <= self.tol_idx))


def _accumulate_forms(geom, basis, ambient_override=None):
    """The index form Q, mass matrix G and dbar matrix D of the basis.

    Each is a quadrature sum over nodes n of dA_n F_n^T M_n F_n for
    per-node feature rows F_n (values or frame derivatives of the basis).
    The area weights dA are positive, so scaling each node's rows by the
    real factor r = sqrt(dA) turns every sum into a single
    BLAS product over the stacked rows: X^T X, or V^T (M V) for the
    indefinite curvature-plus-shear block.
    """
    dim = basis.dim
    Q = np.zeros((dim, dim))
    G = np.zeros((dim, dim))
    D = np.zeros((dim, dim))
    for cg in geom.charts:
        v3, v4, cov3, cov4 = basis.node_data(cg)
        n = len(cg.w)
        r = np.sqrt(cg.dA)[:, None, None]
        # rows e1, e2 of the n3 coefficient, then of the n4 coefficient,
        # with the frame derivatives e_i = c[i,a] d_a
        X = np.empty((n, 4, dim))
        np.einsum("nia,nba->nib", cg.c, cov3, out=X[:, :2])
        np.einsum("nia,nba->nib", cg.c, cov4, out=X[:, 2:])
        del cov3, cov4
        X *= r
        V = np.stack([v3, v4], axis=1)               # (n, 2, dim)
        del v3, v4
        V *= r
        M = jacobi_block(cg, ambient_override)
        Xf = X.reshape(4 * n, dim)
        Vf = V.reshape(2 * n, dim)
        Q += Xf.T @ Xf
        Q -= Vf.T @ np.matmul(M, V).reshape(2 * n, dim)
        G += Vf.T @ Vf
        # dbar rows in place: b3 = D3_1 - D4_2 in row 0, b4 = D4_1 + D3_2
        # in row 2; rows 0 and 2 of every node are then one strided view
        X[:, 0] -= X[:, 3]
        X[:, 2] += X[:, 1]
        B = X[:, ::2].reshape(2 * n, dim)
        D += B.T @ B
    return 0.5 * (Q + Q.T), 0.5 * (G + G.T), 0.5 * (D + D.T)


def assemble_index_form(geom, basis, ambient_override=None):
    """Polarized second-variation matrix and mass matrix over the basis."""
    if ambient_override is None:
        geom.require_minimal()
    Q, G, D = _accumulate_forms(geom, basis, ambient_override)
    return IndexForm(Q, G, basis, D)


def near_holomorphic_section(geom, form):
    """Minimize the dbar energy over unit-mass sections of ``form.basis``.

    ``form`` is the IndexForm assembled over geom; its mass whitening and
    dbar matrix are used as they are.

    Returns {section, energy, coefficients}; runs regardless of the sign
    of c1 (a negative Chern number just means the energy cannot reach 0).
    """
    basis, Z, D = form.basis, form.Z, form.D
    Dw = Z.T @ D @ Z
    ev, V = np.linalg.eigh(0.5 * (Dw + Dw.T))
    lo = ev[0]
    ties = np.nonzero(ev <= lo + 1e-10 * max(1.0, abs(lo)))[0]
    if len(ties) > 1:
        # prefer sections that stay away from zero: largest L4 mass
        nodes = [(cg.dA,) + basis.node_data(cg)[:2]
                 for cg in geom.charts]
        best, best_l4 = ties[0], -np.inf
        for k in ties:
            coefs = Z @ V[:, k]
            l4 = 0.0
            for wA, v3, v4 in nodes:
                n2 = (v3 @ coefs) ** 2 + (v4 @ coefs) ** 2
                l4 += float(np.sum(wA * n2 ** 2))
            if l4 > best_l4:
                best, best_l4 = k, l4
        k0 = best
    else:
        k0 = ties[0]
    coefs = Z @ V[:, k0]
    return {"section": basis.as_section(coefs), "energy": float(ev[k0]),
            "coefficients": coefs}


def refine_until_stable(op, L0=2, L_max=12):
    """Raise the harmonic degree by 2 until (index, nullity) repeats twice,
    which needs the levels L0, L0 + 2 and L0 + 4 at least."""
    if L0 + 4 > L_max:
        raise ValueError("L_max must be at least L0 + 4")
    history = []
    L = L0
    while L <= L_max:
        form = op(L)
        history.append((L, form.morse_index, form.nullity))
        if len(history) >= 3 and \
                history[-1][1:] == history[-2][1:] == history[-3][1:]:
            return {"morse_index": form.morse_index, "nullity": form.nullity,
                    "L_used": L, "history": history, "form": form}
        L += 2
    raise RefinementError("index did not stabilize by L = %d: %r"
                          % (L_max, history))


def index_two_construction(geom, sigma, ambient_override=None):
    """The sigma, sigma +- J sigma pair: both second variations negative
    whenever the averaged one is (polarization decides the sign).

    sigma is evaluated once per chart.  section_data is linear in the
    section, so the data of a sigma + b J sigma is a (c3, c4, D3, D4) of
    sigma plus b of J sigma's rotated data, and grad2 follows from D3, D4.
    Returns the two second variations ordered low to high, their cross term
    and (d2_sigma, d2 of the partner sigma -+ J sigma that lowers it).  The
    combinations are never built as sections, so no "pair" of sections is
    returned.
    """
    if ambient_override is None:
        geom.require_minimal()
    data = [section_data(cg, sigma) for cg in geom.charts]

    def d2(a, b):
        vals = []
        for cg, d in zip(geom.charts, data):
            dj = j_rotated_data(d)
            dab = {k: a * d[k] + b * dj[k] for k in ("c3", "c4", "D3", "D4")}
            D3, D4 = dab["D3"], dab["D4"]
            dab["grad2"] = (D3[..., 0] ** 2 + D3[..., 1] ** 2
                            + D4[..., 0] ** 2 + D4[..., 1] ** 2)
            vals.append(second_variation_density(cg, dab, ambient_override))
        return geom.integrate(vals)

    a, b = sorted((d2(1.0, 0.0), d2(0.0, 1.0)))
    cross = 0.5 * (d2(1.0, 1.0) - a - b)
    b_pair = d2(1.0, -1.0 if cross > 0 else 1.0)
    return {"d2_sigma": a, "d2_jsigma": b, "cross": cross,
            "d2_pair": (a, b_pair), "unstable_pair": a < 0 and b_pair < 0}


def theorem_c_margins(geom):
    """The hypothesis margins of Theorem C on a minimal sphere.

    ``pairing_min`` is the least <(s/6 - W+) eta, eta> and ``shear_max`` the
    largest |A ^ A|^2 over the nodes; ``min_sectional`` is the exact
    minimal sectional curvature of the ambient metric at the immersed
    nodes (Thorpe duality, ``sectional_extremes``), whose primal-dual gap
    is ``sectional_gap``.  Like ``curvature.condition_check`` it assumes
    the rotations z_a -> e^{i th_a} z_a are isometries, so the sectional
    search runs once per distinct pair (|z1|^2, |z2|^2) of each chart
    (exact float values).  ``hypotheses_hold`` asks for a nonnegative
    pairing and strictly positive sectional curvature.

    Raises NonMinimalSurfaceError on a non-minimal surface.
    """
    geom.require_minimal()
    M6 = []
    for cg in geom.charts:
        radii = np.sum(cg.F.reshape(-1, 2, 2) ** 2, axis=-1)
        M6.append(cg.M6[np.unique(radii, axis=0, return_index=True)[1]])
    vals, _, bound = sectional_extremes(np.concatenate(M6), return_bound=True)
    pairing_min = min(float(cg.s6_pairing.min()) for cg in geom.charts)
    min_sectional = float(vals.min())
    return {"pairing_min": pairing_min,
            "shear_max": max(float(a_wedge_a_sq(cg.A).max())
                             for cg in geom.charts),
            "min_sectional": min_sectional,
            "sectional_gap": float((vals - bound).max()),
            "hypotheses_hold": pairing_min >= -1e-9 and min_sectional > 1e-9}
