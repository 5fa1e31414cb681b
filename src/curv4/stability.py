"""Second-variation index forms over minimal 2-spheres.

Normal sections are discretized by real spherical harmonics times the
surface's normal directions: the adapted normal frame on trivial normal
bundles, or a globally spanning set of projected ambient fields on twisted
ones (e.g. the projective line).  A combination of basis elements is the
``surfaces.NormalSection`` of the harmonics family with its coefficients
as the matrix W.  The polarized second variation and the mass matrix
define a generalized eigenvalue pencil whose negative count is the Morse
index.

An element is a direction V_c times a harmonic Y_k, so its rows at a node
are outer products of the chart's ``surfaces.direction_factor`` with Y_k
and its frame gradient: the product rule of ``section_data``, factored
once per node.  Every function here takes the ``surfaces.SurfaceGeometry``
its caller built once.

``theorem_c_margins`` reads the hypotheses of Theorem C off the same
geometry: the eta-pairing, the shear and the minimal sectional curvature.
The ``surface`` command reports them next to c1 and the averaged second
variation of the near-holomorphic section with its index-two pair
(``surfaces.averaged_second_variation``), which together carry the
theorem's argument.
"""

import numpy as np

from .curvature import sectional_extremes
from .errors import RefinementError
from .sphharm import real_harmonics
from .surfaces import (
    NormalSection, a_wedge_a_sq, direction_factor, read_family, section_data,
)

MASS_COND_MAX = 1e6


class SectionBasis:
    """Harmonics-times-normal-directions basis over a surface.

    The elements are Y_lm V_c for the surface's normal directions V_c: the
    adapted frame n3, n4 on a trivial bundle (dimension 2 (L+1)^2), else
    each of its normal generator fields, whose redundant mass-matrix kernel
    is projected out when solving.  Element j = c (L+1)^2 + k is the
    NormalSection of ``family`` (the Y_k) whose W is the unit matrix at
    [c, k].
    """

    def __init__(self, S, L):
        self.S = S
        self.L = int(L)
        self.n_harmonics = (L + 1) ** 2
        self.n_fields = S.n_directions
        self.dim = self.n_fields * self.n_harmonics

    def family(self, chart, u):
        """The harmonics Y_k, k = 0 .. (L+1)^2 - 1, ordered by (l, m)."""
        return real_harmonics(chart, u, self.L)

    def as_section(self, coefs):
        """sum_j coefs[j] * (element j) as one NormalSection; trailing axes
        of coefs index a batch of sections."""
        return NormalSection(self.family, np.reshape(coefs, (
            self.n_fields, self.n_harmonics) + np.shape(coefs)[1:]))

    def node_data(self, cg):
        """Rows X (n, 4, dim) of the covariant derivatives 3e1, 3e2, 4e1,
        4e2 and V (n, 2, dim) of the coefficients c3, c4 of every element
        Y_k V_c.  With the chart's ``direction_factor`` (P, B), row (s, i)
        of X is B_{s,i} Y + P_s e_i Y: at each node one (4 C, 3) by (3, K)
        product against (Y, e1 Y, e2 Y), written into X; V_s = P_s Y."""
        Y, eY = read_family(cg, self.family)
        P, B = direction_factor(cg, cg.p, cg.dp)
        n = len(Y)
        A = np.zeros((n, 2, 2, self.n_fields, 3))
        A[..., 0] = B.reshape(n, 2, 2, -1)
        A[:, :, 0, :, 1] = A[:, :, 1, :, 2] = P
        X = A.reshape(n, -1, 3) @ np.concatenate([Y[:, None], eY], axis=1)
        V = P.reshape(n, -1, 1) @ Y[:, None]
        return X.reshape(n, 4, self.dim), V.reshape(n, 2, self.dim)


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
        self.D = D
        self.basis = basis
        self.Z = Z = _mass_whitening(G)
        self.mass_rank = Z.shape[1]
        Qw = Z.T @ Q @ Z
        Qw = 0.5 * (Qw + Qw.T)
        self.spectrum = np.linalg.eigh(Qw)[0]
        self.tol_idx = 1e-6 * max(1.0, np.abs(self.spectrum).max())
        self.morse_index = int(np.sum(self.spectrum < -self.tol_idx))
        self.nullity = int(np.sum(np.abs(self.spectrum) <= self.tol_idx))


def _accumulate_forms(geom, basis):
    """The index form Q, mass matrix G and dbar matrix D of the basis.

    Each is a quadrature sum over nodes n of dA_n F_n^T M_n F_n for the
    per-node feature rows of ``SectionBasis.node_data``: the frame
    covariant derivatives X and the frame coefficients V of every element.
    The area weights dA are positive, so scaling each node's rows in place
    by the real factor r = sqrt(dA) turns every sum into a single BLAS
    product over the stacked rows: X^T X, or V^T (M V) for the indefinite
    curvature-plus-shear block M, the chart's ``jacobi``.
    """
    dim = basis.dim
    Q, G, D = (np.zeros((dim, dim)) for _ in range(3))
    for cg in geom.charts:
        X, V = basis.node_data(cg)
        n = len(cg.w)
        r = np.sqrt(cg.dA)[:, None, None]
        X *= r
        V *= r
        Xf = X.reshape(4 * n, dim)
        Vf = V.reshape(2 * n, dim)
        Q += Xf.T @ Xf
        Q -= Vf.T @ np.matmul(cg.jacobi, V).reshape(2 * n, dim)
        G += Vf.T @ Vf
        # dbar rows in place: b3 = D3_1 - D4_2 in row 0, b4 = D4_1 + D3_2
        # in row 2; rows 0 and 2 of every node are then one strided view
        X[:, 0] -= X[:, 3]
        X[:, 2] += X[:, 1]
        B = X[:, ::2].reshape(2 * n, dim)
        D += B.T @ B
        del X, V, Xf, Vf, B   # free this chart's rows before the next's
    return 0.5 * (Q + Q.T), 0.5 * (G + G.T), 0.5 * (D + D.T)


def assemble_index_form(geom, basis):
    """Polarized second-variation matrix and mass matrix over the basis;
    NonMinimalSurfaceError on a non-minimal surface."""
    geom.require_minimal()
    Q, G, D = _accumulate_forms(geom, basis)
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
        # prefer sections that stay away from zero: largest L4 mass, with
        # all tied candidates read in one batch
        tied = basis.as_section(Z @ V[:, ties])
        k0 = ties[np.argmax(geom.integrate(
            [section_data(cg, tied)["norm2"] ** 2 for cg in geom.charts]))]
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


def theorem_c_margins(geom):
    """The hypothesis margins of Theorem C on a minimal sphere.

    ``pairing_min`` is the least <(s/6 - W+) eta, eta> and ``shear_max`` the
    largest |A ^ A|^2 over the nodes; ``min_sectional`` is the exact
    minimal sectional curvature of the ambient metric at the immersed
    nodes (Thorpe duality, ``sectional_extremes``), whose primal-dual gap
    is ``sectional_gap``.  Like ``curvature.condition_check`` it assumes
    the rotations z_a -> e^{i th_a} z_a are isometries, so the search
    reads each chart's M6 as it is, one per S^1 orbit of the nodes.
    ``hypotheses_hold`` asks for a nonnegative pairing and strictly
    positive sectional curvature.

    Raises NonMinimalSurfaceError on a non-minimal surface.
    """
    geom.require_minimal()
    vals, _, bound = sectional_extremes(
        np.concatenate([cg.M6 for cg in geom.charts]))
    pairing_min = min(float(cg.s6_pairing.min()) for cg in geom.charts)
    min_sectional = float(vals.min())
    return {"pairing_min": pairing_min,
            "shear_max": max(float(a_wedge_a_sq(cg.A).max())
                             for cg in geom.charts),
            "min_sectional": min_sectional,
            "sectional_gap": float((vals - bound).max()),
            "hypotheses_hold": pairing_min >= -1e-9 and min_sectional > 1e-9}
