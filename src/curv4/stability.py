"""Second-variation index forms over minimal 2-spheres, graded by charge.

Normal sections are discretized by real spherical harmonics times the
surface's normal directions: the adapted normal frame on trivial normal
bundles, or a globally spanning set of projected ambient fields on twisted
ones (e.g. the projective line).  A combination of basis elements is the
``surfaces.NormalSection`` of the harmonics family with its coefficients
as the matrix W.  The polarized second variation Q and the mass matrix G
define a generalized eigenvalue pencil whose negative count is the Morse
index; the dbar matrix D gives the near-holomorphic section.  Every
function here takes the ``surfaces.SurfaceGeometry`` its caller built once.

Every built-in surface is S^1-equivariant (``surfaces.ChartGeometry``
measures the turn), and the rotation commutes with Q, G and D, so they are
assembled and solved one charge at a time (symmetry-adapted assembly,
Faessler & Stiefel, Group Theoretical Methods and Their Applications,
1992).  The columns are the charge basis: a, b = sqrt2 (Re e, Im e) of

    e = (Y_lm + i Y_l,-m)(V_re + i tau V_im) / 2      (/ sqrt2 at m = 0)

for each degree l, order m >= 0, sign tau and direction pair (V_re, V_im),
a sparse orthogonal change of the elements Y_k V_c.  The harmonic has
charge m on chart a and -m on chart b, whose u-angle runs backwards; the
direction has -tau q, q the pair's entry of the chart's ``charges`` or, on
a trivial bundle, whose directions are the frame, its ``frame_charge``
(SpecParseError where the frame does not turn by one).  At node j of a
run the rows of e are e^(i kappa th_j) times those at the run's first
node, up to a turn of the frame that no integrand sees.  So
``SectionBasis.node_data`` runs at the first node of each run only, with
weight n_angles dA, and the angular rule keeps the terms whose charges
agree mod n_angles: the Gram of a and b where 2 kappa = 0 mod n_angles,
else its average with the Gram of -b and a, which drops the terms that
turn by e^(2 i kappa th).

The sum over the two charts is then block-diagonal in both charts'
gradings.  A block holds the pairs whose (kappa_a, kappa_b) mod n_angles
is one class or its conjugate, with e replaced by its conjugate (b by -b)
where that puts it in the class whose representative is the
lexicographically larger of +-(kappa_a, kappa_b), each value in
(-n_angles/2, n_angles/2]: the block's ``charges``, which the report's
``index_by_charge`` names.  Each block is solved as a real
symmetric matrix: mass whitening with the global ``MASS_COND_MAX`` cut,
the eigenvalues of Qw and the dbar pencil of ``near_holomorphic_section``.

On a per-node geometry (``ChartGeometry(..., n_angles=1)``) every charge
agrees mod 1, so the same routine assembles the whole basis as one block
from the rows at every node: the dense oracle of the tests.

``theorem_c_margins`` reads the hypotheses of Theorem C off the same
geometry: the eta-pairing, the shear and the minimal sectional curvature.
The ``surface`` command reports them next to c1 and the averaged second
variation of the near-holomorphic section with its index-two pair
(``surfaces.averaged_second_variation``), which together carry the
theorem's argument.
"""

import numpy as np

from .curvature import sectional_extremes
from .errors import RefinementError, SpecParseError
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

    In the charge basis (module docstring) pair p has order ``m``[p], sign
    ``tau``[p] and direction pair ``pair``[p]; its vectors a and b, v = 2 p
    and 2 p + 1, are sum_t ``coef``[v, t] times element ``cols``[v, t].
    """

    def __init__(self, S, L):
        self.S = S
        self.L = int(L)
        self.n_harmonics = K = (L + 1) ** 2
        self.n_fields = S.n_directions
        self.dim = self.n_fields * self.n_harmonics
        m, tau, pair, cols, coef = [], [], [], [], []
        h = np.sqrt(0.5)
        for j in range(self.n_fields // 2):
            re, im = 2 * j * K, (2 * j + 1) * K
            for l in range(L + 1):
                k0 = l * l + l
                m += [0]
                tau += [1]
                cols += [(re + k0, re + k0), (im + k0, im + k0)]
                coef += [(1.0, 0.0), (1.0, 0.0)]
                for mm in range(1, l + 1):
                    kp, kn = k0 + mm, k0 - mm
                    for t in (1, -1):
                        m += [mm]
                        tau += [t]
                        cols += [(re + kp, im + kn), (re + kn, im + kp)]
                        coef += [(h, -t * h), (h, t * h)]
            pair += [j] * (len(m) - len(pair))
        self.m, self.tau, self.pair = (np.array(x) for x in (m, tau, pair))
        self.cols, self.coef = np.array(cols), np.array(coef)

    def family(self, chart, u):
        """The harmonics Y_k, k = 0 .. (L+1)^2 - 1, ordered by (l, m)."""
        return real_harmonics(chart, u, self.L)

    def as_section(self, coefs):
        """sum_j coefs[j] * (element j) as one NormalSection; trailing axes
        of coefs index a batch of sections."""
        return NormalSection(self.family, np.reshape(coefs, (
            self.n_fields, self.n_harmonics) + np.shape(coefs)[1:]))

    def coefficients(self, vecs, y):
        """The element coefficients of sum_i y[i] (charge-basis vector
        vecs[i]); trailing axes of y index a batch."""
        x = np.zeros((self.dim,) + np.shape(y)[1:])
        for t in range(2):
            c = self.coef[vecs, t].reshape((-1,) + (1,) * (np.ndim(y) - 1))
            np.add.at(x, self.cols[vecs, t], c * y)
        return x

    def node_data(self, cg):
        """Rows X (r, 4, dim) of the covariant derivatives 3e1, 3e2, 4e1,
        4e2 and V (r, 2, dim) of the coefficients c3, c4 of every vector of
        the charge basis, at the first node of each of the chart's r runs.
        Those of the elements Y_k V_c come first: with the chart's
        ``direction_factor`` (P, B), row (s, i) of X is B_{s,i} Y + P_s e_i
        Y, at each node one (4 C, 3) by (3, K) product against (Y, e1 Y,
        e2 Y); V_s = P_s Y."""
        r = slice(None, None, cg.n_angles)
        c = cg.c[r]
        Y, eY = read_family(self.family, cg.chart, cg.u[r], c)
        P, B = direction_factor(c, cg.omega[r], cg.p[r], cg.dp[r])
        n = len(Y)
        A = np.zeros((n, 2, 2, self.n_fields, 3))
        A[..., 0] = B.reshape(n, 2, 2, -1)
        A[:, :, 0, :, 1] = A[:, :, 1, :, 2] = P
        X = A.reshape(n, -1, 3) @ np.concatenate([Y[:, None], eY], axis=1)
        V = P.reshape(n, -1, 1) @ Y[:, None]
        return tuple(x[..., self.cols[:, 0]] * self.coef[:, 0]
                     + x[..., self.cols[:, 1]] * self.coef[:, 1]
                     for x in (X.reshape(n, 4, -1), V.reshape(n, 2, -1)))


class ChargeBlock:
    """Q, G and D of one charge block: charge-basis vectors ``vecs``, those
    of b turned by ``signs`` into the block's class ``charges``."""

    def __init__(self, charges, vecs, signs, Q, G, D):
        self.charges = charges
        self.vecs, self.signs = vecs, signs
        self.Q, self.G, self.D = Q, G, D

    def coefficients(self, basis, y):
        """The element coefficients of the block's combinations y."""
        return basis.coefficients(self.vecs, self.signs.reshape(
            (-1,) + (1,) * (np.ndim(y) - 1)) * y)


class IndexForm:
    """Discretized second-variation pencil Q x = lambda G x, block by block.

    Each block is whitened with the global MASS_COND_MAX cut (``Z``) and
    solved; ``spectrum`` gathers the eigenvalues of all blocks, and
    ``index_by_charge`` lists the blocks with a negative or null direction.
    D is kept per block for ``near_holomorphic_section``.
    """

    def __init__(self, blocks, basis):
        self.blocks = blocks
        self.basis = basis
        mass = [np.linalg.eigh(b.G) for b in blocks]
        cut = max(lam[-1] for lam, _ in mass) / MASS_COND_MAX
        for b, (lam, U) in zip(blocks, mass):
            keep = lam > cut
            b.Z = U[:, keep] / np.sqrt(lam[keep])
            Qw = b.Z.T @ b.Q @ b.Z
            b.spectrum = np.linalg.eigvalsh(0.5 * (Qw + Qw.T))
        self.spectrum = np.sort(np.concatenate([b.spectrum for b in blocks]))
        self.mass_rank = len(self.spectrum)
        tol = 1e-6 * max(1.0, np.abs(self.spectrum).max())
        self.morse_index = int(np.sum(self.spectrum < -tol))
        self.nullity = int(np.sum(np.abs(self.spectrum) <= tol))
        self.index_by_charge = []
        for b in blocks:
            i = int(np.sum(b.spectrum < -tol))
            z = int(np.sum(np.abs(b.spectrum) <= tol))
            if i or z:
                self.index_by_charge.append(
                    {"charges": list(b.charges), "index": i, "nullity": z})


def _quarter_average(M):
    """The average of Grams M[..., :, :] on the columns (a, b) of one pair
    basis with those on (-b, a)."""
    k = M.shape[-1] // 2
    S = 0.5 * (M[..., :k, :k] + M[..., k:, k:])
    A = 0.5 * (M[..., :k, k:] - M[..., k:, :k])
    return np.concatenate([np.concatenate([S, A], axis=-1),
                           np.concatenate([-A, S], axis=-1)], axis=-2)


def _charge_blocks(geom, basis):
    """The ChargeBlocks of Q, G and D over the basis, from the rows at the
    first node of each run; SpecParseError where a trivial bundle's frame
    does not turn by one charge."""
    # the charges of every pair's e on each chart, and its class
    kappa, n = [], []
    for cg in geom.charts:
        # a trivial bundle has no generator charges: its directions are the
        # frame
        q = cg.charges or (cg.frame_charge,)
        if None in q:
            raise SpecParseError("surface %s: the normal frame of chart %s "
                                 "does not turn by one charge"
                                 % (geom.S.name, cg.chart))
        m = basis.m if cg.chart == "a" else -basis.m
        kappa.append(m - basis.tau * np.take(q, basis.pair))
        n.append(cg.n_angles)
    n = np.array(n)[:, None]

    def reduced(k):
        k = k % n
        return np.where(k > n // 2, k - n, k)

    pos, neg = reduced(np.array(kappa)), reduced(-np.array(kappa))
    flip = (neg[0] > pos[0]) | ((neg[0] == pos[0]) & (neg[1] > pos[1]))
    keys, inv = np.unique(np.where(flip, neg, pos).T, axis=0,
                          return_inverse=True)
    members = [np.flatnonzero(inv.ravel() == i) for i in range(len(keys))]
    vecs = np.concatenate([np.concatenate([2 * p, 2 * p + 1])
                           for p in members])
    signs = np.concatenate([np.concatenate([np.ones(len(p)),
                                            np.where(flip[p], -1.0, 1.0)])
                            for p in members])
    ends = np.cumsum([0] + [2 * len(p) for p in members])

    # each chart's rows at its run starts, in block order, scaled by the
    # square root of the weight n_angles dA
    forms = [0.0] * len(members)
    for ci, (cg, nc) in enumerate(zip(geom.charts, n[:, 0])):
        X, V = basis.node_data(cg)
        r = slice(None, None, nc)
        s = np.sqrt(nc * cg.dA[r])[:, None, None] * signs
        X, V = X[..., vecs] * s, V[..., vecs] * s
        MV = cg.jacobi[r] @ V
        # dbar rows b3 = D3_1 - D4_2 and b4 = D4_1 + D3_2
        Bd = np.stack([X[:, 0] - X[:, 3], X[:, 2] + X[:, 1]], axis=1)
        X, V, MV, Bd = (x.reshape(-1, x.shape[-1]) for x in (X, V, MV, Bd))
        for i, (key, lo, hi) in enumerate(zip(keys, ends[:-1], ends[1:])):
            x, v, b = X[:, lo:hi], V[:, lo:hi], Bd[:, lo:hi]
            F = np.stack([x.T @ x - v.T @ MV[:, lo:hi], v.T @ v, b.T @ b])
            if (2 * key[ci]) % nc:
                F = _quarter_average(F)
            forms[i] = forms[i] + F
    return [ChargeBlock(tuple(int(k) for k in key), vecs[lo:hi],
                        signs[lo:hi], *(0.5 * (F + np.swapaxes(F, 1, 2))))
            for key, lo, hi, F in zip(keys, ends[:-1], ends[1:], forms)]


def assemble_index_form(geom, basis):
    """The charge blocks of the polarized second variation, mass and dbar
    matrices over the basis, solved; NonMinimalSurfaceError on a
    non-minimal surface, SpecParseError where the normal frame of a trivial
    bundle does not turn by one charge."""
    geom.require_minimal()
    return IndexForm(_charge_blocks(geom, basis), basis)


def near_holomorphic_section(geom, form):
    """Minimize the dbar energy over unit-mass sections of ``form.basis``.

    ``form`` is the IndexForm assembled over geom; each block's mass
    whitening and dbar matrix are used as they are, and the least energy
    is taken over all blocks.

    Returns {section, energy}; runs regardless of the sign of c1 (a
    negative Chern number just means the energy cannot reach 0).
    """
    solved = []
    for b in form.blocks:
        Dw = b.Z.T @ b.D @ b.Z
        ev, V = np.linalg.eigh(0.5 * (Dw + Dw.T))
        solved += [(e, b, V[:, i]) for i, e in enumerate(ev)]
    ev = np.array([e for e, _, _ in solved])
    lo = ev.min()
    ties = np.flatnonzero(ev <= lo + 1e-10 * max(1.0, abs(lo)))
    ties = ties[np.argsort(ev[ties], kind="stable")]
    coefs = np.stack([b.coefficients(form.basis, b.Z @ v)
                      for _, b, v in (solved[k] for k in ties)], axis=-1)
    k0 = 0
    if len(ties) > 1:
        # prefer sections that stay away from zero: largest L4 mass, with
        # all tied candidates read in one batch
        tied = form.basis.as_section(coefs)
        k0 = int(np.argmax(geom.integrate(
            [section_data(cg, tied)["norm2"] ** 2 for cg in geom.charts])))
    return {"section": form.basis.as_section(coefs[:, k0]),
            "energy": float(ev[ties[k0]])}


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
