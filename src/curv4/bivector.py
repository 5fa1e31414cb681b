"""Frame-level exterior algebra on a 4-dimensional Euclidean fibre.

Bivectors are 6-vectors in the ordered basis

    e1^e2, e1^e3, e1^e4, e2^e3, e2^e4, e3^e4

with the determinant inner product, so every basis element has unit norm
and the self-dual eta vectors below have squared norm 2.  Everything here
assumes components are written in a positively oriented orthonormal frame;
the frames themselves are produced by the metric layer.
"""

import numpy as np

#: index pairs (i < j) for the six bivector slots
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

#: Hodge star on the bivector basis: e12<->e34, e13<->-e24, e14<->e23
STAR6 = np.array([
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, -1, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [0, -1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
], dtype=float)

ETA_PLUS = np.array([
    [1, 0, 0, 0, 0, 1],    # e12 + e34
    [0, 1, 0, 0, -1, 0],   # e13 - e24
    [0, 0, 1, 1, 0, 0],    # e14 + e23
], dtype=float)

ETA_MINUS = np.array([
    [1, 0, 0, 0, 0, -1],
    [0, 1, 0, 0, 1, 0],
    [0, 0, 1, -1, 0, 0],
], dtype=float)

#: orthogonal change of basis, columns eta_i/sqrt(2), etabar_i/sqrt(2)
ETA_FRAME = np.vstack([ETA_PLUS, ETA_MINUS]).T / np.sqrt(2.0)


def wedge(u, v):
    """Exterior product of two 4-vectors as a 6-component bivector.

    Accepts batched input with the vector index last.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    comps = [u[..., i] * v[..., j] - u[..., j] * v[..., i] for i, j in PAIRS]
    return np.stack(comps, axis=-1)


def hodge_star(xi):
    """Hodge star of a bivector in a positively oriented orthonormal frame."""
    return np.asarray(xi, dtype=float) @ STAR6.T


def plucker_residual(xi):
    """<xi, *xi>; zero exactly when xi is decomposable (xi = u ^ v)."""
    xi = np.asarray(xi, dtype=float)
    return 2.0 * (xi[..., 0] * xi[..., 5] - xi[..., 1] * xi[..., 4]
                  + xi[..., 2] * xi[..., 3])


def bianchi_residual(M6):
    """|R_1234 + R_1342 + R_1423| of 6x6 bivector operators, per matrix:
    the first Bianchi identity is the vanishing of M's Hodge-star part."""
    M6 = np.asarray(M6, dtype=float)
    return np.abs(M6[..., 0, 5] - M6[..., 1, 4] + M6[..., 2, 3])


def operator6(T):
    """6x6 matrix of a curvature-like 4-tensor on the bivector basis.

    Batched: T may have shape (..., 4, 4, 4, 4).
    """
    T = np.asarray(T, dtype=float)
    rows = [[T[..., i, j, k, l] for (k, l) in PAIRS] for (i, j) in PAIRS]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def kn_tensor4(B, g):
    """Kulkarni-Nomizu style product of two symmetric bilinear forms,
    batched over leading axes:

    (B o g)(X,Y;V,W) = 1/2 { det[[g(X,V), g(X,W)], [B(Y,V), B(Y,W)]]
                           + det[[B(X,V), B(X,W)], [g(Y,V), g(Y,W)]] }

    With B = g = Id this gives sectional value 1 on orthonormal planes;
    operator6 of it is the 6x6 matrix on bivectors.
    """
    gXV = np.einsum("...ik,...jl->...ijkl", g, B)
    gXW = np.einsum("...il,...jk->...ijkl", g, B)
    BXV = np.einsum("...ik,...jl->...ijkl", B, g)
    BXW = np.einsum("...il,...jk->...ijkl", B, g)
    return 0.5 * (gXV - gXW + BXV - BXW)


def to_eta_basis(M):
    """Conjugate a 6x6 operator into the orthonormal (eta, etabar) basis."""
    return np.einsum("ia,...ij,jb->...ab", ETA_FRAME, M, ETA_FRAME)
