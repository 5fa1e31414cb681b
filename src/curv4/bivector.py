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


class CurvatureLike:
    """Symmetric operator on bivectors: a 4-tensor with pair symmetry,
    stored as a symmetric 6x6 matrix M[(ij),(kl)] = T(e_i,e_j;e_k,e_l).
    """

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (6, 6):
            raise ValueError("CurvatureLike expects a 6x6 matrix")
        if not np.allclose(mat, mat.T, atol=1e-12 * (1 + np.abs(mat).max())):
            raise ValueError("CurvatureLike matrix must be symmetric")
        self.mat = 0.5 * (mat + mat.T)

    def bianchi_residual(self):
        """|R_1234 + R_1342 + R_1423| computed from the matrix slots."""
        m = self.mat
        return abs(m[0, 5] - m[1, 4] + m[2, 3])

    def as_tensor4(self):
        """Expand to the full antisymmetric 4-index array T[i,j,k,l]."""
        T = np.zeros((4, 4, 4, 4))
        for a, (i, j) in enumerate(PAIRS):
            for b, (k, l) in enumerate(PAIRS):
                v = self.mat[a, b]
                T[i, j, k, l] = v
                T[j, i, k, l] = -v
                T[i, j, l, k] = -v
                T[j, i, l, k] = v
        return T

    @staticmethod
    def from_tensor4(T):
        T = np.asarray(T, dtype=float)
        m = np.empty((6, 6))
        for a, (i, j) in enumerate(PAIRS):
            for b, (k, l) in enumerate(PAIRS):
                m[a, b] = T[i, j, k, l]
        return CurvatureLike(0.5 * (m + m.T))


def operator6(T):
    """6x6 matrix of a curvature-like 4-tensor on the bivector basis.

    Batched: T may have shape (..., 4, 4, 4, 4).
    """
    T = np.asarray(T, dtype=float)
    rows = [[T[..., i, j, k, l] for (k, l) in PAIRS] for (i, j) in PAIRS]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def kulkarni_nomizu(B, g):
    """Kulkarni-Nomizu style product of two symmetric bilinear forms.

    (B o g)(X,Y;V,W) = 1/2 { det[[g(X,V), g(X,W)], [B(Y,V), B(Y,W)]]
                           + det[[B(X,V), B(X,W)], [g(Y,V), g(Y,W)]] }

    With B = g = Id this gives sectional value 1 on orthonormal planes.
    """
    B = np.asarray(B, dtype=float)
    g = np.asarray(g, dtype=float)
    for name, M in (("B", B), ("g", g)):
        if M.shape != (4, 4) or not np.allclose(M, M.T, atol=1e-12 * (1 + np.abs(M).max())):
            raise ValueError("kulkarni_nomizu: %s must be a symmetric 4x4 matrix" % name)
    T = kn_tensor4(B, g)
    return CurvatureLike.from_tensor4(T)


def kn_tensor4(B, g):
    """4-index array of the product above; batched over leading axes."""
    gXV = np.einsum("...ik,...jl->...ijkl", g, B)
    gXW = np.einsum("...il,...jk->...ijkl", g, B)
    BXV = np.einsum("...ik,...jl->...ijkl", B, g)
    BXW = np.einsum("...il,...jk->...ijkl", B, g)
    return 0.5 * (gXV - gXW + BXV - BXW)


def to_eta_basis(M):
    """Conjugate a 6x6 operator into the orthonormal (eta, etabar) basis."""
    return np.einsum("ia,...ij,jb->...ab", ETA_FRAME, M, ETA_FRAME)
