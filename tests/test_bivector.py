import numpy as np
from numpy.testing import assert_allclose

from curv4.bivector import (
    PAIRS, STAR6, ETA_FRAME, ETA_MINUS, ETA_PLUS, bianchi_residual,
    hodge_star, kn_tensor4, operator6, plucker_residual, to_eta_basis, wedge,
)

E = np.eye(4)


def test_wedge_basis_case():
    assert_allclose(wedge(E[0], E[1]), [1, 0, 0, 0, 0, 0])
    assert_allclose(wedge(E[2], E[3]), [0, 0, 0, 0, 0, 1])


def test_wedge_antisymmetry():
    rng = np.random.default_rng(1)
    u = rng.normal(size=4)
    assert_allclose(wedge(u, u), np.zeros(6), atol=1e-15)
    v = rng.normal(size=4)
    assert_allclose(wedge(u, v), -wedge(v, u))


def test_wedge_hand_expansion():
    # (e1+e2) ^ (e3+e4) = e13 + e14 + e23 + e24
    out = wedge([1, 1, 0, 0], [0, 0, 1, 1])
    assert_allclose(out, [0, 1, 1, 1, 1, 0])


def test_wedge_bilinear():
    rng = np.random.default_rng(2)
    u, v, w = rng.normal(size=(3, 4))
    assert_allclose(wedge(u + 2 * w, v), wedge(u, v) + 2 * wedge(w, v), atol=1e-14)


def test_hodge_star_definition():
    assert_allclose(hodge_star(wedge(E[0], E[1])), wedge(E[2], E[3]))
    assert_allclose(hodge_star(wedge(E[0], E[2])), -wedge(E[1], E[3]))
    assert_allclose(hodge_star(wedge(E[0], E[3])), wedge(E[1], E[2]))


def test_hodge_star_involution_and_isometry():
    rng = np.random.default_rng(3)
    xi = rng.normal(size=(100, 6))
    zeta = rng.normal(size=(100, 6))
    assert_allclose(hodge_star(hodge_star(xi)), xi, atol=1e-14)
    assert_allclose(np.sum(hodge_star(xi) * hodge_star(zeta), axis=-1),
                    np.sum(xi * zeta, axis=-1), atol=1e-12)


def test_selfdual_antiselfdual_split():
    rng = np.random.default_rng(4)
    xi = rng.normal(size=(50, 6))
    plus = 0.5 * (xi + hodge_star(xi))
    minus = 0.5 * (xi - hodge_star(xi))
    assert_allclose(plus + minus, xi, atol=1e-15)
    assert_allclose(hodge_star(plus), plus, atol=1e-14)
    assert_allclose(hodge_star(minus), -minus, atol=1e-14)


def test_eta_basis_invariants():
    assert_allclose(ETA_PLUS[1], wedge(E[0], E[2]) - wedge(E[1], E[3]))
    for row in ETA_PLUS:
        assert_allclose(hodge_star(row), row, atol=1e-15)
        assert_allclose(row @ row, 2.0)
    for row in ETA_MINUS:
        assert_allclose(hodge_star(row), -row, atol=1e-15)
        assert_allclose(row @ row, 2.0)
    allsix = np.vstack([ETA_PLUS, ETA_MINUS])
    gram = allsix @ allsix.T
    assert_allclose(gram, 2 * np.eye(6), atol=1e-15)
    # the normalized vectors are the orthonormal change of basis
    assert_allclose(ETA_FRAME.T @ ETA_FRAME, np.eye(6), atol=1e-15)


def test_plucker_residual():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        u, v = rng.normal(size=(2, 4))
        assert abs(plucker_residual(wedge(u, v))) < 1e-12
    assert_allclose(plucker_residual(ETA_PLUS[0]), 2.0)
    for t in (0.0, 0.5, -2.0):
        xi = wedge(E[0], E[1]) + t * wedge(E[2], E[3])
        assert_allclose(plucker_residual(xi), 2 * t, atol=1e-15)


def test_kulkarni_nomizu_constant_curvature():
    T = kn_tensor4(np.eye(4), np.eye(4))
    rng = np.random.default_rng(6)
    # sectional value 1 on any orthonormal pair
    q, _ = np.linalg.qr(rng.normal(size=(4, 2)))
    val = np.einsum("ijkl,i,j,k,l->", T, q[:, 0], q[:, 1], q[:, 0], q[:, 1])
    assert_allclose(val, 1.0, atol=1e-14)
    # operator on bivectors is the identity
    assert_allclose(operator6(T), np.eye(6), atol=1e-14)


def test_kulkarni_nomizu_zero_and_symmetries():
    g = np.eye(4)
    assert_allclose(operator6(kn_tensor4(np.zeros((4, 4)), g)), np.zeros((6, 6)))
    rng = np.random.default_rng(7)
    for _ in range(20):
        B = rng.normal(size=(4, 4))
        B = 0.5 * (B + B.T)
        T = kn_tensor4(B, g)
        assert_allclose(T, -np.swapaxes(T, 0, 1), atol=1e-13)
        assert_allclose(T, -np.swapaxes(T, 2, 3), atol=1e-13)
        assert_allclose(T, np.transpose(T, (2, 3, 0, 1)), atol=1e-13)
        assert bianchi_residual(operator6(T)) < 1e-12
        # full first Bianchi: cyclic sum over the last three slots vanishes
        b = T + np.transpose(T, (0, 2, 3, 1)) + np.transpose(T, (0, 3, 1, 2))
        assert np.abs(b).max() < 1e-12


def test_bianchi_residual_is_the_star_part_per_matrix():
    # first Bianchi holds for Kulkarni-Nomizu products; adding t * leaves
    # the sectional curvatures and adds 3 |t| to the residual, per matrix
    B = np.random.default_rng(9).normal(size=(4, 4))
    M = operator6(kn_tensor4(B + B.T, np.eye(4)))
    t = np.array([[0.0, -0.5], [1e-3, 2.0]])
    res = bianchi_residual(M + t[..., None, None] * STAR6)
    assert res.shape == (2, 2)
    assert_allclose(res, 3 * np.abs(t), rtol=1e-12, atol=1e-14)


def test_operator6_round_trip():
    rng = np.random.default_rng(8)
    B = rng.normal(size=(4, 4))
    B = 0.5 * (B + B.T)
    T = kn_tensor4(B, np.eye(4))
    M = operator6(T)
    # the pair slots of M and the antisymmetry of T fix every entry of T
    back = np.zeros((4, 4, 4, 4))
    for a, (i, j) in enumerate(PAIRS):
        for b, (k, l) in enumerate(PAIRS):
            back[i, j, k, l] = back[j, i, l, k] = M[a, b]
            back[j, i, k, l] = back[i, j, l, k] = -M[a, b]
    assert_allclose(back, T, atol=1e-13)


def test_to_eta_basis_blocks_of_star():
    # the star operator is +1 on the plus block, -1 on the minus block
    S = to_eta_basis(STAR6)
    expect = np.diag([1, 1, 1, -1, -1, -1]).astype(float)
    assert_allclose(S, expect, atol=1e-14)
