import numpy as np
import pytest

from qmamp.groups import canonical_groups, make_group, regular_representation
from qmamp.hilbert import DenseOperator, embed, leg_space
from qmamp.ktops import (
    KTError,
    build_UW,
    build_UtildeV,
    build_V,
    build_W,
    heisenberg_embed,
    kt_pair,
    uw_fourier_conjugation_residual,
    verify_intertwining,
    verify_pentagonal,
    verify_represented_intertwining,
    verify_represented_pentagonal,
)
from qmamp.measurement import clock_rep, make_spectral_rep, sigma_z_rep


def basis_image(op, group, a, b):
    n = group.size
    col = op.matrix[:, group.index(a) * n + group.index(b)]
    (i,) = np.nonzero(np.abs(col) > 0.5)[0].reshape(1)
    return group.element(i // n), group.element(i % n)


def test_w_z2_basis_action():
    g = make_group([2])
    w = build_W(g)
    assert basis_image(w, g, (0,), (0,)) == ((0,), (0,))
    assert basis_image(w, g, (0,), (1,)) == ((1,), (1,))
    assert basis_image(w, g, (1,), (0,)) == ((1,), (0,))
    assert basis_image(w, g, (1,), (1,)) == ((0,), (1,))


def test_w_fixes_identity_second_slot():
    for orders in ([3], [2, 2]):
        g = make_group(orders)
        w = build_W(g)
        for a in g.elements():
            assert basis_image(w, g, a, g.identity) == (a, g.identity)


def test_w_z3_example():
    g = make_group([3])
    assert basis_image(build_W(g), g, (1,), (2,)) == ((0,), (2,))


def test_v_copy_action():
    for orders in ([2], [3], [2, 2]):
        g = make_group(orders)
        v = build_V(g)
        for a in g.elements():
            assert basis_image(v, g, a, g.identity) == (a, a)


def test_v_trivial_first_slot_is_identity():
    g = make_group([4])
    v = build_V(g)
    for b in g.elements():
        assert basis_image(v, g, g.identity, b) == (g.identity, b)


def test_v_z2_wraparound():
    g = make_group([2])
    assert basis_image(build_V(g), g, (1,), (1,)) == ((1,), (0,))


@pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2], [6]])
def test_pentagonal_and_intertwining(orders):
    g = make_group(orders)
    pair = kt_pair(g)
    assert verify_pentagonal(pair.W, "w") <= 1e-12
    assert verify_pentagonal(pair.V, "v") <= 1e-12
    assert verify_intertwining(pair.W, g, "w") <= 1e-12
    assert verify_intertwining(pair.V, g, "v") <= 1e-12


def loop_translation(g, u):
    t = np.zeros((g.size, g.size))
    for j, v in enumerate(g.elements()):
        t[g.index(g.add(u, v)), j] = 1.0
    return t


def dense_intertwining(m, g, orientation):
    # oracle: explicit kron products with each translation
    eye = np.eye(g.size)
    worst = 0.0
    for u in g.elements():
        t = loop_translation(g, u)
        moved = np.kron(eye, t) if orientation == "w" else np.kron(t, eye)
        worst = max(worst, float(np.linalg.norm(m @ moved - np.kron(t, t) @ m)))
    return worst


def dense_pentagonal(m, orientation):
    # oracle: embed the two-leg matrix on each leg pair of three legs
    d = int(round(np.sqrt(m.shape[0])))
    op = DenseOperator(leg_space(("1", d), ("2", d)), m)
    space3 = leg_space(("1", d), ("2", d), ("3", d))
    o12, o23, o13 = (embed(op, p, space3).matrix for p in (["1", "2"], ["2", "3"], ["1", "3"]))
    if orientation == "w":
        return float(np.linalg.norm(o12 @ o23 - o23 @ o13 @ o12))
    return float(np.linalg.norm(o23 @ o12 - o12 @ o13 @ o23))


def swap_basis_images(op, j1, j2):
    m = op.matrix.copy()
    m[:, [j1, j2]] = m[:, [j2, j1]]
    return DenseOperator(op.space, m)


@pytest.mark.parametrize(
    "g", [g for g in canonical_groups(8) if g.size > 1], ids=lambda g: "x".join(map(str, g.orders))
)
def test_index_map_relations_match_dense_oracle(g):
    pair = kt_pair(g)
    n = g.size
    corrupt_w = swap_basis_images(pair.W, 1, n + 1)
    assert dense_intertwining(corrupt_w.matrix, g, "w") > 0.1
    for op in (pair.W, pair.V, corrupt_w):
        for orientation in ("w", "v"):
            dense = dense_intertwining(op.matrix, g, orientation)
            assert verify_intertwining(op, g, orientation) == dense
            assert verify_pentagonal(op, orientation) == dense_pentagonal(op.matrix, orientation)


def test_pentagonal_exhaustive_small_groups():
    for g in canonical_groups(16):
        pair = kt_pair(g)
        assert verify_pentagonal(pair.W, "w") <= 1e-12
        assert verify_pentagonal(pair.V, "v") <= 1e-12


def test_random_unitary_fails_pentagonal():
    rng = np.random.default_rng(5)
    space = leg_space(("1", 2), ("2", 2))
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(a)
        res = verify_pentagonal(DenseOperator(space, q), "w")
        if res > 0.1:
            return
    pytest.fail("no random counterexample found in 10 draws")


def test_identity_fails_intertwining():
    g = make_group([2])
    space = leg_space(("1", 2), ("2", 2))
    eye = DenseOperator(space, np.eye(4))
    assert verify_intertwining(eye, g, "w") > 0.1


def test_fourier_conjugation():
    for orders in ([2], [3], [4], [2, 2], [6]):
        assert kt_pair(make_group(orders)).fourier_conjugation_residual() <= 1e-10


def test_uw_trivial_rep_is_identity():
    g = make_group([3])
    rep = make_spectral_rep(g, 2, [(g.trivial_character, np.eye(2))])
    assert np.allclose(build_UW(rep).matrix, np.eye(6))


def test_uw_sigma_z_blocks():
    rep = sigma_z_rep()
    uw = build_UW(rep)
    # oracle: assemble U_u = sum conj(chi(u)) E(chi) and place on the diagonal
    g = rep.group
    expected = np.zeros((4, 4), dtype=complex)
    for j, u in enumerate(g.elements()):
        uu = sum(np.conj(chi.value(u)) * p for chi, p in rep.projections.items())
        expected[j::2, j::2] = uu
    assert np.allclose(uw.matrix, expected)
    assert np.allclose(expected[1::2, 1::2], np.diag([1, -1]))  # the sigma_z block


def test_represented_relations():
    for rep in (sigma_z_rep(), clock_rep(3)):
        assert verify_represented_pentagonal(rep) <= 1e-12
        assert verify_represented_intertwining(rep) <= 1e-12
        assert uw_fourier_conjugation_residual(rep) <= 1e-10


def test_utildev_sigma_z_eigenstate():
    rep = sigma_z_rep()
    utv = build_UtildeV(rep)
    up_iota = np.zeros(4)
    up_iota[0] = 1.0  # |up> x |trivial character>
    out = utv.matrix @ up_iota
    plus_char = next(
        chi for chi, p in rep.projections.items() if np.allclose(p, np.diag([1, 0]))
    )
    expected = np.zeros(4)
    expected[plus_char.index] = 1.0
    assert np.allclose(out, expected)


def test_utildev_trivial_rep():
    g = make_group([2])
    chi0 = g.character([1])
    rep = make_spectral_rep(g, 2, [(chi0, np.eye(2))])
    utv = build_UtildeV(rep)
    assert np.allclose(utv.matrix, np.kron(np.eye(2), regular_representation(chi0)))


def test_utildev_reconstruction_from_effects():
    for rep in (sigma_z_rep(), clock_rep(3)):
        utv = build_UtildeV(rep)
        rebuilt = sum(
            np.kron(rep.projection(chi), regular_representation(chi))
            for chi in rep.group.characters()
        )
        assert np.linalg.norm(utv.matrix - rebuilt) == 0.0
        assert utv.is_unitary()
        assert build_UW(rep).is_unitary()


def test_heisenberg_embed_identity_and_commutant():
    rep = sigma_z_rep()
    eye = heisenberg_embed(np.eye(2), rep)
    assert np.allclose(eye.matrix, np.eye(4))
    sz = np.diag([1.0, -1.0])  # commutes with every U_u of the sigma_z family
    assert np.allclose(heisenberg_embed(sz, rep).matrix, np.kron(sz, np.eye(2)))


def test_heisenberg_embed_homomorphism_and_spectrum():
    rng = np.random.default_rng(9)
    rep = clock_rep(3)
    for _ in range(5):
        m1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = heisenberg_embed(m1 @ m2, rep).matrix
        rhs = heisenberg_embed(m1, rep).matrix @ heisenberg_embed(m2, rep).matrix
        assert np.linalg.norm(lhs - rhs) <= 1e-10
    h = m1 + m1.conj().T
    ev_before = np.sort(np.linalg.eigvalsh(h))
    ev_after = np.sort(np.linalg.eigvalsh(heisenberg_embed(h, rep).matrix))
    assert np.allclose(np.repeat(ev_before, 3), ev_after, atol=1e-10)


def test_heisenberg_embed_dimension_mismatch():
    with pytest.raises(KTError):
        heisenberg_embed(np.eye(3), sigma_z_rep())
