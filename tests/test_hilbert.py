import numpy as np
import pytest

from qmamp.hilbert import HilbertError, embed

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def basis_state(dims, indices):
    """Product basis vector with the given index per leg."""
    amp = np.zeros(int(np.prod(dims)), dtype=complex)
    amp[np.ravel_multi_index(indices, dims)] = 1.0
    return amp


def test_embed_x_on_second_leg():
    dims = (2, 2)
    x2 = embed(SX, [1], dims)
    assert np.allclose(x2 @ basis_state(dims, (0, 0)), basis_state(dims, (0, 1)))


def test_embed_identity_is_identity():
    dims = (2, 3, 2)
    for axis, d in enumerate(dims):
        op = embed(np.eye(d), [axis], dims)
        assert np.allclose(op, np.eye(12))


def test_embed_disjoint_legs_commute():
    rng = np.random.default_rng(7)
    dims = (2, 3)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lhs = embed(a, [0], dims) @ embed(b, [1], dims)
    rhs = embed(b, [1], dims) @ embed(a, [0], dims)
    assert np.linalg.norm(lhs - rhs) <= 1e-10
    assert np.allclose(lhs, np.kron(a, b))


def test_embed_is_homomorphism():
    rng = np.random.default_rng(11)
    dims = (2, 2, 3)
    for _ in range(5):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        ea = embed(a, [0, 2], dims)
        eb = embed(b, [0, 2], dims)
        eab = embed(a @ b, [0, 2], dims)
        assert np.linalg.norm(ea @ eb - eab) <= 1e-10


def test_embed_nonadjacent_matches_kron_reordering():
    # embedding on legs (0, 2) equals kron with identity in the middle,
    # permuted accordingly; check action on product basis states
    dims = (2, 3, 2)
    op = embed(np.kron(SZ, SX), [0, 2], dims)
    for i in range(2):
        for j in range(3):
            for k in range(2):
                out = op @ basis_state(dims, (i, j, k))
                expected = (SZ[i, i]) * basis_state(dims, (i, j, 1 - k))
                assert np.allclose(out, expected)


def test_embed_leg_order_follows_axes():
    # legs listed out of order: op on (leg 2, leg 0) is the swapped kron on (leg 0, leg 2)
    rng = np.random.default_rng(5)
    dims = (2, 3, 4)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    expected = np.kron(np.kron(b, np.eye(3)), a)
    assert np.allclose(embed(np.kron(a, b), [2, 0], dims), expected)
    assert np.allclose(embed(np.kron(b, a), [0, 2], dims), expected)


def test_embed_errors():
    dims = (2, 2)
    with pytest.raises(HilbertError):
        embed(SX, [2], dims)  # no such leg
    with pytest.raises(HilbertError):
        embed(np.eye(3), [0], dims)  # operator does not fit the leg


def test_embed_rejects_repeated_leg():
    with pytest.raises(HilbertError, match="distinct"):
        embed(np.kron(SX, SX), [1, 1], (2, 2))


def test_flattening_is_row_major_leftmost_most_significant():
    # raise leg "hi" (dim 2) to 1 and leg "lo" (dim 3) to 2, starting from index 0
    dims = (2, 3)
    raise_hi = np.zeros((2, 2))
    raise_hi[1, 0] = 1.0
    raise_lo = np.zeros((3, 3))
    raise_lo[2, 0] = 1.0
    out = embed(raise_hi, [0], dims) @ embed(raise_lo, [1], dims) @ basis_state(dims, (0, 0))
    assert np.argmax(np.abs(out)) == 1 * 3 + 2
