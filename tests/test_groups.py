import numpy as np
import pytest
from dense_oracle import (
    addition_table,
    character_table,
    exponent_table,
    fourier_matrix,
    perm_matrix,
    translation,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qmamp.groups import Character, GroupError, canonical_groups, make_group

small_orders = st.lists(st.integers(1, 5), min_size=1, max_size=3).filter(
    lambda o: np.prod(o) <= 64
)


def library_characters(g):
    """chi(u) at [chi, u] as qmamp computes it: sqrt(|G|) conj(F)."""
    return np.conj(fourier_matrix(g)) * np.sqrt(g.size)


def addition(g):
    """Index of u + v at [u, v] as qmamp computes it."""
    n = g.size
    return g.add_indices(np.arange(n)[:, None], np.arange(n)[None, :])


def test_make_group_z2():
    g = make_group([2])
    assert g.size == 2
    assert [chi.exponents for chi in g.characters()] == [(0,), (1,)]


def test_make_group_z2xz2():
    assert make_group([2, 2]).size == 4


def test_z3_arithmetic():
    g = make_group([3])
    assert [chi.exponents for chi in g.characters()] == [(0,), (1,), (2,)]
    one, two = g.character([1]), g.character([2])
    assert g.add_indices(one.index, two.index) == g.trivial_character.index == 0


def test_make_group_rejects_empty_and_cap():
    with pytest.raises(GroupError):
        make_group([])
    with pytest.raises(GroupError):
        make_group([2] * 13)  # 8192 > default cap
    with pytest.raises(GroupError, match=str(2**64)):
        make_group([2**32, 2**32])  # an int64 product of the orders wraps to 0
    with pytest.raises(GroupError):
        make_group([0, 2])


def test_char_values():
    z2 = make_group([2])
    assert character_table(z2)[z2.character([1]).index, 1] == pytest.approx(-1)
    z4 = make_group([4])
    assert character_table(z4)[z4.character([1]).index, 1] == pytest.approx(1j)
    for g in (z2, z4, make_group([2, 3])):
        for table in (character_table(g), library_characters(g)):
            assert np.allclose(table[g.trivial_character.index], 1, rtol=0, atol=1e-12)


def test_char_value_rejects_mismatched_element():
    g = make_group([2])
    with pytest.raises(GroupError):
        g.character([2])
    with pytest.raises(GroupError):
        g.character([0, 0])
    with pytest.raises(GroupError):
        g.character([-1])
    for index in (-1, 2):
        with pytest.raises(GroupError, match="out of range"):
            Character(g, index)


@settings(deadline=None, max_examples=30)
@given(small_orders)
def test_char_multiplicativity_exhaustive(orders):
    # chi(u + v) = chi(u) chi(v) for every (chi, u, v), on the closed-form and
    # the DFT character tables, with the oracle's and qmamp's group law
    g = make_group(orders)
    for table in (character_table(g), library_characters(g)):
        product = table[:, :, None] * table[:, None, :]
        for add in (addition_table(g), addition(g)):
            assert np.abs(table[:, add] - product).max() <= 1e-12


@settings(deadline=None, max_examples=30)
@given(small_orders)
def test_pontryagin_double_dual(orders):
    # evaluation pairing: the element with coordinates m acts on the dual as
    # the character with exponents m; the induced enumeration is the identity,
    # so the character table is symmetric
    g = make_group(orders)
    for table in (character_table(g), library_characters(g)):
        assert np.abs(table - table.T).max() <= 1e-12
    # and qmamp enumerates the exponent tuples in the same order
    for chi, u in zip(g.characters(), exponent_table(g).tolist(), strict=True):
        assert g.character(u) == chi and chi.exponents == tuple(u)


def test_character_group_structure():
    g = make_group([2, 3])
    n = g.size
    table, add = character_table(g), addition(g)
    iota = g.trivial_character.index
    # the pointwise product of characters a and b is the character a + b
    assert np.abs(table[add] - table[:, None, :] * table[None, :, :]).max() <= 1e-12
    # each character has exactly one inverse, its complex conjugate
    inverse = np.argmax(add == iota, axis=1)
    assert np.array_equal(np.sort(inverse), np.arange(n))
    assert (np.count_nonzero(add == iota, axis=1) == 1).all()
    assert np.abs(table[inverse] - table.conj()).max() <= 1e-12


def test_fourier_z2_point_mass():
    g = make_group([2])
    out = fourier_matrix(g) @ [1.0, 0.0]
    assert np.allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_fourier_z2_uniform_gives_trivial_point_mass():
    g = make_group([2])
    out = fourier_matrix(g) @ (np.array([1.0, 1.0]) / np.sqrt(2))
    assert np.allclose(out, [1.0, 0.0], atol=1e-12)


def test_fourier_z3_delta_one_termwise():
    # oracle: evaluate (F xi)(gamma) = conj(gamma(1)) / sqrt(3) term by term
    g = make_group([3])
    out = fourier_matrix(g) @ [0.0, 1.0, 0.0]
    expected = np.conj(character_table(g)[:, 1]) / np.sqrt(3)
    assert np.allclose(out, expected, atol=1e-12)
    omega = np.exp(2j * np.pi / 3)
    assert np.allclose(out, np.array([1, omega**-1, omega**-2]) / np.sqrt(3))


@settings(deadline=None, max_examples=30)
@given(small_orders, st.integers(0, 2**32 - 1))
def test_plancherel_and_inverse(orders, seed):
    g = make_group(orders)
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
    f = fourier_matrix(g)
    hat = f @ xi
    assert abs(np.linalg.norm(hat) - np.linalg.norm(xi)) <= 1e-12 * max(1, np.linalg.norm(xi))
    assert np.allclose(f.conj().T @ hat, xi, atol=1e-12)
    assert np.linalg.norm(f @ f.conj().T - np.eye(g.size)) <= 1e-12


@pytest.mark.parametrize("g", canonical_groups(8), ids=lambda g: "x".join(map(str, g.orders)))
def test_fourier_matches_character_sum(g):
    # oracle: F[gamma, u] = conj(gamma(u)) / sqrt(|G|) from the closed-form table
    oracle = np.conj(character_table(g)) / np.sqrt(g.size)
    assert np.abs(fourier_matrix(g) - oracle).max() <= 1e-13


@pytest.mark.parametrize("g", canonical_groups(8), ids=lambda g: "x".join(map(str, g.orders)))
def test_add_indices_matches_elementwise_addition(g):
    assert np.array_equal(addition(g), addition_table(g))


def translation_map(gamma):
    """qmamp's translation lambda_gamma on l2 of the dual group, |chi> -> |gamma + chi>."""
    return gamma.group.add_indices(gamma.index, np.arange(gamma.group.size))


def test_regular_representation_z2():
    g = make_group([2])
    assert np.allclose(perm_matrix(translation_map(g.character([1]))), [[0, 1], [1, 0]])
    assert np.allclose(perm_matrix(translation_map(g.trivial_character)), np.eye(2))


def test_regular_representation_z3_cycle():
    # oracle: |chi> -> |gamma + chi> from the closed-form addition table
    g = make_group([3])
    gamma = g.character([1])
    assert np.array_equal(perm_matrix(translation_map(gamma)), translation(g, gamma.index))
    assert translation_map(gamma).tolist() == [1, 2, 0]


def test_regular_representation_composes():
    g = make_group([4])
    a, b = g.character([1]), g.character([3])
    ab = g.characters()[int(g.add_indices(a.index, b.index))]
    assert ab == g.character([0])
    assert np.allclose(
        perm_matrix(translation_map(a)) @ perm_matrix(translation_map(b)),
        perm_matrix(translation_map(ab)),
    )


def test_canonical_groups_sizes():
    gs = canonical_groups(8)
    sizes = sorted(g.size for g in gs)
    assert all(s <= 8 for s in sizes)
    assert {tuple(g.orders) for g in gs} >= {(1,), (2,), (8,), (2, 2), (2, 4), (2, 2, 2)}
