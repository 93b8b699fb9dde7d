import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmamp import groups
from qmamp.groups import (
    GroupError,
    canonical_groups,
    char_value,
    fourier_matrix,
    fourier_transform,
    inverse_fourier_transform,
    make_group,
    regular_representation,
)

small_orders = st.lists(st.integers(1, 5), min_size=1, max_size=3).filter(
    lambda o: np.prod(o) <= 64
)


def test_make_group_z2():
    g = make_group([2])
    assert g.size == 2
    assert g.elements() == [(0,), (1,)]


def test_make_group_z2xz2():
    assert make_group([2, 2]).size == 4


def test_z3_arithmetic():
    g = make_group([3])
    assert g.elements() == [(0,), (1,), (2,)]
    assert g.add((1,), (2,)) == (0,)


def test_make_group_rejects_empty_and_cap():
    with pytest.raises(GroupError):
        make_group([])
    with pytest.raises(GroupError):
        make_group([2] * 13)  # 8192 > default cap
    with pytest.raises(GroupError):
        make_group([0, 2])


def test_char_values():
    z2 = make_group([2])
    assert char_value(z2.character([1]), (1,)) == pytest.approx(-1)
    z4 = make_group([4])
    assert char_value(z4.character([1]), (1,)) == pytest.approx(1j)
    for g in (z2, z4, make_group([2, 3])):
        for u in g.elements():
            assert char_value(g.trivial_character, u) == pytest.approx(1)


def test_char_value_rejects_mismatched_element():
    g = make_group([2])
    with pytest.raises(GroupError):
        char_value(g.character([1]), (2,))
    with pytest.raises(GroupError):
        char_value(g.character([1]), (0, 0))


@settings(deadline=None, max_examples=30)
@given(small_orders)
def test_char_multiplicativity_exhaustive(orders):
    g = make_group(orders)
    for chi in g.characters():
        for u in g.elements():
            for v in g.elements():
                lhs = chi.value(g.add(u, v))
                assert abs(lhs - chi.value(u) * chi.value(v)) <= 1e-12


@settings(deadline=None, max_examples=30)
@given(small_orders)
def test_pontryagin_double_dual(orders):
    # evaluation pairing: the element with coordinates m acts on the dual as
    # the character with exponents m; the induced enumeration is the identity
    g = make_group(orders)
    for u in g.elements():
        values = [chi.value(u) for chi in g.characters()]
        double = [g.character(u).value(chi.exponents) for chi in g.characters()]
        assert np.allclose(values, double, atol=1e-12)


def test_character_group_structure():
    g = make_group([2, 3])
    chars = g.characters()
    iota = g.trivial_character
    for a in chars:
        assert (a * a.inverse) == iota
        for b in chars:
            prod = a * b
            for u in g.elements():
                assert abs(prod.value(u) - a.value(u) * b.value(u)) <= 1e-12


def test_fourier_z2_point_mass():
    g = make_group([2])
    out = fourier_transform(g, [1.0, 0.0])
    assert np.allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_fourier_z2_uniform_gives_trivial_point_mass():
    g = make_group([2])
    out = fourier_transform(g, np.array([1.0, 1.0]) / np.sqrt(2))
    assert np.allclose(out, [1.0, 0.0], atol=1e-12)


def test_fourier_z3_delta_one_termwise():
    # oracle: evaluate (F xi)(gamma) = conj(gamma(1)) / sqrt(3) term by term
    g = make_group([3])
    out = fourier_transform(g, [0.0, 1.0, 0.0])
    expected = np.array(
        [np.conj(chi.value((1,))) for chi in g.characters()]
    ) / np.sqrt(3)
    assert np.allclose(out, expected, atol=1e-12)
    omega = np.exp(2j * np.pi / 3)
    assert np.allclose(out, np.array([1, omega**-1, omega**-2]) / np.sqrt(3))


def test_fourier_dimension_mismatch():
    with pytest.raises(GroupError):
        fourier_transform(make_group([3]), [1.0, 0.0])


@settings(deadline=None, max_examples=30)
@given(small_orders, st.integers(0, 2**32 - 1))
def test_plancherel_and_inverse(orders, seed):
    g = make_group(orders)
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
    hat = fourier_transform(g, xi)
    assert abs(np.linalg.norm(hat) - np.linalg.norm(xi)) <= 1e-12 * max(1, np.linalg.norm(xi))
    assert np.allclose(inverse_fourier_transform(g, hat), xi, atol=1e-12)
    f = fourier_matrix(g)
    assert np.linalg.norm(f @ f.conj().T - np.eye(g.size)) <= 1e-12


@pytest.mark.parametrize("g", canonical_groups(8), ids=lambda g: "x".join(map(str, g.orders)))
def test_fourier_matches_character_sum(g):
    # oracle: F[gamma, u] = conj(gamma(u)) / sqrt(|G|), one character value at a time
    oracle = np.array(
        [[np.conj(chi.value(u)) for u in g.elements()] for chi in g.characters()]
    ) / np.sqrt(g.size)
    rng = np.random.default_rng(g.size)
    xi = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
    assert np.abs(fourier_matrix(g) - oracle).max() <= 1e-13
    assert np.abs(fourier_transform(g, xi) - oracle @ xi).max() <= 1e-13
    assert np.abs(inverse_fourier_transform(g, xi) - oracle.conj().T @ xi).max() <= 1e-13


@pytest.mark.parametrize("g", canonical_groups(8), ids=lambda g: "x".join(map(str, g.orders)))
def test_add_indices_matches_elementwise_addition(g):
    n = g.size
    table = g.add_indices(np.arange(n)[:, None], np.arange(n)[None, :])
    expected = [[g.index(g.add(a, b)) for b in g.elements()] for a in g.elements()]
    assert table.tolist() == expected


def test_regular_representation_z2():
    g = make_group([2])
    lam = regular_representation(g.character([1]))
    assert np.allclose(lam, [[0, 1], [1, 0]])
    assert np.allclose(regular_representation(g.trivial_character), np.eye(2))


def test_regular_representation_z3_cycle():
    # oracle: evaluate |chi> -> |gamma chi| on each basis vector
    g = make_group([3])
    gamma = g.character([1])
    lam = regular_representation(gamma)
    for j, chi in enumerate(g.characters()):
        target = g.index((gamma * chi).exponents)
        col = np.zeros(3)
        col[target] = 1
        assert np.allclose(lam[:, j], col)


def test_regular_representation_composes():
    g = make_group([4])
    a, b = g.character([1]), g.character([3])
    assert np.allclose(
        regular_representation(a) @ regular_representation(b),
        regular_representation(a * b),
    )


def test_canonical_groups_sizes():
    gs = canonical_groups(8)
    sizes = sorted(g.size for g in gs)
    assert all(s <= 8 for s in sizes)
    assert {tuple(g.orders) for g in gs} >= {(1,), (2,), (8,), (2, 2), (2, 4), (2, 2, 2)}
