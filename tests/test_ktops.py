import tracemalloc

import numpy as np
import pytest
from dense_oracle import (
    block_fourier_residual,
    build_UW,
    dense_fourier_residual,
    dense_intertwining,
    dense_pentagonal,
    exponent_table,
    fourier_matrix,
    heisenberg_embed,
    perm_matrix,
    translation,
    uw_fourier_conjugation_residual,
    verify_represented_intertwining,
    verify_represented_pentagonal,
)
from fresh_interpreter import run_fresh

from qmamp import ktops, scenarios
from qmamp.groups import canonical_groups, make_group
from qmamp.ktops import (
    KTError,
    KTOperatorPair,
    build_UtildeV,
    build_V,
    build_W,
    kt_pair,
    pentagonal_samples,
    relation_bytes,
    verify_intertwining,
    verify_pentagonal,
)
from qmamp.measurement import clock_rep, make_spectral_rep


def elements(group):
    return [tuple(row) for row in exponent_table(group).tolist()]


def basis_image(perm, group, a, b):
    """Exponent tuples of the image of the basis pair (a, b) under an index map."""
    n, table = group.size, elements(group)
    i = perm[table.index(a) * n + table.index(b)]
    return table[i // n], table[i % n]


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
        identity = (0,) * len(orders)
        for a in elements(g):
            assert basis_image(w, g, a, identity) == (a, identity)


def test_w_z3_example():
    g = make_group([3])
    assert basis_image(build_W(g), g, (1,), (2,)) == ((0,), (2,))


def test_v_copy_action():
    for orders in ([2], [3], [2, 2]):
        g = make_group(orders)
        v = build_V(g)
        for a in elements(g):
            assert basis_image(v, g, a, (0,) * len(orders)) == (a, a)


def test_v_trivial_first_slot_is_identity():
    g = make_group([4])
    v = build_V(g)
    for b in elements(g):
        assert basis_image(v, g, (0,), b) == ((0,), b)


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


def swap_basis_images(perm, j1, j2):
    out = perm.copy()
    out[[j1, j2]] = out[[j2, j1]]
    return out


def orders_id(orders):
    return "x".join(map(str, orders))


def group_id(g):
    return orders_id(g.orders)


def exponent_index(rows, group):
    """Indices of (..., factors) exponent rows, the leftmost most significant."""
    strides = np.cumprod((group.orders[1:] + (1,))[::-1])[::-1]
    return rows @ strides


def negated_second_leg(perm, group):
    """perm followed by u -> -u on the second leg of its image: a permutation
    whose second leg is corrupted."""
    negated = exponent_index(-exponent_table(group) % np.array(group.orders), group)
    first, second = np.divmod(perm, group.size)
    return first * group.size + negated[second]


def wrong_law_maps(group):
    """W and V built with a group law that subtracts on the largest cyclic
    factor, (a, b) -> (a * b, b) and (a, a * b): permutations either way."""
    n, table = group.size, exponent_table(group)
    sign = np.ones(len(group.orders), dtype=np.intp)
    sign[np.argmax(group.orders)] = -1
    law = exponent_index((table[:, None, :] + sign * table) % np.array(group.orders), group)
    a, b = np.arange(n)[:, None], np.arange(n)
    return (law * n + b).reshape(-1), (a * n + law).reshape(-1)


def relation_maps(group):
    """W and V, each also with a swapped pair of basis images and with a
    corrupted second leg, and the two maps of a wrong law on one factor."""
    pair = kt_pair(group)
    maps = [pair.W, pair.V]
    for perm in (pair.W, pair.V):
        maps += [swap_basis_images(perm, 1, group.size + 1), negated_second_leg(perm, group)]
    return maps + list(wrong_law_maps(group))


@pytest.mark.parametrize("g", [g for g in canonical_groups(8) if g.size > 1], ids=group_id)
def test_index_map_relations_match_dense_oracle(g):
    # the generator residual is 0 where the all-translation oracle is, and
    # otherwise nonzero and at most its max; the exhaustive pentagonal
    # residual is the dense one
    n = g.size
    corrupt_w = swap_basis_images(kt_pair(g).W, 1, n + 1)
    assert dense_intertwining(perm_matrix(corrupt_w), g, "w") > 0.1
    for perm in relation_maps(g):
        m = perm_matrix(perm)
        for side in ("w", "v"):
            dense = dense_intertwining(m, g, side)
            found = verify_intertwining(perm, g, side)
            assert found == 0.0 if dense == 0.0 else 0.0 < found <= dense
            assert verify_pentagonal(perm, side) == dense_pentagonal(m, m, (n,) * 3, side)


@pytest.mark.parametrize("orders", [[6], [7], [2, 3], [8], [9], [2, 4]], ids=orders_id)
def test_sampled_pentagonal_agrees_with_exhaustive(monkeypatch, orders):
    # with the byte bound between orders 7 and 8, the orders below it stay
    # exhaustive and those above it sample; the sampled check finds faulty
    # exactly the maps that the exhaustive check finds faulty
    g = make_group(orders)
    maps = relation_maps(g) + [np.random.default_rng(5).permutation(g.size**2)]
    exhaustive = {
        (i, side): verify_pentagonal(perm, side) for i, perm in enumerate(maps) for side in "wv"
    }
    assert any(exhaustive.values()) and not all(exhaustive.values())
    monkeypatch.setattr(ktops, "PENTAGONAL_BYTES", 56 * 7**3)
    assert (pentagonal_samples(g.size) > 0) == (g.size > 7)
    for (i, side), res in exhaustive.items():
        found = verify_pentagonal(maps[i], side)
        assert found == res if g.size <= 7 else (found > 0) == (res > 0)


FOURIER_GROUPS = canonical_groups(24) + [make_group([64]), make_group([107])]


@pytest.mark.parametrize("g", FOURIER_GROUPS, ids=group_id)
def test_gathered_fourier_residual_matches_dense_oracle(monkeypatch, g):
    # the probe estimate is within 4x of the exact residual, or at rounding
    # level; a swapped pair in V or in W (exactly 2.0) and a conjugated F on
    # the W side read >= 0.5 wherever the exact check sees them
    pair = kt_pair(g)
    exact = block_fourier_residual(g, pair.W, pair.V)
    if g.size <= 8:
        assert abs(exact - dense_fourier_residual(g, pair.W, pair.V)) <= 1e-13
    if g.size <= ktops.FOURIER_DENSE:  # the dense path's F is the FFT's, not its conjugate
        assert np.abs(ktops._dft_matrix(g) - fourier_matrix(g)).max() <= 1e-13
    assert pair.fourier_conjugation_residual() <= max(4 * exact, 1e-13)
    if g.size == 1:
        return
    for bad in (
        KTOperatorPair(g, pair.W, swap_basis_images(pair.V, 1, g.size + 1)),
        KTOperatorPair(g, swap_basis_images(pair.W, 1, g.size + 1), pair.V),
    ):
        assert bad.fourier_conjugation_residual() >= 0.5
    # the W side's transform conjugated, as the inverse DFT would be: it
    # differs from F x F only on a factor of order above 2
    conjugated = block_fourier_residual(g, pair.W, pair.V, fourier_matrix(g).conj())
    assert (conjugated > 0.5) == (max(g.orders) > 2)
    dft, sides = ktops._dft_both_legs, []

    def conjugate_w_side(group, x, f):
        sides.append(x)  # the V side's transform comes first in each batch
        return dft(group, x, f) if len(sides) % 2 else dft(group, x.conj(), f).conj()

    monkeypatch.setattr(ktops, "_dft_both_legs", conjugate_w_side)
    found = pair.fourier_conjugation_residual()
    assert found >= 0.5 if conjugated > 0.5 else found <= max(4 * conjugated, 1e-13)


RESIDUAL_GROUPS = ([24], [2, 12], [3, 8])


def test_fourier_residual_is_independent_of_blas_threads():
    # each squared norm is summed by einsum, not by a BLAS dot product,
    # whose sum order would follow the thread count; the dense DFT's matrix
    # products are BLAS calls too, and must give the same bits
    code = (
        "import json\n"
        "from qmamp.groups import make_group\n"
        "from qmamp.ktops import kt_pair\n"
        f"print(json.dumps([repr(kt_pair(make_group(o)).fourier_conjugation_residual())"
        f" for o in {RESIDUAL_GROUPS!r}]))\n"
    )
    found = [run_fresh(code, OPENBLAS_NUM_THREADS=t) for t in ("1", "2")]
    assert found[0] == found[1]
    for orders, res in zip(RESIDUAL_GROUPS, found[0]):
        pair = kt_pair(make_group(orders))
        assert abs(float(res) - dense_fourier_residual(pair.group, pair.W, pair.V)) <= 1e-13


@pytest.mark.parametrize("orders", [[24], [2, 12], [48], [256]], ids=orders_id)
def test_fourier_check_stays_within_the_model(orders):
    # one batch of probes holds the difference, the probes and the DFT's
    # input and output, where the dense F x F alone would take 16 |G|^4
    # bytes; the model is within 1.25x of the peak, so a model that missed
    # one of those arrays fails
    g = make_group(orders)
    pair = kt_pair(g)
    tracemalloc.start()
    try:
        res = pair.fourier_conjugation_residual()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res <= 1e-10
    bound = ktops._fourier_bytes(g)
    assert peak <= bound <= 1.25 * peak, (peak, bound)


@pytest.mark.parametrize(
    "orders",
    [[16], [2, 2, 2, 2], [24], [2, 48], [65], [134], [256], [512]],
    ids=orders_id,
)
def test_relation_checks_stay_within_the_model(orders):
    # a relations row, W and V included: the exhaustive pentagonal check
    # sets the peak at [16], [2, 2, 2, 2] and [24] (dense DFT), [2, 48] and
    # [65] (the smallest order past FOURIER_DENSE, checked by FFT), the
    # sampled one at [134] (the smallest order it samples) and [256], and
    # the Fourier check at [512]
    g = make_group(orders)
    tracemalloc.start()
    try:
        (row,) = scenarios.relations({"version": 1, "kind": "relations", "groups": [orders]})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(v <= 1e-10 for k, v in row.items() if k != "group")
    assert peak <= relation_bytes(g) <= 1.25 * peak, (peak, relation_bytes(g))


def test_relation_checks_reject_non_permutations():
    g = make_group([2])
    w = kt_pair(g).W
    bad_maps = [
        np.zeros(4, dtype=np.intp),  # not a permutation
        np.array([0, 1, 2, 4]),  # index out of range
        np.arange(9),  # wrong length for |G| = 2
        np.arange(4.0),  # not integer indices
        perm_matrix(w),  # a dense matrix, not a map
    ]
    for perm in bad_maps:
        with pytest.raises(KTError):
            verify_intertwining(perm, g, "w")
    for perm in bad_maps[:2] + [np.arange(5), bad_maps[3], np.arange(0)]:
        with pytest.raises(KTError):
            verify_pentagonal(perm, "w")


def test_pentagonal_exhaustive_small_groups():
    for g in canonical_groups(16):
        pair = kt_pair(g)
        assert verify_pentagonal(pair.W, "w") <= 1e-12
        assert verify_pentagonal(pair.V, "v") <= 1e-12


def test_random_unitary_fails_pentagonal():
    # random permutation unitaries on two legs of dimension 3
    rng = np.random.default_rng(5)
    for _ in range(10):
        perm = rng.permutation(9)
        res = verify_pentagonal(perm, "w")
        m = perm_matrix(perm)
        assert res == dense_pentagonal(m, m, (3, 3, 3), "w")
        if res > 0.1:
            return
    pytest.fail("no random counterexample found in 10 draws")


def test_identity_fails_intertwining():
    g = make_group([2])
    assert verify_intertwining(np.arange(4), g, "w") > 0.1


def test_fourier_conjugation():
    for orders in ([2], [3], [4], [2, 2], [6]):
        assert kt_pair(make_group(orders)).fourier_conjugation_residual() <= 1e-10


def is_unitary(m, tol=1e-10):
    d = len(m)
    return np.linalg.norm(m.conj().T @ m - np.eye(d)) <= tol * d


def test_uw_trivial_rep_is_identity():
    g = make_group([3])
    rep = make_spectral_rep(g, 2, [(0, np.eye(2))])
    assert np.allclose(build_UW(rep), np.eye(6))


def test_uw_sigma_z_blocks():
    # U_u on probe label u, the system leg most significant: U_0 = 1, U_1 = sigma_z
    expected = np.kron(np.eye(2), np.diag([1, 0])) + np.kron(np.diag([1, -1]), np.diag([0, 1]))
    assert np.allclose(build_UW(clock_rep(2)), expected)


def test_represented_relations():
    for rep in (clock_rep(2), clock_rep(3)):
        assert verify_represented_pentagonal(rep) <= 1e-12
        assert verify_represented_intertwining(rep) <= 1e-12
        assert uw_fourier_conjugation_residual(rep) <= 1e-10


def test_utildev_sigma_z_eigenstate():
    rep = clock_rep(2)
    utv = build_UtildeV(rep)
    up_iota = np.zeros(4)
    up_iota[0] = 1.0  # |up> x |trivial character>
    out = utv @ up_iota
    plus_char = next(
        chi for chi, p in rep.projections.items() if np.allclose(p, np.diag([1, 0]))
    )
    expected = np.zeros(4)
    expected[plus_char] = 1.0
    assert np.allclose(out, expected)


def test_utildev_trivial_rep():
    g = make_group([2])
    chi0 = g.character([1])
    rep = make_spectral_rep(g, 2, [(chi0, np.eye(2))])
    utv = build_UtildeV(rep)
    assert np.allclose(utv, np.kron(np.eye(2), translation(g, chi0)))


def test_utildev_reconstruction_from_effects():
    for rep in (clock_rep(2), clock_rep(3)):
        utv = build_UtildeV(rep)
        rebuilt = sum(
            np.kron(rep.projections[chi], translation(rep.group, chi))
            for chi in range(rep.group.size)
        )
        assert np.linalg.norm(utv - rebuilt) == 0.0
        assert is_unitary(utv)
        assert is_unitary(build_UW(rep))


def test_heisenberg_embed_identity_and_commutant():
    rep = clock_rep(2)
    eye = heisenberg_embed(np.eye(2), rep)
    assert np.allclose(eye, np.eye(4))
    sz = np.diag([1.0, -1.0])  # commutes with every U_u of the sigma_z family
    assert np.allclose(heisenberg_embed(sz, rep), np.kron(sz, np.eye(2)))


def test_heisenberg_embed_homomorphism_and_spectrum():
    rng = np.random.default_rng(9)
    rep = clock_rep(3)
    for _ in range(5):
        m1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = heisenberg_embed(m1 @ m2, rep)
        rhs = heisenberg_embed(m1, rep) @ heisenberg_embed(m2, rep)
        assert np.linalg.norm(lhs - rhs) <= 1e-10
    h = m1 + m1.conj().T
    ev_before = np.sort(np.linalg.eigvalsh(h))
    ev_after = np.sort(np.linalg.eigvalsh(heisenberg_embed(h, rep)))
    assert np.allclose(np.repeat(ev_before, 3), ev_after, atol=1e-10)


def test_heisenberg_embed_dimension_mismatch():
    with pytest.raises(KTError):
        heisenberg_embed(np.eye(3), clock_rep(2))
