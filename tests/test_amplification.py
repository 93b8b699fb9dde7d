import csv
import itertools
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from dense_oracle import (
    ORACLE_MATRIX_ENTRIES,
    block_chain_residual,
    cascade_unitary,
    dense_chain_residual,
    heisenberg_T,
    perm_matrix,
    scatter,
    shape,
    stage_product,
    tensor_cascade,
    tensor_instrument,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qmamp import amplification, scenarios
from qmamp.amplification import (
    CascadeConfig,
    CascadeError,
    CascadeOutput,
    amplified_instrument,
    cascade_apply,
    chain_samples,
    copy_scan,
    intertwiner_chain_check,
)
from qmamp.groups import canonical_groups, make_group
from qmamp.ktops import build_V
from qmamp.measurement import clock_rep, instrument, make_spectral_rep, outcome

SZ = np.diag([1.0, -1.0]).astype(complex)


def random_state(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def char_of(rep, projection):
    return next(
        chi for chi, p in rep.projections.items() if np.allclose(p, projection)
    )


def test_config_validation():
    rep = clock_rep(2)
    with pytest.raises(CascadeError):
        CascadeConfig(rep, 0)
    # no cap on N: the cascade holds its support, never the 2 * 2**N tensor,
    # and the scenario reader bounds the arrays a run holds
    assert CascadeConfig(rep, 10**6).n_copies == 10**6


def rotated_rep(g, rng):
    # one rank-one projection per character, in a random orthonormal basis
    a = rng.standard_normal((g.size, g.size)) + 1j * rng.standard_normal((g.size, g.size))
    q, _ = np.linalg.qr(a)
    pairs = [(chi, np.outer(q[:, k], q[:, k].conj())) for k, chi in enumerate(g.characters())]
    return make_spectral_rep(g, g.size, pairs)


def test_cascade_apply_matches_dense_unitary():
    # oracle: materialize the full stage product; forward on xi x |iota>^N,
    # inverse on an arbitrary state of the full space
    rng = np.random.default_rng(1)
    reps = [clock_rep(2), clock_rep(3)] + [rotated_rep(g, rng) for g in canonical_groups(4)]
    for rep in reps:
        for n in (1, 2, 3):
            cfg = CascadeConfig(rep, n)
            xi = random_state(rng, rep.system_dim)
            joint = xi
            for _ in range(n):
                iota = np.zeros(rep.group.size)
                iota[rep.group.trivial_character.index] = 1.0
                joint = np.kron(joint, iota)
            u = cascade_unitary(cfg)
            lazy = scatter(cascade_apply(cfg, xi))
            assert np.linalg.norm(u @ joint - lazy.reshape(-1)) <= 1e-12
            psi = random_state(rng, cfg.state_dim)
            back = tensor_cascade(cfg, psi, inverse=True)
            assert np.linalg.norm(u.conj().T @ psi - back.reshape(-1)) <= 1e-12


def test_cascade_apply_matches_closed_form():
    # second oracle: the cascade output is sum_gamma E(gamma) xi x |gamma>^N;
    # its support, scattered into the dense tensor, equals the closed form (up
    # to the rounding of E(gamma) xi) and the tensor cascade exactly, and reads
    # the same instrument off every outcome
    rng = np.random.default_rng(5)
    reps = [clock_rep(2), clock_rep(3)] + [rotated_rep(g, rng) for g in canonical_groups(6)]
    for rep in reps:
        chars = rep.group.characters()
        for n in (1, 2, 3, 4):
            cfg = CascadeConfig(rep, n)
            xi = random_state(rng, rep.system_dim)
            b = rng.standard_normal((rep.system_dim,) * 2)
            b = b + b.T
            expected = np.zeros(shape(cfg), dtype=complex)
            for chi, p in rep.projections.items():
                expected[(slice(None),) + (chi.index,) * n] = p @ xi
            output = cascade_apply(cfg, xi)
            assert output.cfg is cfg
            assert output.tuples.dtype == np.intp and len(output.tuples) <= rep.group.size
            assert output.amps.shape == (rep.system_dim, len(output.tuples))
            dense = scatter(output)
            assert np.abs(dense - expected).max() <= 1e-13
            assert np.array_equal(dense, tensor_cascade(cfg, xi))
            # and on a support of distinct tuples with mixed labels
            k = min(cfg.state_dim // rep.system_dim, 2 * rep.group.size)
            flat = rng.choice(cfg.state_dim // rep.system_dim, size=k, replace=False)
            mixed = CascadeOutput(
                cfg,
                np.stack(np.unravel_index(flat, shape(cfg)[1:]), axis=1),
                random_state(rng, rep.system_dim * k).reshape(rep.system_dim, k),
            )
            for support in (output, mixed):
                dense = scatter(support)
                for size in range(1, len(chars) + 1):
                    for subset in itertools.combinations(chars, size):
                        delta = outcome(subset)
                        got = amplified_instrument(support, delta, b)
                        want = tensor_instrument(cfg, delta, dense, b)
                        assert abs(got.probability - want.probability) <= 1e-15
                        assert (
                            abs(got.conditional_expectation - want.conditional_expectation)
                            <= 1e-15
                        )


def test_inverse_cascade_rejects_wrong_size():
    cfg = CascadeConfig(clock_rep(3), 2)
    assert shape(cfg) == (3, 3, 3)
    for size in (3, cfg.state_dim - 1, cfg.state_dim + 1):
        with pytest.raises(CascadeError, match=f"{size} entries, expected {cfg.state_dim}"):
            tensor_cascade(cfg, np.ones(size) / np.sqrt(size), inverse=True)


def test_cascade_output_is_branch_correlated():
    # sum_gamma c_gamma xi_gamma x |gamma>^N: every probe leg carries the
    # same label, and the weight of label gamma is |c_gamma|^2
    rep = clock_rep(2)
    cfg = CascadeConfig(rep, 3)
    xi = np.array([np.sqrt(0.3), np.sqrt(0.7)])
    out = scatter(cascade_apply(cfg, xi))
    chi_up = char_of(rep, np.diag([1.0, 0.0]))
    chi_dn = char_of(rep, np.diag([0.0, 1.0]))
    i, j = chi_up.index, chi_dn.index
    weights = np.abs(out) ** 2
    assert weights[0, i, i, i] == pytest.approx(0.3)
    assert weights[1, j, j, j] == pytest.approx(0.7)
    assert weights.sum() == pytest.approx(1.0)
    # any mixed-label component vanishes
    mask = np.zeros_like(weights)
    mask[0, i, i, i] = mask[1, j, j, j] = 1.0
    assert np.abs(weights * (1 - mask)).sum() <= 1e-24
    # a label whose sector xi misses holds no tuple of the support
    output = cascade_apply(cfg, np.array([1.0, 0.0]))
    assert output.tuples.tolist() == [[i] * 3] and output.amps.shape == (2, 1)


def test_inverse_cascade_recovers_input():
    rng = np.random.default_rng(4)
    rep = clock_rep(3)
    cfg = CascadeConfig(rep, 2)
    xi = random_state(rng, 3)
    out = scatter(cascade_apply(cfg, xi))
    back = tensor_cascade(cfg, out, inverse=True)
    assert np.linalg.norm(back[:, 0, 0] - xi) <= 1e-12
    assert abs(np.linalg.norm(back) - 1.0) <= 1e-12


def test_cascade_unitary_lazy_threshold():
    rep = clock_rep(2)
    u = cascade_unitary(CascadeConfig(rep, 5))
    assert np.linalg.norm(u.conj().T @ u - np.eye(len(u))) <= 1e-10 * len(u)
    # a 4096 x 4096 cascade matrix exceeds the memory budget of the dense oracle
    cfg = CascadeConfig(rep, 11)
    assert cfg.state_dim**2 > ORACLE_MATRIX_ENTRIES
    with pytest.raises(CascadeError, match="memory budget"):
        cascade_unitary(cfg)
    # cascade_apply is still available above the oracle's budget
    out = scatter(cascade_apply(cfg, np.array([1.0, 0.0])))
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 4]), st.sampled_from([2, 3]))
def test_amplified_instrument_is_n_independent(seed, n, dim):
    rng = np.random.default_rng(seed)
    rep = clock_rep(dim)
    cfg = CascadeConfig(rep, n)
    xi = random_state(rng, dim)
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    b = b + b.conj().T
    chars = rep.group.characters()
    output = cascade_apply(cfg, xi)
    for delta in (outcome([chars[0]]), outcome(chars[:2])):
        many = amplified_instrument(output, delta, b)
        one = instrument(rep, delta, xi, b)
        assert abs(one.conditional_expectation - many.conditional_expectation) <= 1e-10
        assert many.probability == pytest.approx(one.probability, abs=1e-10)


@pytest.mark.parametrize("n_values", [[1], [3, 1, 2], list(range(1, 9))])
def test_amplify_computes_each_single_probe_instrument_once(n_values):
    # the single-probe instrument does not depend on N: one call per outcome,
    # and every row's equality_residual is read against it.  A profile hook
    # counts the calls under whatever name the caller bound the function to.
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is instrument.__code__:
            calls.append(frame)

    scenario = {"rep": "z3_clock", "state": [0.6, 0.8, 0.0], "outcomes": [[0], [1, 2], [0, 1, 2]],
                "observable": [[1, 0, 0], [0, 2, [0, 1]], [0, [0, -1], -1]], "n_values": n_values}
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        rows = scenarios.amplify(scenario)
    finally:
        sys.setprofile(previous)
    assert len(calls) == 3
    assert len(rows) == 3 * len(n_values)
    assert max(row["equality_residual"] for row in rows) <= 1e-15


def test_amplify_peak_does_not_grow_with_the_outcomes():
    # each outcome's instruments are two numbers, with no d x d state held
    # per outcome: at d = 128 the tracemalloc peak of 64 outcomes is within
    # 10% of the peak of one
    d = 128
    half = [[int(i == j < d // 2) for j in range(d)] for i in range(d)]
    other = [[int(i == j >= d // 2) for j in range(d)] for i in range(d)]
    rep = {"group": [2], "system_dim": d, "projections": [
        {"character": [0], "matrix": half}, {"character": [1], "matrix": other}]}

    def peak(count):
        scenario = {"rep": rep, "state": [d**-0.5] * d, "n_values": [1, 2],
                    "outcomes": [[k % 2] for k in range(count)]}
        tracemalloc.start()
        try:
            assert len(scenarios.amplify(scenario)) == 2 * count
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(64) <= 1.1 * peak(1)


def test_singleton_probability_is_branch_weight():
    rep = clock_rep(2)
    cfg = CascadeConfig(rep, 3)
    xi = np.array([np.sqrt(0.3), np.sqrt(0.7)])
    chi_dn = char_of(rep, np.diag([0.0, 1.0]))
    output = cascade_apply(cfg, xi)
    res = amplified_instrument(output, outcome([chi_dn]), SZ)
    assert res.probability == pytest.approx(0.7)
    # only what cascade_apply returns is read: not its arrays as a bare pair,
    # and not the state it was applied to
    for not_output in ((output.tuples, output.amps), xi):
        with pytest.raises(CascadeError, match="cascade_apply"):
            amplified_instrument(not_output, outcome([chi_dn]), SZ)
    with pytest.raises(CascadeError, match="observable shape"):
        amplified_instrument(output, outcome([chi_dn]), np.eye(3))


def test_zero_weight_outcome_reads_probability_zero():
    # xi lies in the up sector, so the down outcome has probability exactly 0
    # through the single-probe instrument and through the amplified one
    rep = clock_rep(2)
    xi = np.array([1.0, 0.0])
    chi_dn = char_of(rep, np.diag([0.0, 1.0]))
    output = cascade_apply(CascadeConfig(rep, 3), xi)
    for res in (
        instrument(rep, outcome([chi_dn]), xi, SZ),
        amplified_instrument(output, outcome([chi_dn]), SZ),
    ):
        assert res.probability == 0.0
        assert res.conditional_expectation == 0.0


def test_intertwiner_chain_exact():
    for orders in ([2], [3], [4], [2, 2]):
        g = make_group(orders)
        for gamma in g.characters():
            for n in (1, 2, 3):
                assert intertwiner_chain_check(gamma, n) == 0.0


def test_intertwiner_chain_matches_dense_oracle(monkeypatch):
    for orders in ([2], [3], [4], [2, 2]):
        g = make_group(orders)
        v = perm_matrix(build_V(g))
        for gamma in g.characters():
            for n in (1, 2, 3):
                dense = dense_chain_residual(g, gamma, [v] * n)
                assert intertwiner_chain_check(gamma, n) == dense

    # swap two basis images of the copy map in the second stage only
    g = make_group([3])
    bad = build_V(g)
    bad[[1, 4]] = bad[[4, 1]]
    extend_chain = amplification._extend_chain

    def corrupt_second_stage(chain, pair_map):
        if len(chain) == g.size**2:  # V_12 on two legs gets V_23 appended
            pair_map = bad.reshape(g.size, g.size)
        return extend_chain(chain, pair_map)

    monkeypatch.setattr(amplification, "_extend_chain", corrupt_second_stage)
    v, v_bad = perm_matrix(build_V(g)), perm_matrix(bad)
    gamma = g.character([1])
    # the copy chain is cached per (group, N): build it afresh under the
    # corrupted stage, and drop it afterwards
    amplification._copy_chain.cache_clear()
    try:
        for n in (2, 3):
            dense = dense_chain_residual(g, gamma, [v, v_bad] + [v] * (n - 2))
            assert dense > 0.1
            assert intertwiner_chain_check(gamma, n) == dense
    finally:
        amplification._copy_chain.cache_clear()


def swap_in_block(chain, g, a, rng):
    """A read-only copy of `chain` with two entries of first-leg block a swapped."""
    out = chain.copy()
    block = len(chain) // g
    start = a * block
    i, j = start + rng.choice(block, size=2, replace=False)
    out[[i, j]] = out[[j, i]]
    out.setflags(write=False)
    return out


@pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2], [64]], ids=str)
def test_chain_check_matches_block_oracle_with_planted_faults(monkeypatch, orders):
    # the gathered check counts the same mismatches as the per-block oracle on
    # the chain it reads: the copy chain, the chain with two entries of one
    # block swapped, and the chain built with a corrupted copy stage at leg k
    g = make_group(orders)
    rng = np.random.default_rng(g.size)
    copy_chain, extend_chain = amplification._copy_chain, amplification._extend_chain
    bad = build_V(g)
    bad[[0, 1]] = bad[[1, 0]]  # V's images of (0, 0) and (0, 1) swapped

    def residuals(n, chain):
        got = [intertwiner_chain_check(gamma, n) for gamma in g.characters()]
        assert got == [block_chain_residual(gamma, n, chain) for gamma in g.characters()]
        return got

    copy_chain.cache_clear()
    try:
        for n in [n for n in range(1, 9) if chain_samples(g, n) == 0]:
            assert residuals(n, copy_chain(g, n)) == [0.0] * g.size
            faulty = swap_in_block(copy_chain(g, n), g.size, rng.integers(g.size), rng)
            with monkeypatch.context() as m:
                m.setattr(amplification, "_copy_chain", lambda group, n: faulty)
                assert max(residuals(n, faulty)) > 0.1
            for k in range(1, n):  # V_{k+1,k+2} appended to the chain on k + 1 legs

                def corrupt_stage(chain, pair_map, k=k):
                    if len(chain) == g.size ** (k + 1):
                        pair_map = bad.reshape(g.size, g.size)
                    return extend_chain(chain, pair_map)

                copy_chain.cache_clear()
                with monkeypatch.context() as m:
                    m.setattr(amplification, "_extend_chain", corrupt_stage)
                    assert max(residuals(n, copy_chain(g, n))) > 0.1
                copy_chain.cache_clear()
    finally:
        copy_chain.cache_clear()


@pytest.mark.parametrize("orders, n", [([64], 1), ([8], 2), ([40], 2)])
def test_chain_check_gathers_across_blocks(monkeypatch, orders, n):
    # blocks under CHAIN_GATHER entries are compared several to a gather:
    # one gather over all blocks for [64] at N = 1 and [8] at N = 2, three
    # full ones and a partial one for [40] at N = 2; a fault in the first,
    # a middle or the last block is counted
    g = make_group(orders)
    assert chain_samples(g, n) == 0 and g.size**n < amplification.CHAIN_GATHER
    rng = np.random.default_rng(n)
    chain = amplification._copy_chain(g, n)
    blocks = (0, g.size // 2, g.size - 1)
    for faulty in [chain] + [swap_in_block(chain, g.size, a, rng) for a in blocks]:
        monkeypatch.setattr(amplification, "_copy_chain", lambda group, n: faulty)
        for gamma in g.characters()[:: max(1, g.size // 8)] + [g.characters()[-1]]:
            assert intertwiner_chain_check(gamma, n) == block_chain_residual(gamma, n, faulty)


def test_ascending_n_values_extend_the_cached_chain(monkeypatch, tmp_path):
    # amplify over N = 1..8 builds each chain from the last one: 7 one-leg
    # extensions; a shuffled list rebuilds some chains from V_12 and writes the
    # same residuals.  A corrupted third copy stage makes them differ by N.
    calls = []
    extend_chain = amplification._extend_chain
    g = make_group([3])
    bad = build_V(g)
    bad[[1, 4]] = bad[[4, 1]]

    def spy(chain, pair_map):
        calls.append(len(chain))
        if len(chain) == g.size**3:
            pair_map = bad.reshape(g.size, g.size)
        return extend_chain(chain, pair_map)

    monkeypatch.setattr(amplification, "_extend_chain", spy)
    scenario = {"kind": "amplify", "rep": "z3_clock", "state": [0.6, 0.8, 0.0], "outcomes": [[0]]}
    n_values = list(range(1, 9))
    shuffled = n_values[:]
    np.random.default_rng(3).shuffle(shuffled)
    residuals = []
    amplification._copy_chain.cache_clear()
    try:
        for order in (n_values, shuffled):
            calls.clear()
            out = tmp_path / "-".join(map(str, order))
            out.mkdir()
            scenarios.run_scenario({**scenario, "n_values": order}, out)
            with open(out / "amplify.csv") as fh:
                rows = list(csv.DictReader(fh))
            residuals.append({row["n"]: row["chain_residual"] for row in rows})
            if order is n_values:
                assert calls == [g.size ** (k + 1) for k in range(1, 8)]
            amplification._copy_chain.cache_clear()
    finally:
        amplification._copy_chain.cache_clear()
    assert residuals[0] == residuals[1]
    assert len(set(residuals[0].values())) > 2


# |G| -> N whose chain is closest to 32 MB (16-38 MB)
CHAIN_MEMORY_NS = {2: 21, 3: 13, 4: 10, 5: 8, 8: 6}


@pytest.mark.parametrize("order", sorted(CHAIN_MEMORY_NS))
def test_chain_build_and_check_stay_within_the_model(order):
    # cold (built from V_12) and warm (the chain of N - 1 cached), building
    # and checking every character hold at most _exhaustive_chain_bytes, the
    # cached chain of N - 1 included; the model is within 1.25x of the
    # larger peak, so a model left at the size of intp indices fails
    g, n = make_group([order]), CHAIN_MEMORY_NS[order]
    assert chain_samples(g, n) == 0
    bound = amplification._exhaustive_chain_bytes(order, n)
    peaks = []
    for warm in (False, True):
        amplification._copy_chain.cache_clear()
        tracemalloc.start()
        try:
            if warm:
                amplification._copy_chain(g, n - 1)
                tracemalloc.reset_peak()
            residuals = [intertwiner_chain_check(gamma, n) for gamma in g.characters()]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            amplification._copy_chain.cache_clear()
        assert residuals == [0.0] * order
    assert max(peaks) <= bound <= 1.25 * max(peaks), (peaks, bound)


def test_support_bounds_memory_at_largest_n():
    # sigma_z at N = 10**6: the dense output tensor would hold 2 * 2**(10**6)
    # amplitudes; the cascade, every outcome's instrument and the sampled
    # chain checks stay within the scenario reader's byte estimate
    rep = clock_rep(2)
    n = 10**6
    cfg = CascadeConfig(rep, n)
    xi = np.array([np.sqrt(0.3), np.sqrt(0.7)])
    chars = rep.group.characters()
    estimate = amplification.label_bytes(rep.group, len(rep.projections), n)
    assert estimate <= scenarios.AMPLIFY_BYTES
    tracemalloc.start()
    try:
        residuals = [intertwiner_chain_check(chi, n) for chi in chars]
        output = cascade_apply(cfg, xi)
        probabilities = [
            amplified_instrument(output, outcome(subset), SZ).probability
            for size in range(1, len(chars) + 1)
            for subset in itertools.combinations(chars, size)
        ]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residuals == [0.0, 0.0]
    assert output.tuples.shape == (rep.group.size, n)
    assert probabilities == pytest.approx([0.3, 0.7, 1.0], abs=1e-12)
    assert peak < estimate


def test_chain_check_memory_at_largest_n():
    # sigma_z at N = 21: the chain is 2**22 indices; it is built one leg at a
    # time and checked one first-leg block at a time, so building and checking
    # hold about three chain-sized int32 index arrays
    g = make_group([2])
    n = 21
    amplification._copy_chain.cache_clear()
    tracemalloc.start()
    try:
        residuals = [intertwiner_chain_check(gamma, n) for gamma in g.characters()]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        amplification._copy_chain.cache_clear()
    assert residuals == [0.0, 0.0]
    assert peak < 3.5 * g.size ** (n + 1) * np.dtype(np.int32).itemsize


def compositions(monkeypatch):
    """Spy on `_kron_power`: the list it returns gets one entry per
    t_gamma^(N+1) formed, one per composed character."""
    kron_power, formed = amplification._kron_power, []

    def spy(p, k):
        formed.append(k)
        return kron_power(p, k)

    monkeypatch.setattr(amplification, "_kron_power", spy)
    return formed


def fresh_chains():
    """Drop the cached chains and V's cached index map, and with them every
    proof held on a chain."""
    amplification._copy_chain.cache_clear()
    amplification._pair_map.cache_clear()


@pytest.mark.parametrize("orders, n", [([2], 12), ([3], 6), ([2, 3], 4), ([64], 1)], ids=str)
def test_exhaustive_chain_check_indexes_in_int32(monkeypatch, orders, n):
    # an exhaustive check composes indices below |G|^(N+2) <= CHAIN_WORK, the
    # build's high * |G| included, so they fit in int32; the cached chain and
    # t_gamma^(N+1) are int32, and the residuals stay 0.  One t_gamma^(N+1)
    # is formed per composed character: character 1 generates the cyclic
    # groups, and characters 1 and 3 generate [2, 3]
    composed = {(2,): 1, (3,): 1, (2, 3): 2, (64,): 1}[tuple(orders)]
    assert amplification.CHAIN_WORK <= np.iinfo(np.int32).max
    g = make_group(orders)
    assert chain_samples(g, n) == 0
    kron_power, powers = amplification._kron_power, []

    def spy(p, k):
        powers.append(kron_power(p, k))
        return powers[-1]

    monkeypatch.setattr(amplification, "_kron_power", spy)
    fresh_chains()
    try:
        residuals = [intertwiner_chain_check(gamma, n) for gamma in g.characters()]
        chain = amplification._copy_chain(g, n)
    finally:
        fresh_chains()
    assert residuals == [0.0] * g.size
    assert chain.dtype == np.int32 and chain.shape == (g.size ** (n + 1),)
    assert [t_all.dtype for t_all in powers] == [np.int32] * composed
    assert all(t_all.shape == chain.shape for t_all in powers)


@pytest.mark.parametrize(
    "orders, composed", [([2], [1]), ([3], [1]), ([2, 2], [1, 2]), ([2, 3], [1, 3])], ids=str
)
def test_proven_subgroup_skips_its_characters(monkeypatch, orders, composed):
    # on the copy chain, characters in index order are composed until those
    # composed generate the group: character 1 generates [2] and [3], 1 and
    # 2 generate [2, 2], 1 (order 3) and 3 (order 2) generate [2, 3].  Each
    # is composed once, and every other character returns 0.0 at once
    g = make_group(orders)
    formed = compositions(monkeypatch)
    fresh_chains()
    try:
        for n in (1, 2, 3):
            got = []
            for gamma in g.characters():
                formed.clear()
                assert intertwiner_chain_check(gamma, n) == 0.0
                got += [gamma.index] * len(formed)
            assert got == composed, n
    finally:
        fresh_chains()


def keep_only(chain, g, n, h):
    """A read-only copy of `chain` followed by the permutation Q that swaps
    basis index 0 (every leg trivial) with index 1 (the last leg 1), and
    their images under the diagonal translation by h, of order 2.  Q
    commutes with that translation and with no other nontrivial one, so the
    copy keeps the chain identity of the characters 0 and h alone."""
    dims = (g.size,) * (n + 1)
    th = np.ravel_multi_index(g.add_indices(h, all_tuples(g, n + 1)).T, dims)
    q = np.arange(len(chain))
    q[[0, 1, th[0], th[1]]] = [1, 0, th[1], th[0]]
    out = q[chain]
    out.setflags(write=False)
    return out


@pytest.mark.parametrize("orders, h", [([2, 2], 2), ([2, 3], 3)], ids=str)
def test_chain_that_keeps_one_generator_has_every_character_composed(monkeypatch, orders, h):
    # h is (1, 0); the chain breaks the identity of the other generator (0, 1),
    # so the subgroup proven by h holds no later character: every nontrivial
    # character is composed, and each residual is the block oracle's
    g = make_group(orders)
    for n in (1, 2, 3):
        faulty = keep_only(amplification._copy_chain(g, n), g, n, h)
        expected = [block_chain_residual(gamma, n, faulty) for gamma in g.characters()]
        assert [r == 0.0 for r in expected] == [k in (0, h) for k in range(g.size)]
        formed = compositions(monkeypatch)
        monkeypatch.setattr(amplification, "_copy_chain", lambda group, n: faulty)
        assert [intertwiner_chain_check(gamma, n) for gamma in g.characters()] == expected
        assert len(formed) == g.size - 1
        monkeypatch.undo()


@pytest.mark.parametrize("orders", [[3], [2, 2]], ids=str)
def test_proof_holds_only_for_the_chain_it_read(monkeypatch, orders):
    # every character proven on the copy chain of (group, N) is composed
    # again on a faulty chain of the same (group, N); the proof keeps no
    # chain alive
    g, n = make_group(orders), 2
    fresh_chains()
    try:
        assert [intertwiner_chain_check(gamma, n) for gamma in g.characters()] == [0.0] * g.size
        chain = amplification._copy_chain(g, n)
        faulty = swap_in_block(chain, g.size, 1, np.random.default_rng(g.size))
        formed = compositions(monkeypatch)
        monkeypatch.setattr(amplification, "_copy_chain", lambda group, n: faulty)
        got = [intertwiner_chain_check(gamma, n) for gamma in g.characters()]
        assert got == [block_chain_residual(gamma, n, faulty) for gamma in g.characters()]
        assert max(got) > 0.1 and formed
        monkeypatch.undo()
        proven = weakref.ref(chain)
        del chain
    finally:
        fresh_chains()
    assert proven() is None


@pytest.mark.parametrize("n", [0, -1])
def test_chain_check_refuses_fewer_than_one_copy(n):
    for gamma in make_group([2]).characters():
        with pytest.raises(CascadeError, match="need at least one probe copy"):
            intertwiner_chain_check(gamma, n)


def all_tuples(g, n):
    """Every basis tuple of n legs over g, in index order."""
    return np.stack(np.unravel_index(np.arange(g.size**n), (g.size,) * n), axis=1)


def test_copy_scan_matches_dense_oracle():
    # on every basis tuple, the scan is the basis map of the dense product
    # V_{N-1,N} ... V_12 of copy-stage matrices
    for g in canonical_groups(6):
        v = perm_matrix(build_V(g))
        for n in range(1, 5):
            dims = (g.size,) * n
            image = np.ravel_multi_index(copy_scan(g, all_tuples(g, n)).T, dims)
            dense = stage_product([v] * (n - 1), dims) if n > 1 else np.eye(g.size)
            assert np.array_equal(perm_matrix(image), dense), (g.orders, n)


@pytest.mark.parametrize("orders", [[2], [3], [1], [6, 4], [2, 3, 4]])
def test_copy_scan_matches_sequential_stages(orders):
    # the copy stages one at a time, leg pair (k - 1, k) by the group law,
    # on random label tuples at N in the hundreds
    g = make_group(orders)
    rng = np.random.default_rng(sum(orders))
    for n in (1, 2, 257, 300):
        tuples = rng.integers(g.size, size=(7, n))
        before = tuples.copy()
        staged = tuples.copy()
        for k in range(1, n):
            staged[:, k] = g.add_indices(staged[:, k - 1], staged[:, k])
        assert np.array_equal(copy_scan(g, tuples), staged)
        assert np.array_equal(tuples, before)  # the input is left alone


def test_chain_check_is_exhaustive_where_it_always_was():
    # every (|G|, N) that amplify ran before the scan keeps the exhaustive
    # check on V's index map; the sample starts above
    exhaustive = [(2, 22), (3, 13), (512, 1), (4, 11), (1, 63), (8, 7), (16, 4)]
    for order, n in exhaustive:
        assert chain_samples(make_group([order]), n) == 0, order
    # an exhaustive check holds at most CHAIN_BYTES, 192 MiB ([4] at N = 11
    # holds 160 MiB; sigma_z at N = 23 would hold 224 MiB), within the bound
    # on a run
    assert 4 * 4**11 * (2 * 4 + 2) <= amplification.CHAIN_BYTES < 4 * 2**23 * (2 + 5)
    assert amplification.CHAIN_BYTES < scenarios.AMPLIFY_BYTES
    sampled = [(2, 23, 43690), (3, 15, 43690), (1, 64, 32263), (2, 10**6, 1)]
    for order, n, samples in sampled:
        assert chain_samples(make_group([order]), n) == samples, order
    assert chain_samples(make_group([4096]), 1) == 256
    assert chain_samples(make_group([2]), 2**62) == 1


@pytest.mark.parametrize("orders, n", [([2], 30), ([3], 20), ([1], 10**6), ([2, 3, 4], 500)])
def test_sampled_chain_check(orders, n):
    g = make_group(orders)
    assert chain_samples(g, n) > 0
    assert [intertwiner_chain_check(chi, n) for chi in g.characters()] == [0.0] * g.size


def test_sampled_chain_check_catches_a_wrong_scan(monkeypatch):
    # a scan that leaves the first leg out of every later leg's sum breaks the
    # identity on every sampled tuple whose image it moves
    g = make_group([3])
    right = amplification.copy_scan

    def wrong(group, tuples):
        out = right(group, tuples)
        out[:, 1:] = group.add_indices(out[:, 1:], (-tuples[:, :1]) % group.size)
        return out

    monkeypatch.setattr(amplification, "copy_scan", wrong)
    samples = chain_samples(g, 20)
    residual = intertwiner_chain_check(g.character([1]), 20)
    assert residual == np.sqrt(2.0 * samples)
    assert intertwiner_chain_check(g.trivial_character, 20) == 0.0


def test_sampled_chain_check_reads_a_fixed_sample(monkeypatch):
    # the same tuples for every nontrivial character and every call; the
    # trivial character reads none
    g = make_group([2, 3])
    seen = []
    right = amplification.copy_scan

    def recording(group, tuples):
        seen.append(tuples.copy())
        return right(group, tuples)

    monkeypatch.setattr(amplification, "copy_scan", recording)
    for _ in range(2):
        for chi in g.characters():
            assert intertwiner_chain_check(chi, 40) == 0.0
    assert len(seen) == 4 * (g.size - 1)
    base = seen[0]
    assert base.shape == (chain_samples(g, 40), 41)
    for i, tuples in enumerate(seen):
        assert np.array_equal(tuples[:, 1:], base[:, 1:])
        chi = (i // 2) % (g.size - 1) + 1
        first = base[:, 0] if i % 2 == 0 else g.add_indices(chi, base[:, 0])
        assert np.array_equal(tuples[:, 0], first)


def test_stage_one_builds_no_dense_coupling():
    # |G| = 512 with system_dim 4: the dense UtildeV would take 67 MB, the
    # label columns E(chi) of stage one take 4 * 512 * 4 amplitudes (131 kB)
    g = make_group([512])
    chars = g.characters()
    rep = make_spectral_rep(g, 4, [(chars[k], np.diag(np.eye(4)[k])) for k in range(4)])
    cfg = CascadeConfig(rep, 2)
    xi = np.full(4, 0.5)
    tracemalloc.start()
    try:
        output = cascade_apply(cfg, xi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert output.tuples.tolist() == [[k, k] for k in range(4)]
    assert np.array_equal(output.amps, np.diag(xi).astype(complex))
    assert peak < 4 << 20


def test_copy_chain_is_cached_read_only():
    g = make_group([3])
    assert intertwiner_chain_check(g.character([1]), 3) == 0.0
    chain = amplification._copy_chain(g, 3)
    assert not chain.flags.writeable
    with pytest.raises(ValueError):
        chain[0] = 1
    # the next character at the same N reuses it
    assert intertwiner_chain_check(g.character([2]), 3) == 0.0
    assert amplification._copy_chain(g, 3) is chain


def test_intertwiner_chain_large_group():
    g = make_group([8])
    assert intertwiner_chain_check(g.character([3]), 4) == 0.0


def test_heisenberg_duality():
    # conjugating A x f x ... x f by the cascade and evaluating in the
    # decoupled state xi x |iota>^N reproduces the amplified expectation
    # when each f is the indicator of a single outcome label
    rng = np.random.default_rng(8)
    rep = clock_rep(2)
    chi_dn = char_of(rep, np.diag([0.0, 1.0]))
    for n in (1, 2, 3):
        cfg = CascadeConfig(rep, n)
        xi = random_state(rng, 2)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = a + a.conj().T
        f = np.zeros((2, 2))
        f[chi_dn.index, chi_dn.index] = 1.0
        t = heisenberg_T(cfg, a, [f] * n)
        joint = xi
        for _ in range(n):
            iota = np.zeros(2)
            iota[rep.group.trivial_character.index] = 1.0
            joint = np.kron(joint, iota)
        lhs = complex(np.vdot(joint, t @ joint))
        output = cascade_apply(cfg, xi)
        rhs = amplified_instrument(output, outcome([chi_dn]), a).conditional_expectation
        assert abs(lhs - rhs) <= 1e-10


def test_heisenberg_rejects_offdiagonal_probe_function():
    rep = clock_rep(2)
    cfg = CascadeConfig(rep, 1)
    with pytest.raises(CascadeError):
        heisenberg_T(cfg, np.eye(2), [np.array([[0.0, 1.0], [1.0, 0.0]])])
