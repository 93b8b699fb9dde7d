import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmamp import amplification
from qmamp.amplification import (
    CascadeConfig,
    CascadeError,
    amplified_instrument,
    cascade_apply,
    cascade_unitary,
    check_instrument_equality,
    heisenberg_T,
    intertwiner_chain_check,
)
from qmamp.groups import _perm_matrix, canonical_groups, make_group, regular_representation
from qmamp.hilbert import DenseOperator, StateVector, embed, leg_space
from qmamp.ktops import _v_pair_map, build_V
from qmamp.measurement import clock_rep, instrument, make_spectral_rep, outcome, sigma_z_rep

SZ = np.diag([1.0, -1.0]).astype(complex)


def random_state(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def char_of(rep, projection):
    return next(
        chi for chi, p in rep.projections.items() if np.allclose(p, projection)
    )


def test_config_validation():
    rep = sigma_z_rep()
    with pytest.raises(CascadeError):
        CascadeConfig(rep, 0)
    with pytest.raises(CascadeError):
        CascadeConfig(rep, 30)  # 2 * 2**30 amplitudes over the default budget


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
    reps = [sigma_z_rep(), clock_rep(3)] + [rotated_rep(g, rng) for g in canonical_groups(4)]
    for rep in reps:
        for n in (1, 2, 3):
            cfg = CascadeConfig(rep, n)
            xi = random_state(rng, rep.system_dim)
            joint = xi
            for _ in range(n):
                iota = np.zeros(rep.group.size)
                iota[rep.group.trivial_character.index] = 1.0
                joint = np.kron(joint, iota)
            u = cascade_unitary(cfg).matrix
            lazy = cascade_apply(cfg, xi)
            assert np.linalg.norm(u @ joint - lazy.amplitudes) <= 1e-12
            psi = StateVector(cfg.space, random_state(rng, cfg.state_dim))
            back = cascade_apply(cfg, psi, inverse=True)
            assert np.linalg.norm(u.conj().T @ psi.amplitudes - back.amplitudes) <= 1e-12


def test_cascade_output_is_branch_correlated():
    # sum_gamma c_gamma xi_gamma x |gamma>^N: every probe leg carries the
    # same label, and the weight of label gamma is |c_gamma|^2
    rep = sigma_z_rep()
    cfg = CascadeConfig(rep, 3)
    xi = np.array([np.sqrt(0.3), np.sqrt(0.7)])
    out = cascade_apply(cfg, xi).as_tensor()
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


def test_inverse_cascade_recovers_input():
    rng = np.random.default_rng(4)
    rep = clock_rep(3)
    cfg = CascadeConfig(rep, 2)
    xi = random_state(rng, 3)
    out = cascade_apply(cfg, xi)
    back = cascade_apply(cfg, out, inverse=True)
    tensor = back.as_tensor()
    assert np.linalg.norm(tensor[:, 0, 0] - xi) <= 1e-12
    assert abs(back.norm - 1.0) <= 1e-12


def test_cascade_unitary_lazy_threshold():
    rep = sigma_z_rep()
    cfg = CascadeConfig(rep, 5, lazy_threshold=4)
    with pytest.raises(CascadeError):
        cascade_unitary(cfg)
    assert cascade_unitary(cfg, force=True).is_unitary()
    # cascade_apply is always available above the threshold
    out = cascade_apply(cfg, np.array([1.0, 0.0]))
    assert abs(out.norm - 1.0) <= 1e-12


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 4]), st.sampled_from([2, 3]))
def test_amplified_instrument_is_n_independent(seed, n, dim):
    rng = np.random.default_rng(seed)
    rep = sigma_z_rep() if dim == 2 else clock_rep(3)
    cfg = CascadeConfig(rep, n)
    xi = random_state(rng, dim)
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    b = b + b.conj().T
    chars = rep.group.characters()
    for delta in (outcome([chars[0]]), outcome(chars[:2])):
        assert check_instrument_equality(cfg, delta, xi, b) <= 1e-10
        one = instrument(rep, delta, xi, b)
        many = amplified_instrument(cfg, delta, xi, b)
        assert many.probability == pytest.approx(one.probability, abs=1e-10)


def test_singleton_probability_is_branch_weight():
    rep = sigma_z_rep()
    cfg = CascadeConfig(rep, 3)
    xi = np.array([np.sqrt(0.3), np.sqrt(0.7)])
    chi_dn = char_of(rep, np.diag([0.0, 1.0]))
    res = amplified_instrument(cfg, outcome([chi_dn]), xi, SZ)
    assert res.probability == pytest.approx(0.7)
    assert np.allclose(res.post_state, np.diag([0.0, 1.0]), atol=1e-12)


def test_intertwiner_chain_exact():
    for orders in ([2], [3], [4], [2, 2]):
        g = make_group(orders)
        for gamma in g.characters():
            for n in (1, 2, 3):
                assert intertwiner_chain_check(g, gamma, n) == 0.0


def dense_chain_residual(g, gamma, stages):
    # oracle: V_{N,N+1} ... V_12 (t_gamma x 1^N) - t_gamma^(N+1) V_{N,N+1} ... V_12,
    # with stages[k] the two-leg operator on legs (k, k+1)
    legs = [f"p{k}" for k in range(len(stages) + 1)]
    space = leg_space(*((lab, g.size) for lab in legs))
    chain = np.eye(space.dim)
    for k, v in enumerate(stages):
        chain = embed(v, legs[k : k + 2], space).matrix @ chain
    t = regular_representation(gamma)
    lam_first = embed(DenseOperator(leg_space(("t", g.size)), t), legs[:1], space).matrix
    lam_all = t
    for _ in stages:
        lam_all = np.kron(lam_all, t)
    return float(np.linalg.norm(chain @ lam_first - lam_all @ chain))


def test_intertwiner_chain_matches_dense_oracle(monkeypatch):
    for orders in ([2], [3], [4], [2, 2]):
        g = make_group(orders)
        v = build_V(g)
        for gamma in g.characters():
            for n in (1, 2, 3):
                dense = dense_chain_residual(g, gamma, [v] * n)
                assert intertwiner_chain_check(g, gamma, n) == dense

    # swap two basis images of the copy map in the second stage only
    g = make_group([3])
    bad = _v_pair_map(g)
    bad[[1, 4]] = bad[[4, 1]]
    kron_perm = amplification._kron_perm

    def corrupt_second_stage(*maps):
        if len(maps) == 3 and len(maps[0]) == g.size and len(maps[1]) == g.size**2:
            maps = (maps[0], bad, maps[2])  # the stage map pre x V x post with pre = g
        return kron_perm(*maps)

    monkeypatch.setattr(amplification, "_kron_perm", corrupt_second_stage)
    v, v_bad = build_V(g), DenseOperator(build_V(g).space, _perm_matrix(bad))
    gamma = g.character([1])
    for n in (2, 3):
        dense = dense_chain_residual(g, gamma, [v, v_bad] + [v] * (n - 2))
        assert dense > 0.1
        assert intertwiner_chain_check(g, gamma, n) == dense


def test_intertwiner_chain_large_group():
    g = make_group([8])
    assert intertwiner_chain_check(g, g.character([3]), 4) == 0.0


def test_intertwiner_chain_rejects_foreign_character():
    g = make_group([2])
    h = make_group([3])
    with pytest.raises(CascadeError):
        intertwiner_chain_check(g, h.character([1]), 2)


def test_heisenberg_duality():
    # conjugating A x f x ... x f by the cascade and evaluating in the
    # decoupled state xi x |iota>^N reproduces the amplified expectation
    # when each f is the indicator of a single outcome label
    rng = np.random.default_rng(8)
    rep = sigma_z_rep()
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
        lhs = complex(np.vdot(joint, t.matrix @ joint))
        rhs = amplified_instrument(cfg, outcome([chi_dn]), xi, a).conditional_expectation
        assert abs(lhs - rhs) <= 1e-10


def test_heisenberg_rejects_offdiagonal_probe_function():
    rep = sigma_z_rep()
    cfg = CascadeConfig(rep, 1)
    with pytest.raises(CascadeError):
        heisenberg_T(cfg, np.eye(2), [np.array([[0.0, 1.0], [1.0, 0.0]])])
