import tracemalloc

import numpy as np
import pytest
from dense_oracle import represented_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from qmamp.amplification import CascadeConfig, amplified_instrument, cascade_apply
from qmamp.groups import make_group
from qmamp.measurement import (
    MeasurementError,
    clock_rep,
    couple,
    instrument,
    make_spectral_rep,
    outcome,
)

SZ = np.diag([1.0, -1.0]).astype(complex)


def spin_state(a, b):
    v = np.array([a, b], dtype=complex)
    return v / np.linalg.norm(v)


def char_of(rep, projection):
    return next(
        chi for chi, p in rep.projections.items() if np.allclose(p, projection)
    )


def joint_probability(rep, xi, chi_sys, chi_probe):
    """P(system in range E(chi_sys), probe at chi_probe) after the coupling:
    E(chi_sys) read off the N = 1 cascade output at the outcome {chi_probe}."""
    output = cascade_apply(CascadeConfig(rep, 1), xi)
    res = amplified_instrument(output, outcome([chi_probe]), rep.projections[chi_sys])
    return res.conditional_expectation


def test_make_spectral_rep_validation():
    g = make_group([2])
    chars = g.characters()
    with pytest.raises(MeasurementError):  # not idempotent
        make_spectral_rep(g, 2, [(chars[0], 2 * np.eye(2))])
    with pytest.raises(MeasurementError):  # incomplete
        make_spectral_rep(g, 2, [(chars[0], np.diag([1.0, 0.0]))])
    with pytest.raises(MeasurementError):  # overlapping supports
        make_spectral_rep(
            g, 2, [(chars[0], np.eye(2)), (chars[1], np.diag([1.0, 0.0]))]
        )
    with pytest.raises(MeasurementError):  # not hermitian
        make_spectral_rep(g, 2, [(chars[0], np.array([[1, 1], [0, 0]], dtype=float))])


def test_sigma_z_rep_unitary_family():
    rep = clock_rep(2)
    assert np.allclose(represented_unitary(rep, 1), SZ)  # at the generator
    assert np.allclose(represented_unitary(rep, 0), np.eye(2))


def test_clock_rep_spectrum():
    rep = clock_rep(3)
    u1 = represented_unitary(rep, 1)  # at the generator
    omega = np.exp(2j * np.pi / 3)
    ev = np.linalg.eigvals(u1)
    expected = np.array([1, omega, omega**2])
    key = lambda a: np.sort(np.round(np.angle(a), 9) % (2 * np.pi))
    assert np.allclose(key(ev), key(expected))
    assert np.allclose(np.linalg.matrix_power(u1, 3), np.eye(3), atol=1e-12)


def test_instrument_up_state():
    rep = clock_rep(2)
    chi_up = char_of(rep, np.diag([1.0, 0.0]))
    res = instrument(rep, outcome([chi_up]), spin_state(1, 0), SZ)
    assert res.probability == pytest.approx(1.0)
    assert res.conditional_expectation == pytest.approx(1.0)


def test_instrument_superposition_probabilities():
    rep = clock_rep(2)
    chi_up = char_of(rep, np.diag([1.0, 0.0]))
    chi_dn = char_of(rep, np.diag([0.0, 1.0]))
    xi = spin_state(np.sqrt(0.3), np.sqrt(0.7))
    eye = np.eye(2)
    assert instrument(rep, outcome([chi_up]), xi, eye).probability == pytest.approx(0.3)
    assert instrument(rep, outcome([chi_dn]), xi, eye).probability == pytest.approx(0.7)
    assert instrument(rep, outcome([chi_up, chi_dn]), xi, eye).probability == pytest.approx(1.0)
    # conditioning on a singleton collapses onto that eigenvector; the
    # expectation is unnormalized, so it carries the outcome probability
    res = instrument(rep, outcome([chi_dn]), xi, SZ)
    assert res.conditional_expectation == pytest.approx(-0.7)
    assert res.conditional_expectation / res.probability == pytest.approx(-1.0)


def test_instrument_zero_probability_outcome():
    rep = clock_rep(2)
    chi_dn = char_of(rep, np.diag([0.0, 1.0]))
    res = instrument(rep, outcome([chi_dn]), spin_state(1, 0), SZ)
    assert res.probability == pytest.approx(0.0)


def test_instrument_full_outcome_is_nonselective():
    # summing over all outcomes reproduces the unconditional expectation
    rep = clock_rep(3)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    xi = v / np.linalg.norm(v)
    b = rng.standard_normal((3, 3))
    b = b + b.T
    full = instrument(rep, outcome(rep.group.characters()), xi, b)
    assert full.probability == pytest.approx(1.0)
    dephased = sum(
        p @ np.outer(xi, xi.conj()) @ p
        for p in rep.projections.values()
    )
    assert full.conditional_expectation == pytest.approx(np.trace(b @ dephased).real)


def test_instrument_rejects_unnormalized_state():
    rep = clock_rep(2)
    chi = next(iter(rep.projections))
    bad = np.array([1.0, 1.0])
    with pytest.raises(MeasurementError):
        instrument(rep, outcome([chi]), bad, SZ)


def test_couple_copies_eigenstate_labels():
    rep = clock_rep(2)
    chi_up = char_of(rep, np.diag([1.0, 0.0]))
    # probe pointer lands on the character carried by the system eigenstate
    assert joint_probability(rep, spin_state(1, 0), chi_up, chi_up) == pytest.approx(1.0)


def test_couple_perfect_correlation_superposition():
    rep = clock_rep(2)
    chi_up = char_of(rep, np.diag([1.0, 0.0]))
    chi_dn = char_of(rep, np.diag([0.0, 1.0]))
    xi = spin_state(np.sqrt(0.3), np.sqrt(0.7))
    assert joint_probability(rep, xi, chi_up, chi_up) == pytest.approx(0.3)
    assert joint_probability(rep, xi, chi_dn, chi_dn) == pytest.approx(0.7)
    assert joint_probability(rep, xi, chi_up, chi_dn) == pytest.approx(0.0)
    assert joint_probability(rep, xi, chi_dn, chi_up) == pytest.approx(0.0)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]))
def test_projective_equals_coupled_picture(seed, n):
    rng = np.random.default_rng(seed)
    rep = clock_rep(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    xi = v / np.linalg.norm(v)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = b + b.conj().T
    chars = rep.group.characters()
    # the coupled picture: B x 1_Delta read off the N = 1 cascade output
    output = cascade_apply(CascadeConfig(rep, 1), xi)
    for delta in (outcome([chars[0]]), outcome(chars[:2]), outcome(chars)):
        projective = instrument(rep, delta, xi, b)
        coupled = amplified_instrument(output, delta, b)
        assert abs(coupled.probability - projective.probability) <= 1e-10
        assert abs(coupled.conditional_expectation - projective.conditional_expectation) <= 1e-10


@pytest.mark.parametrize("n", [3, 5])
def test_instrument_sums_outcome_in_index_order(n):
    # the outcome's characters are summed in index order, whatever order they
    # were given in (or a set would iterate them in), so the rounding is
    # reproducible bit for bit
    rep = clock_rep(n)
    chars = rep.group.characters()
    rng = np.random.default_rng(11)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = b + b.conj().T
    for _ in range(50):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xi = v / np.linalg.norm(v)
        prob, cond = 0.0, 0.0
        for pxi in (rep.projections[chi] @ xi for chi in chars):
            prob += float(np.vdot(pxi, pxi).real)
            cond += complex(np.vdot(pxi, b @ pxi))
        for given in (chars, chars[::-1]):
            res = instrument(rep, outcome(given), xi, b)
            assert (res.probability, res.conditional_expectation) == (prob, cond)


def test_couple_holds_only_its_output():
    # a large group with one assigned character: couple fills that one column
    # and allocates nothing of size m |G| m (256 MiB here) on the way
    g, m = make_group([4096]), 64
    rep = make_spectral_rep(g, m, [(g.trivial_character, np.eye(m))])
    xi = np.full(m, m**-0.5, dtype=complex)
    tracemalloc.start()
    try:
        coupled = couple(rep, xi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert coupled.shape == (m, g.size)
    assert np.array_equal(coupled[:, 0], xi) and not coupled[:, 1:].any()
    assert peak < 2 * coupled.nbytes


def test_unassigned_character_allocates_no_matrix():
    # a character the rep does not assign has E(chi) = 0: the instrument skips
    # it, so at d = 512 its outcome allocates no d x d zero matrix (4 MiB)
    # and adds nothing, bit for bit, to an outcome that also holds others
    d, g = 512, make_group([3])
    chars = g.characters()
    half = np.diag([1.0] * (d // 2) + [0.0] * (d // 2))
    rep = make_spectral_rep(g, d, [(chars[0], half), (chars[1], np.eye(d) - half)])
    xi = np.full(d, d**-0.5, dtype=complex)
    b = np.diag(np.arange(d)).astype(complex)
    tracemalloc.start()
    try:
        res = instrument(rep, outcome([chars[2]]), xi, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (res.probability, res.conditional_expectation) == (0.0, 0j)
    assert peak < 64 * 1024
    assert instrument(rep, outcome(chars[:1]), xi, b) == instrument(rep, outcome(chars[::2]), xi, b)
