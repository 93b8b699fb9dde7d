"""Acceptance gate: every built-in criterion must pass within its time limit.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
"""

import dataclasses

import pytest

from qmamp import amplification, scenarios, selfcheck


@pytest.mark.parametrize(
    "number,name",
    [(num, name) for num, name, _, _ in selfcheck.CRITERIA],
    ids=[f"criterion-{num:02d}-{name}" for num, name, _, _ in selfcheck.CRITERIA],
)
def test_criterion(number, name, capsys):
    result = selfcheck.run_criterion(number)
    with capsys.disabled():
        print(result.line())
    assert result.passed, f"criterion {number} ({name}) failed: {result.detail}"
    assert result.ok, (
        f"criterion {number} ({name}) exceeded its time limit: "
        f"{result.elapsed:.1f}s > {result.limit:.0f}s"
    )


def test_all_criteria_summary():
    assert len(selfcheck.CRITERIA) == 10
    numbers = [num for num, _, _, _ in selfcheck.CRITERIA]
    assert numbers == list(range(1, 11))


def test_adiabaticity_reference_reproduces_at_converged_dt():
    # criterion 9 compares its coarse sweep with this stored reference; the
    # reference's sweep scenario rerun at its converged time step must give
    # its columns again
    ref = selfcheck.load_adiabaticity_reference()
    rows = scenarios.sweep(selfcheck.at_time_step(ref["scenario"], ref["converged_dt"]))
    assert [r["field.b2"] for r in rows] == ref["b2_values"]
    assert [r["u_fi"] for r in rows] == pytest.approx(ref["u_fi_values"], rel=0, abs=1e-15)
    assert [r["flip_probability"] for r in rows] == pytest.approx(
        ref["converged_flips"], rel=0, abs=1e-12
    )


@pytest.mark.parametrize("field", ["probability", "conditional_expectation"])
def test_amplification_criterion_catches_a_shift_at_n_above_1(monkeypatch, field):
    # an amplified instrument off by 1e-9 at N >= 2 only, in the probability
    # or in the observable's conditional expectation, fails criterion 5
    amplified_instrument = amplification.amplified_instrument

    def shifted(output, delta, b):
        res = amplified_instrument(output, delta, b)
        if output.cfg.n_copies < 2:
            return res
        return dataclasses.replace(res, **{field: getattr(res, field) + 1e-9})

    monkeypatch.setattr(amplification, "amplified_instrument", shifted)
    passed, detail = selfcheck.criterion_5_amplification()
    assert not passed, detail
    assert detail.startswith("max N-dependence/equality residual 1.00e-09")


@pytest.mark.parametrize("field", ["probability", "conditional_expectation"])
def test_instrument_criterion_catches_a_shift_at_n_1(monkeypatch, field):
    # criterion 4 reads the coupled picture through amplified_instrument at
    # N = 1: a shift of 1e-9 there alone, in either field, fails it
    amplified_instrument = amplification.amplified_instrument

    def shifted(output, delta, b):
        res = amplified_instrument(output, delta, b)
        if output.cfg.n_copies != 1:
            return res
        return dataclasses.replace(res, **{field: getattr(res, field) + 1e-9})

    monkeypatch.setattr(amplification, "amplified_instrument", shifted)
    passed, detail = selfcheck.criterion_4_instrument_equality()
    assert not passed, detail
    assert detail.startswith("max coupled-vs-projective residual 1.00e-09")


def test_properties_criterion_catches_a_shift_at_n_1(monkeypatch):
    # criterion 7 reads each joint probability of a system sector and a probe
    # label through amplified_instrument at N = 1: a shift of 1e-9 in its
    # conditional expectation fails it
    amplified_instrument = amplification.amplified_instrument

    def shifted(output, delta, b):
        res = amplified_instrument(output, delta, b)
        if output.cfg.n_copies != 1:
            return res
        return dataclasses.replace(res, conditional_expectation=res.conditional_expectation + 1e-9)

    monkeypatch.setattr(amplification, "amplified_instrument", shifted)
    passed, detail = selfcheck.criterion_7_measurement_properties()
    assert not passed, detail
    assert detail == "200 violations in 1000 random property cases"
