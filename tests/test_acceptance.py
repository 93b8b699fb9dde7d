"""Acceptance gate: every built-in criterion must pass within its time limit,
and print the line that tests/reference/selftest.txt holds for it, timing
bracket aside.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
"""

import dataclasses
from pathlib import Path

import pytest

from qmamp import amplification, scenarios, selfcheck

# the `qmamp selftest` lines, each without its trailing [elapsed / limit]
SELFTEST_LINES = (Path(__file__).parent / "reference" / "selftest.txt").read_text("utf-8")


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
    assert result.line().rsplit(" [", 1)[0] == SELFTEST_LINES.splitlines()[number - 1]


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


def test_coupled_criteria_catch_a_fault_in_couple(monkeypatch):
    # the coupled picture reads couple's output, the cascade's first stage,
    # and not the single-probe instrument's terms: a 1e-9 fault in one
    # column of that output fails criterion 4 (N = 1) and criterion 5
    couple = amplification.couple

    def faulty(rep, xi):
        out = couple(rep, xi)
        out[0, 0] += 1e-9
        return out

    monkeypatch.setattr(amplification, "couple", faulty)
    for criterion in (selfcheck.criterion_4_instrument_equality,
                      selfcheck.criterion_5_amplification):
        passed, detail = criterion()
        assert not passed, detail
