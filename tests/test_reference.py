"""Reference outputs: each scenario below, run through
`scenarios.run_scenario`, writes the files under tests/reference/<name>/
byte for byte.

The scenarios are `examples/*.json` (named by their stem), the README's
JSON examples (readme_<kind>) and tests/reference/*.json, which hold the
cases that neither shows: an amplify run of an explicit rep with an
observable that is not the identity.  A change that means to move a number
rewrites the files it moves, as the CLI writes them:
`qmamp <kind> --scenario <file> --out tests/reference/<name>`.  Selftest's
detail lines are in tests/reference/selftest.txt, which
`tests/test_acceptance.py` reads as it runs each criterion.
"""

import json
import re
from pathlib import Path

import pytest
from fresh_interpreter import REPO

from qmamp import scenarios

REFERENCE = Path(__file__).parent / "reference"


def reference_scenarios() -> dict:
    cases = {p.stem: p for p in sorted((REPO / "examples").glob("*.json"))}
    cases |= {p.stem: p for p in sorted(REFERENCE.glob("*.json"))}
    found = {name: json.loads(p.read_text()) for name, p in cases.items()}
    for block in re.findall(r"```json\n(.*?)```", (REPO / "README.md").read_text(), re.S):
        scenario = json.loads(block)
        found[f"readme_{scenario['kind']}"] = scenario
    return found


SCENARIOS = reference_scenarios()


def test_every_reference_has_its_scenario():
    outputs = {p.name for p in REFERENCE.iterdir() if p.is_dir()}
    assert outputs == set(SCENARIOS)
    assert {"readme_relations", "readme_measure", "readme_sweep"} <= outputs


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_outputs_match_the_reference(tmp_path, name):
    written = scenarios.run_scenario(SCENARIOS[name], tmp_path)
    expected = REFERENCE / name
    assert sorted(p.name for p in written) == sorted(p.name for p in expected.iterdir())
    for path in written:
        assert path.read_bytes() == (expected / path.name).read_bytes(), path.name
