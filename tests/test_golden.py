"""Golden output hashes: byte-identical determinism against fixed digests.

The cases and their digests live in ``golden_cases.py``, which also runs
them without pytest.
"""

import json

import pytest

from golden_cases import CASES, GOLDEN, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_case(name, tmp_path) == GOLDEN[name]


def test_channel_case_mutates_and_violates_identity(tmp_path, monkeypatch):
    """The channel case exercises the review pass and identity accounting."""
    monkeypatch.chdir(tmp_path)
    run_case("channel", tmp_path)
    aggregates = json.loads((tmp_path / "out" / "aggregates.json").read_text())
    antifragile = aggregates["protocols"]["antifragile"]
    assert antifragile["mutations"]
    assert antifragile["aggregates"]["identity_violations"] > 0
    assert json.loads((tmp_path / "lessons.json").read_text())["entries"]
