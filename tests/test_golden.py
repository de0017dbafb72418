"""Golden output hashes: byte-identical determinism against fixed digests.

The cases and their digests live in ``golden_cases.py``, which also runs
them without pytest.
"""

import hashlib
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


def test_fit_policy_summary_differs_from_its_old_bytes_in_two_header_fields(
        tmp_path, monkeypatch):
    """The case once set ``evacuation_threshold`` -1000 and a fit threshold
    of 1e-20, which evacuated on the same steps; putting those two header
    fields back gives the old ``summary.json`` bytes."""
    monkeypatch.chdir(tmp_path)
    run_case("sentinel-fit-policy", tmp_path)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    summary["header"].update(evacuation_threshold=-1000.0, fit_threshold=1e-20)
    old = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(old.encode()).hexdigest() == \
        "f6e9d8c09f2190f6a0c633ecaca913a41eb3a34f62d8e0fd093396fc13355855"
