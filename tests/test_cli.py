import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilsim.behavior import MAX_CARDINALITY
from resilsim.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

CHANNEL_CONFIG = {
    "channel": {"kind": "bursty", "p_enter": 0.05, "p_exit": 0.3,
                "y_calm": 1, "y_burst": 5},
    "steps": 300,
    "seed": 11,
    "protocols": [
        {"kind": "elastic", "yield_point": 6},
        {"kind": "entelechial",
         "predictor": {"kind": "window_max", "window": 8}, "epsilon": 1.5},
        {"kind": "antifragile",
         "predictor": {"kind": "window_max", "window": 8}, "epsilon": 1.5,
         "identity_profile": {"kind": "teleconferencing", "jitter_bound": 0.5}},
    ],
}

SENTINEL_CONFIG = {"pool_size": 100, "steps": 200, "seed": 5}

MINER_DESCRIPTOR = {
    "class": "purposeful",
    "figures": {"named": ["gas_level", "humidity", "temperature", "vibration"]},
    "social": False,
}

MINE_DESCRIPTOR = {
    "class": "random",
    "figures": {"named": ["t", "gas_level", "humidity", "temperature"]},
    "social": False,
}


WALK_CONFIG = {
    "channel": {"kind": "random_walk", "y0": 3, "step_prob": 0.2, "min": 1, "max": 6},
    "steps": 100,
    "seed": 5,
    "protocols": [
        {"kind": "entelechial", "predictor": {"kind": "ewma_slope"}, "epsilon": 1.5},
    ],
}


def edited(base, path, value):
    """A deep copy of ``base`` with ``value`` set at the key path ``path``."""
    config = copy.deepcopy(base)
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return config


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


def read_tree(directory):
    return {
        p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
    }


class TestChannelCommand:
    def test_three_protocol_run_emits_expected_files(self, tmp_path):
        config = write_json(tmp_path / "config.json", CHANNEL_CONFIG)
        out = tmp_path / "out"
        assert main(["channel", "-c", config, "-o", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {"elastic_steps.csv", "entelechial_steps.csv",
                "antifragile_steps.csv", "aggregates.json", "compare.csv",
                "manifest.json"} <= names
        compare_lines = (out / "compare.csv").read_text().splitlines()
        assert len(compare_lines) == 4  # header + one row per protocol
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert "compare.csv" in manifest["files"]

    def test_step_csv_layout(self, tmp_path):
        config = write_json(tmp_path / "config.json", CHANNEL_CONFIG)
        out = tmp_path / "out"
        main(["channel", "-c", config, "-o", str(out)])
        lines = (out / "elastic_steps.csv").read_text().splitlines()
        assert lines[0] == "t,y,Y,delivered,shoot_kind,shoot_magnitude,cost,algorithm"
        assert len(lines) == 301

    def test_malformed_json_exits_2_with_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"channel": \n  nope}')
        assert main(["channel", "-c", str(bad), "-o", str(tmp_path / "out")]) == 2
        message = capsys.readouterr().err
        assert "bad.json:2:" in message

    def test_missing_key_exits_2(self, tmp_path):
        config = write_json(tmp_path / "config.json", {"steps": 10, "seed": 1})
        assert main(["channel", "-c", config, "-o", str(tmp_path / "out")]) == 2

    def test_invalid_channel_bounds_exit_2(self, tmp_path):
        payload = dict(CHANNEL_CONFIG)
        payload["channel"] = {"kind": "bursty", "p_enter": 2.0, "p_exit": 0.3,
                              "y_calm": 1, "y_burst": 5}
        config = write_json(tmp_path / "config.json", payload)
        assert main(["channel", "-c", config, "-o", str(tmp_path / "out")]) == 2

    def test_missing_config_file_exits_3(self, tmp_path):
        assert main(["channel", "-c", str(tmp_path / "absent.json"),
                     "-o", str(tmp_path / "out")]) == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_json(tmp_path / "config.json", CHANNEL_CONFIG)
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(["channel", "-c", config, "-o", str(out1)]) == 0
        assert main(["channel", "-c", config, "-o", str(out2)]) == 0
        assert read_tree(out1) == read_tree(out2)

    def test_seed_override_changes_outputs(self, tmp_path):
        config = write_json(tmp_path / "config.json", CHANNEL_CONFIG)
        out1, out2 = tmp_path / "one", tmp_path / "two"
        main(["channel", "-c", config, "-o", str(out1)])
        main(["channel", "-c", config, "-o", str(out2), "--seed", "99"])
        assert read_tree(out1) != read_tree(out2)

    def test_single_protocol_skips_compare(self, tmp_path):
        payload = dict(CHANNEL_CONFIG)
        payload.pop("protocols")
        payload["protocol"] = {"kind": "elastic", "yield_point": 6}
        config = write_json(tmp_path / "config.json", payload)
        out = tmp_path / "out"
        assert main(["channel", "-c", config, "-o", str(out)]) == 0
        assert not (out / "compare.csv").exists()

    def test_fit_variant_changes_aggregate_fit(self, tmp_path):
        config = write_json(tmp_path / "config.json", CHANNEL_CONFIG)
        out1, out2 = tmp_path / "one", tmp_path / "two"
        main(["channel", "-c", config, "-o", str(out1)])
        main(["channel", "-c", config, "-o", str(out2),
              "--fit-variant", "quadratic"])
        first = json.loads((out1 / "aggregates.json").read_text())
        second = json.loads((out2 / "aggregates.json").read_text())
        assert first["fit_variant"] == "baseline"
        assert second["fit_variant"] == "quadratic"
        baseline_fit = first["protocols"]["elastic"]["aggregates"]["mean_step_fit"]
        quadratic_fit = second["protocols"]["elastic"]["aggregates"]["mean_step_fit"]
        assert 0.0 < quadratic_fit < baseline_fit <= 1.0

    def test_explicit_knowledge_store_persists_across_runs(self, tmp_path):
        payload = dict(CHANNEL_CONFIG)
        payload["knowledge_store"] = str(tmp_path / "lessons.json")
        config = write_json(tmp_path / "config.json", payload)
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(["channel", "-c", config, "-o", str(out1)]) == 0
        store_bytes = (tmp_path / "lessons.json").read_bytes()
        lessons = json.loads(store_bytes)
        assert lessons["entries"][0]["algorithm"] == "interleaved"
        # A rerun adopts the stored lesson without rewriting it, and the
        # simulation outputs stay identical.
        assert main(["channel", "-c", config, "-o", str(out2)]) == 0
        assert (tmp_path / "lessons.json").read_bytes() == store_bytes
        assert read_tree(out1) == read_tree(out2)

    def test_boolean_steps_exits_2(self, tmp_path):
        config = write_json(tmp_path / "config.json", {**CHANNEL_CONFIG, "steps": True})
        out = tmp_path / "out"
        assert main(["channel", "-c", config, "-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("change, key", [
        ({"seed": [1]}, "seed"),
        ({"seed": True}, "seed"),
        ({"protocols": [{"kind": "elastic", "yield_point": "4"}]}, "yield_point"),
        ({"protocols": [{"kind": "elastic", "yield_point": 4.0}]}, "yield_point"),
        ({"protocols": [3]}, "protocol #0"),
        ({"channel": {"kind": "constant", "y": "3"}}, "y"),
        ({"channel": {"kind": "constant", "y": False}}, "y"),
        ({"protocols": [{"kind": "entelechial", "epsilon": 1.5,
                         "predictor": {"kind": "window_max", "window": 2.5}}]},
         "window"),
    ])
    def test_wrong_typed_value_exits_2(self, tmp_path, capsys, change, key):
        config = write_json(tmp_path / "config.json", {**CHANNEL_CONFIG, **change})
        assert main(["channel", "-c", config, "-o", str(tmp_path / "out")]) == 2
        message = capsys.readouterr().err
        assert message.startswith("config error: ")
        assert key in message
        assert "Traceback" not in message

    @pytest.mark.parametrize("base, path, value, where", [
        (CHANNEL_CONFIG, ("protocols", 1, "epsilon"), "x", "protocol #1.epsilon"),
        (CHANNEL_CONFIG, ("protocols", 1, "epsilon"), float("nan"),
         "protocol #1.epsilon"),
        (CHANNEL_CONFIG, ("protocols", 2, "identity_profile", "jitter_bound"), "x",
         "protocol #2.identity_profile.jitter_bound"),
        (CHANNEL_CONFIG, ("protocols", 2, "burstiness_threshold"), "x",
         "protocol #2.burstiness_threshold"),
        (CHANNEL_CONFIG, ("channel", "burst_correlated"), "no",
         "channel.burst_correlated"),
        (CHANNEL_CONFIG, ("channel", "p_enter"), [0.1], "channel.p_enter"),
        (WALK_CONFIG, ("channel", "step_prob"), "x", "channel.step_prob"),
        (WALK_CONFIG, ("channel", "step_prob"), True, "channel.step_prob"),
        (WALK_CONFIG, ("protocols", 0, "predictor", "alpha"), "x",
         "protocol #0.predictor.alpha"),
        (WALK_CONFIG, ("channel", "maxx"), 6, "channel.maxx"),
        (WALK_CONFIG, ("channel", "seed"), 6, "channel.seed"),
        (WALK_CONFIG, ("protocols", 0, "predictor", "windows"), 3,
         "protocol #0.predictor.windows"),
        (WALK_CONFIG, ("protocols", 0, "kind"), "elastc", "protocol #0.kind"),
        (WALK_CONFIG, ("protocols", 0, "kind"), ["elastic"], "protocol #0"),
        (WALK_CONFIG, ("protocols", 0, "name"), "../escape", "protocol #0"),
        (WALK_CONFIG, ("stpes",), 100, "stpes"),
        (WALK_CONFIG, ("protocol",), {"kind": "elastic", "yield_point": 7}, "protocol"),
    ])
    def test_malformed_value_exits_2_naming_key_path(self, tmp_path, capsys, base,
                                                     path, value, where):
        config = write_json(tmp_path / "config.json", edited(base, path, value))
        out = tmp_path / "out"
        assert main(["channel", "-c", config, "-o", str(out)]) == 2
        message = capsys.readouterr().err
        assert message.startswith(f"config error: {where}")
        assert "Traceback" not in message
        assert not (tmp_path / "escape_steps.csv").exists()

    @pytest.mark.parametrize("store", [0, 5, ["a"], True])
    def test_non_string_knowledge_store_exits_2(self, tmp_path, capsys, store):
        config = write_json(tmp_path / "config.json",
                            {**CHANNEL_CONFIG, "knowledge_store": store})
        out = tmp_path / "out"
        assert main(["channel", "-c", config, "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: knowledge_store ")
        assert not out.exists()

    def test_malformed_later_protocol_writes_no_step_csv(self, tmp_path, capsys):
        payload = edited(WALK_CONFIG, ("protocols",), [
            {"kind": "elastic", "yield_point": 7},
            {"kind": "elastic", "yield_point": "x"},
        ])
        config = write_json(tmp_path / "config.json", payload)
        out = tmp_path / "out"
        assert main(["channel", "-c", config, "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: protocol #1.yield_point must be an integer")
        assert not list(out.glob("*_steps.csv"))

    def test_protocol_name_names_its_step_csv(self, tmp_path):
        payload = edited(WALK_CONFIG, ("protocols", 0, "name"), "tracker")
        config = write_json(tmp_path / "config.json", payload)
        out = tmp_path / "out"
        assert main(["channel", "-c", config, "-o", str(out)]) == 0
        assert (out / "tracker_steps.csv").exists()

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",
        b"[" + b"7" * 5000 + b"]",
        b"[" * 100_000 + b"]" * 100_000,
    ])
    def test_undecodable_config_exits_2(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["channel", "-c", str(bad), "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("content", [
        "{not json",
        '{"entries": {}}',
        '{"entries": [{"signature": "bursty-high"}]}',
        '{"entries": [{"signature": ["x"], "algorithm": "interleaved"}]}',
        '{"entries": [{"signature": "bursty-high", "algorithm": "interleaved",'
        ' "depth": "4"}]}',
    ])
    def test_corrupt_knowledge_store_exits_2_naming_it(self, tmp_path, capsys, content):
        store = tmp_path / "lessons.json"
        store.write_text(content)
        config = write_json(tmp_path / "config.json",
                            {**CHANNEL_CONFIG, "knowledge_store": str(store)})
        assert main(["channel", "-c", config, "-o", str(tmp_path / "out")]) == 2
        message = capsys.readouterr().err
        assert message.startswith("config error: ")
        assert str(store) in message
        assert store.read_text() == content


class TestSentinelCommand:
    def test_single_run_outputs(self, tmp_path):
        config = write_json(tmp_path / "config.json", SENTINEL_CONFIG)
        out = tmp_path / "out"
        assert main(["sentinel", "-c", config, "-o", str(out)]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "t,mine_state,canaries_alive,supply,fit,miner_alive,evacuated"
        assert len(lines) == 201
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pool_size"] == 100

    def test_curve_emits_formula_table(self, tmp_path):
        config = write_json(tmp_path / "config.json", SENTINEL_CONFIG)
        out = tmp_path / "out"
        assert main(["sentinel", "-c", config, "-o", str(out),
                     "--curve", "100"]) == 0
        lines = (out / "curve.csv").read_text().splitlines()
        assert len(lines) == 102  # header + 101 rows
        assert lines[0] == "f,supply,fit"
        assert lines[1] == "0,50.0," + repr(1.0 / 51.0)
        assert lines[51] == "50,0.0,1.0"
        assert lines[52] == "51,-1.0,float_min"

    def test_baseline_pool_trace_is_survival_only(self, tmp_path):
        config = write_json(tmp_path / "config.json",
                            {"pool_size": 0, "steps": 50, "seed": 2})
        out = tmp_path / "out"
        assert main(["sentinel", "-c", config, "-o", str(out)]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[1].split(",")[3] == ""  # no supply estimate

    def test_monte_carlo_batch(self, tmp_path):
        config = write_json(tmp_path / "config.json",
                            {"pool_size": 100, "steps": 200, "seed": 0})
        out = tmp_path / "out"
        assert main(["sentinel", "-c", config, "-o", str(out),
                     "--runs", "20"]) == 0
        batch = json.loads((out / "batch.json").read_text())
        assert batch["with_canaries"]["runs"] == 20
        assert batch["baseline"]["pool_size"] == 0
        assert "uplift" in batch

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_json(tmp_path / "config.json", SENTINEL_CONFIG)
        out1, out2 = tmp_path / "one", tmp_path / "two"
        main(["sentinel", "-c", config, "-o", str(out1), "--curve", "50"])
        main(["sentinel", "-c", config, "-o", str(out2), "--curve", "50"])
        assert read_tree(out1) == read_tree(out2)

    @pytest.mark.parametrize("args", [
        ["--curve", "10", "--runs", "0"],
        ["--curve", "0"],
        ["--curve", "-3", "--runs", "5"],
        ["--runs", "0"],
    ])
    def test_bad_curve_or_runs_exits_2_writing_nothing(self, tmp_path, capsys, args):
        config = write_json(tmp_path / "config.json", SENTINEL_CONFIG)
        out = tmp_path / "out"
        assert main(["sentinel", "-c", config, "-o", str(out), *args]) == 2
        assert capsys.readouterr().err.startswith("config error: --")
        assert not out.exists()

    def test_invalid_scenario_exits_2(self, tmp_path):
        config = write_json(tmp_path / "config.json",
                            {"miner": {"figures": ["t", "gas_level"]}})
        assert main(["sentinel", "-c", config, "-o", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("args", [[], ["--runs", "3"]])
    def test_wrong_typed_seed_exits_2(self, tmp_path, capsys, args):
        config = write_json(tmp_path / "config.json", {**SENTINEL_CONFIG, "seed": [1]})
        out = tmp_path / "out"
        assert main(["sentinel", "-c", config, "-o", str(out), *args]) == 2
        assert "seed must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["steps", "pool_size"])
    @pytest.mark.parametrize("args", [[], ["--runs", "3"]])
    def test_boolean_integer_fields_exit_2(self, tmp_path, key, args):
        config = write_json(tmp_path / "config.json", {**SENTINEL_CONFIG, key: True})
        out = tmp_path / "out"
        assert main(["sentinel", "-c", config, "-o", str(out), *args]) == 2
        assert not out.exists()


    @pytest.mark.parametrize("path, value, where", [
        (("miner", "hazard_ts"), "0.3", "miner.hazard_ts"),
        (("miner", "evacuation_threshold"), "x", "miner.evacuation_threshold"),
        (("policy", "fit_threshold"), "x", "policy.fit_threshold"),
        (("mine", "p_enter_ts"), [1], "mine.p_enter_ts"),
        (("mine", "figures"), "tgas", "mine.figures"),
        (("canary", "hazard_ts"), float("inf"), "canary.hazard_ts"),
        (("miners",), {"hazard_ts": 0.02}, "miners"),
        (("miner", "hazard"), 0.02, "miner.hazard"),
    ])
    def test_malformed_value_exits_2_naming_key_path(self, tmp_path, capsys, path,
                                                     value, where):
        config = write_json(tmp_path / "config.json",
                            edited({**SENTINEL_CONFIG, "mine": {}, "miner": {},
                                    "canary": {}, "policy": {}}, path, value))
        out = tmp_path / "out"
        assert main(["sentinel", "-c", config, "-o", str(out)]) == 2
        message = capsys.readouterr().err
        assert message.startswith(f"config error: {where}")
        assert not out.exists()

    def test_null_fit_threshold_is_the_default(self, tmp_path):
        outputs = []
        for policy in ({}, {"fit_threshold": None}):
            config = write_json(tmp_path / "config.json",
                                {**SENTINEL_CONFIG, "policy": policy})
            out = tmp_path / f"out{len(outputs)}"
            assert main(["sentinel", "-c", config, "-o", str(out)]) == 0
            outputs.append(read_tree(out))
        assert outputs[0] == outputs[1]


class TestCompareCommand:
    def test_incommensurable_pair(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", MINER_DESCRIPTOR)
        b = write_json(tmp_path / "b.json", MINE_DESCRIPTOR)
        assert main(["compare", a, b]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["commensurable"] is False
        assert result["marker"] == "incommensurable"
        assert result["supply"] is None

    def test_identical_descriptors(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", MINER_DESCRIPTOR)
        b = write_json(tmp_path / "b.json", MINER_DESCRIPTOR)
        assert main(["compare", a, b]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["supply"] == 0
        assert result["fit"] == 1.0
        assert result["distance"] == 0

    def test_fit_variant_flag(self, tmp_path, capsys):
        big = dict(MINER_DESCRIPTOR)
        big["figures"] = {"named": ["a", "b", "c"]}
        small = dict(MINER_DESCRIPTOR)
        small["figures"] = {"named": ["a"]}
        a = write_json(tmp_path / "a.json", big)
        b = write_json(tmp_path / "b.json", small)
        assert main(["compare", a, b, "--fit-variant", "plateau:2"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["supply"] == 2
        assert result["fit"] == 1.0

    def test_organ_comparison(self, tmp_path, capsys):
        pur = {"class": "purposeful", "figures": {"cardinality": 0}, "social": False}
        pro1 = {"class": "proactive", "figures": {"cardinality": 1}, "social": False}
        pro2 = {"class": "proactive", "figures": {"cardinality": 2}, "social": False}
        c1 = {"M": pur, "A": pro1, "P": pur, "E": pur, "K": None,
              "k_stateful": False}
        c2 = {"M": pur, "A": pro2, "P": pur, "E": pur, "K": pur,
              "k_stateful": True}
        a = write_json(tmp_path / "c1.json", c1)
        b = write_json(tmp_path / "c2.json", c2)
        assert main(["compare", a, b, "--organs"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result == {"M": "equal", "A": "inferior", "P": "equal",
                          "E": "equal", "K": "left_absent"}

    def test_parse_failure_exits_2(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text("{broken")
        b = write_json(tmp_path / "b.json", MINE_DESCRIPTOR)
        assert main(["compare", str(a), str(b)]) == 2
        c = write_json(tmp_path / "c.json", {"class": "nope", "figures": {}})
        assert main(["compare", c, b]) == 2

    @pytest.mark.parametrize("figures", [
        {"named": 5},
        {"named": "abc"},
        {"named": ["a", 1]},
        {"cardinality": True},
        {"cardinality": 2.0},
        {"cardinality": -1},
        {"cardinality": MAX_CARDINALITY},
        {"cardinality": 10**40},
    ])
    def test_malformed_figures_exit_2(self, tmp_path, capsys, figures):
        a = write_json(tmp_path / "a.json", {**MINER_DESCRIPTOR, "figures": figures})
        b = write_json(tmp_path / "b.json", MINE_DESCRIPTOR)
        assert main(["compare", a, b]) == 2
        message = capsys.readouterr().err
        assert message.startswith(f"config error: {a}: figures.")


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def readme_config(command):
    """The JSON example under the README's heading for ``command``."""
    section = README.read_text().split(f"### `resilsim {command}", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


@pytest.mark.parametrize("command", ["channel", "sentinel"])
def test_readme_example_config_runs(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)  # the channel example names a relative store
    write_json(tmp_path / "config.json", readme_config(command))
    assert main([command, "-c", "config.json", "-o", "out"]) == 0
    assert capsys.readouterr().err == ""


# Exit-code contract: one arbitrary JSON value put anywhere in a known-good
# input gives 0, 2 or 3, never a traceback. Integers stay small so that no
# edit (steps, pool_size, window, ...) makes a run expensive.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 300) | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
CONFIG_KEYS = st.sampled_from(sorted({
    "kind", "name", "steps", "seed", "channel", "protocol", "protocols", "y", "y0",
    "step_prob", "min", "max", "y_min", "p_enter", "p_exit", "y_calm", "y_burst",
    "burst_correlated", "yield_point", "predictor", "window", "alpha", "horizon",
    "epsilon", "epochs_per_review", "identity_profile", "jitter_bound",
    "burstiness_threshold", "interleave_depth", "mine", "miner", "canary",
    "policy", "pool_size", "figures", "p_enter_ts", "p_exit_ts", "hazard_ts",
    "evacuation_threshold", "fit_threshold", "class", "social", "named",
    "cardinality",
})) | st.text(max_size=6)
KNOWN_GOOD = [
    ("channel", CHANNEL_CONFIG),
    ("sentinel", SENTINEL_CONFIG),
    ("sentinel", {}),
    ("compare", MINER_DESCRIPTOR),
    ("compare", MINE_DESCRIPTOR),
]


def containers(value):
    """Every object and list in ``value``, itself included."""
    if isinstance(value, (dict, list)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from containers(child)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_single_arbitrary_edit_keeps_the_exit_code_contract(data):
    command, base = data.draw(st.sampled_from(KNOWN_GOOD))
    config = copy.deepcopy(base)
    value = data.draw(JSON_VALUES, label="value")
    target = data.draw(st.sampled_from([None, *containers(config)]), label="target")
    if target is None:
        config = value
    elif isinstance(target, dict):
        keys = st.sampled_from(sorted(target)) | CONFIG_KEYS if target else CONFIG_KEYS
        target[data.draw(keys, label="key")] = value
    else:
        index = data.draw(st.integers(0, len(target)), label="index")
        target[index:index + 1] = [value]
    # A store path string would let the run write outside its directory.
    if isinstance(config, dict) and isinstance(config.get("knowledge_store"), str):
        return
    with tempfile.TemporaryDirectory() as work:
        config_path = write_json(Path(work) / "config.json", config)
        if command == "compare":
            other = write_json(Path(work) / "other.json", MINE_DESCRIPTOR)
            argv = ["compare", config_path, other]
        else:
            argv = [command, "-c", config_path, "-o", os.path.join(work, "out")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 2, 3), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
