import json

import pytest

from resilsim.cli import main

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


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
