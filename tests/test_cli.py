import contextlib
import copy
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilsim.behavior import MAX_CARDINALITY
import resilsim.channel as channel
import resilsim.sentinel as sentinel
from resilsim.channel import WindowMax, config_dict
from resilsim.cli import _build_kind, main
from resilsim.errors import TraceMismatch

from oracles import COMPARE_DESCRIPTORS, FIT_VARIANTS, assert_compare_matches_oracle

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
        # An unknown kind lists the known ones, in the order of their table or
        # union in the channel module.
        (WALK_CONFIG, ("protocols", 0, "kind"), "Elastic",
         "protocol #0.kind must be one of elastic, entelechial, antifragile, "
         "got 'Elastic'"),
        (WALK_CONFIG, ("channel", "kind"), "walk",
         "channel.kind must be one of constant, random_walk, bursty, got 'walk'"),
        (WALK_CONFIG, ("protocols", 0, "predictor", "kind"), "ewma",
         "protocol #0.predictor.kind must be one of window_max, ewma_slope, "
         "got 'ewma'"),
        (CHANNEL_CONFIG, ("protocols", 2, "identity_profile", "kind"), None,
         "protocol #2.identity_profile.kind must be one of teleconferencing, "
         "file_transfer, got None"),
        # A burstiness estimate is a fraction, so a threshold outside [0, 1]
        # is rejected where the protocol is built.
        (CHANNEL_CONFIG, ("protocols", 2, "burstiness_threshold"), -0.1,
         "protocol #2: burstiness_threshold must be in [0, 1], got -0.1"),
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

    @pytest.mark.parametrize("prior", [
        None,
        b'{"entries": [{"signature": "calm", "algorithm": "repetition"}]}',
    ])
    def test_config_error_after_a_learning_run_writes_nothing(self, tmp_path,
                                                              capsys, prior):
        store = tmp_path / "lessons.json"
        if prior is not None:
            store.write_bytes(prior)
        learner = CHANNEL_CONFIG["protocols"][2]
        payload = {**CHANNEL_CONFIG, "knowledge_store": str(store), "protocols": [
            learner, {"kind": "elastic", "yield_point": "x"}]}
        config = write_json(tmp_path / "config.json", payload)
        out = tmp_path / "out"
        assert main(["channel", "-c", config, "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: protocol #1.yield_point must be an integer")
        assert not out.exists()
        if prior is None:
            assert not store.exists()
        else:
            assert store.read_bytes() == prior
        # The same protocol alone learns, so the store is left alone on purpose.
        payload["protocols"] = [learner]
        write_json(tmp_path / "config.json", payload)
        assert main(["channel", "-c", config, "-o", str(out)]) == 0
        assert "bursty-high" in store.read_text()

    def test_store_is_saved_before_the_outputs(self, tmp_path, capsys):
        store = tmp_path / "lessons.json"
        config = write_json(tmp_path / "config.json",
                            {**CHANNEL_CONFIG, "knowledge_store": str(store)})
        out = tmp_path / "out"
        (out / "elastic_steps.csv").mkdir(parents=True)  # its write fails
        assert main(["channel", "-c", config, "-o", str(out)]) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert "bursty-high" in store.read_text()

    @pytest.mark.parametrize("output", [
        "aggregates.json", "manifest.json", "compare.csv", "elastic_steps.csv",
        "sub/../aggregates.json", ".",
    ])
    def test_store_naming_an_output_exits_2(self, tmp_path, capsys, output):
        out = tmp_path / "out"
        config = write_json(tmp_path / "config.json",
                            {**CHANNEL_CONFIG, "knowledge_store": str(out / output)})
        assert main(["channel", "-c", config, "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: knowledge_store: ")
        assert not out.exists()

    @pytest.mark.parametrize("change, key", [
        ({"protocols": [{"kind": "elastic", "yield_point": 6, "name": "a\ud800"}]},
         "protocol #0: name"),
        # a file system byte in the escape, but no UTF-8 text for compare.csv
        ({"protocols": [{"kind": "elastic", "yield_point": 6, "name": "a\udc80"},
                        {"kind": "elastic", "yield_point": 7}]},
         "protocol #0: name"),
        ({"knowledge_store": "s\ud800.json"}, "knowledge_store: "),
        ({"protocols": [{**CHANNEL_CONFIG["protocols"][2], "name": "\u00e9" * 124}]},
         "protocol #0.name: "),
        # 254 bytes, then the rename to <name>_1 makes 256
        ({"protocols": [{"kind": "elastic", "yield_point": 5 + i, "name": "\u00e9" * 122}
                        for i in range(2)]},
         "protocol #1.name: "),
    ], ids=["surrogate-name", "escaped-surrogate-name", "surrogate-store", "long-name",
            "long-renamed-name"])
    def test_name_the_file_system_cannot_take_exits_2(self, tmp_path, capsys,
                                                      change, key):
        """A protocol name or store path that cannot name a file is a config
        error found before any write, not a traceback or an I/O error after
        the store was saved."""
        store = tmp_path / "lessons.json"
        prior = b'{"entries": [{"signature": "calm", "algorithm": "repetition"}]}'
        store.write_bytes(prior)
        payload = {**CHANNEL_CONFIG, "knowledge_store": str(store), **change}
        if "knowledge_store" in change:
            payload["knowledge_store"] = os.path.join(tmp_path, change["knowledge_store"])
        config = write_json(tmp_path / "config.json", payload)
        out = tmp_path / "out"
        assert main(["channel", "-c", config, "-o", str(out)]) == 2
        message = capsys.readouterr().err
        assert message.startswith(f"config error: {key}")
        assert "Traceback" not in message
        assert not out.exists()
        assert sorted(os.listdir(tmp_path)) == ["config.json", "lessons.json"]
        assert store.read_bytes() == prior

    @pytest.mark.parametrize("name, prior", [
        # 250 bytes fit a file name, but not with the temp file's .<pid>.tmp
        ("s" * 250 + ".json", None),
        ("s" * 250 + ".json", b'{"entries": []}\n'),
        ("lessons" + os.sep, None),
    ], ids=["long-store", "long-store-existing", "trailing-separator"])
    def test_store_that_cannot_be_saved_exits_2(self, tmp_path, capsys, name, prior):
        """A learning run whose store, or the store's temp file, cannot name a
        file is a config error found before -o is created, not an I/O error
        after it."""
        store = os.path.join(tmp_path, name)
        if prior is not None:
            Path(store).write_bytes(prior)
        payload = {**CHANNEL_CONFIG, "knowledge_store": store,
                   "protocols": [CHANNEL_CONFIG["protocols"][2]]}
        config = write_json(tmp_path / "config.json", payload)
        out = tmp_path / "out"
        assert main(["channel", "-c", config, "-o", str(out)]) == 2
        message = capsys.readouterr().err
        assert message.startswith("config error: knowledge_store: ")
        assert "Traceback" not in message
        assert not out.exists()
        if prior is None:
            assert sorted(os.listdir(tmp_path)) == ["config.json"]
        else:
            assert Path(store).read_bytes() == prior

    def test_exit_code_does_not_depend_on_the_process_id(self, tmp_path, capsys,
                                                          monkeypatch):
        """A 244-byte store name fits a file name with a 4-digit process id in
        its temp name but not with a 7-digit one; the temp name has one
        length for every id, so the exit code is the same for both."""
        codes = []
        for pid in (4242, 4194303):
            monkeypatch.setattr(os, "getpid", lambda: pid)
            work = tmp_path / str(pid)
            work.mkdir()
            store = str(work / ("s" * 239 + ".json"))
            payload = {**CHANNEL_CONFIG, "knowledge_store": store,
                       "protocols": [CHANNEL_CONFIG["protocols"][2]]}
            config = write_json(work / "config.json", payload)
            codes.append(main(["channel", "-c", config, "-o", str(work / "out")]))
        assert codes == [2, 2], capsys.readouterr().err

    @pytest.mark.parametrize("store", ["nodir/x.json", "out/sub/x.json",
                                       "out/sub/../x.json"])
    def test_store_in_a_missing_directory_exits_2(self, tmp_path, capsys, monkeypatch,
                                                  store):
        """A learning run whose store's directory neither exists nor is -o
        is a config error found before -o is created, not an I/O error
        after it."""
        monkeypatch.chdir(tmp_path)
        payload = {**CHANNEL_CONFIG, "knowledge_store": store,
                   "protocols": [CHANNEL_CONFIG["protocols"][2]]}
        config = write_json(tmp_path / "config.json", payload)
        assert main(["channel", "-c", config, "-o", "out"]) == 2
        message = capsys.readouterr().err
        assert message.startswith("config error: knowledge_store: ")
        assert "Traceback" not in message
        assert sorted(os.listdir(tmp_path)) == ["config.json"]

    @pytest.mark.parametrize("protocol", [0, 2])
    @pytest.mark.parametrize("out", ["../fresh", "sub/../fresh", "fresh/new/.."])
    def test_default_store_in_a_new_out_through_dotdot(self, tmp_path, monkeypatch,
                                                       out, protocol):
        """The default store lies in -o, which the run makes however it is
        spelt; a learning run saves the store there and lists it."""
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        payload = {**CHANNEL_CONFIG, "protocols": [CHANNEL_CONFIG["protocols"][protocol]]}
        config = write_json(tmp_path / "config.json", payload)
        assert main(["channel", "-c", config, "-o", out]) == 0
        files = json.loads(Path(out, "manifest.json").read_text())["files"]
        assert ("knowledge_store.json" in files) == (protocol == 2)
        assert files == sorted(name for name in os.listdir(out)
                               if Path(out, name).is_file() and name != "manifest.json")

    def test_store_in_a_missing_directory_without_a_lesson_runs(
            self, tmp_path, monkeypatch):
        """A run that learns nothing saves no store, so the store's
        directory need not exist."""
        monkeypatch.chdir(tmp_path)
        payload = {**CHANNEL_CONFIG, "knowledge_store": "nodir/x.json",
                   "protocols": CHANNEL_CONFIG["protocols"][:2]}
        config = write_json(tmp_path / "config.json", payload)
        assert main(["channel", "-c", config, "-o", "out"]) == 0
        assert sorted(os.listdir(tmp_path)) == ["config.json", "out"]

    @pytest.mark.parametrize("store", [".", "lessons/.", "lessons/.."])
    def test_store_naming_a_directory_exits_2(self, tmp_path, capsys, monkeypatch,
                                              store):
        """A store that names a directory is a config error, not the I/O
        error of opening a directory as a file."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "lessons").mkdir()
        payload = {**CHANNEL_CONFIG, "knowledge_store": store}
        config = write_json(tmp_path / "config.json", payload)
        assert main(["channel", "-c", config, "-o", "out"]) == 2
        message = capsys.readouterr().err
        assert message.startswith("config error: knowledge_store: ")
        assert "Traceback" not in message
        assert sorted(os.listdir(tmp_path)) == ["config.json", "lessons"]
        assert not os.listdir(tmp_path / "lessons")

    def test_learning_run_reads_no_os_entropy(self, tmp_path, monkeypatch):
        def no_entropy(size):
            raise RuntimeError("os.urandom called")

        config = write_json(tmp_path / "config.json", CHANNEL_CONFIG)
        out = tmp_path / "out"
        monkeypatch.setattr(os, "urandom", no_entropy)
        assert main(["channel", "-c", config, "-o", str(out)]) == 0
        assert "bursty-high" in (out / "knowledge_store.json").read_text()

    def test_protocol_name_names_its_step_csv(self, tmp_path):
        payload = edited(WALK_CONFIG, ("protocols", 0, "name"), "tracker")
        config = write_json(tmp_path / "config.json", payload)
        out = tmp_path / "out"
        assert main(["channel", "-c", config, "-o", str(out)]) == 0
        assert (out / "tracker_steps.csv").exists()

    def test_renamed_protocol_may_not_take_a_used_name(self, tmp_path, capsys):
        # The third entry would be renamed a_2, which the first one holds.
        payload = edited(WALK_CONFIG, ("protocols",), [
            {"kind": "elastic", "yield_point": 5 + i, "name": name}
            for i, name in enumerate(("a_2", "a", "a"))
        ])
        config = write_json(tmp_path / "config.json", payload)
        out = tmp_path / "out"
        assert main(["channel", "-c", config, "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: protocol #2: ")
        assert not list(out.glob("*_steps.csv"))

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
        pytest.param('{"entries": [{"signature": "x", "algorithm": "i", "depth": 1'
                     + "0" * 5000 + "}]}", id="integer past the digit limit"),
        pytest.param('{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}",
                     id="nested too deep"),
    ])
    def test_corrupt_knowledge_store_exits_2_naming_it(self, tmp_path, capsys, content):
        store = tmp_path / "lessons.json"
        store.write_text(content)
        config = write_json(tmp_path / "config.json",
                            {**CHANNEL_CONFIG, "knowledge_store": str(store)})
        out = tmp_path / "out"
        assert main(["channel", "-c", config, "-o", str(out)]) == 2
        message = capsys.readouterr().err
        assert message.startswith("config error: ")
        assert str(store) in message
        assert store.read_text() == content
        assert not out.exists()


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

    @pytest.mark.parametrize("args", [[], ["--curve", "10"],
                                      ["--runs", "3", "--curve", "10"]])
    def test_out_of_memory_in_a_simulation_writes_nothing(self, tmp_path, capsys,
                                                          monkeypatch, args):
        """A simulation out of memory exits 4 before any file, the curve
        included, is written."""
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(sentinel, "simulate", out_of_memory)
        monkeypatch.setattr(sentinel, "survival_rate", out_of_memory)
        config = write_json(tmp_path / "config.json", SENTINEL_CONFIG)
        out = tmp_path / "out"
        assert main(["sentinel", "-c", config, "-o", str(out), *args]) == 4
        assert capsys.readouterr().err.startswith("internal error: out of memory")
        assert not out.exists()

    def test_invalid_scenario_exits_2(self, tmp_path):
        config = write_json(tmp_path / "config.json",
                            {"miner": {"figures": ["t", "gas_level"]}})
        assert main(["sentinel", "-c", config, "-o", str(tmp_path / "out")]) == 2

    def test_empty_figure_name_exits_2(self, tmp_path, capsys):
        # The calculus names no figure by the empty string.
        config = write_json(tmp_path / "config.json", {"miner": {"figures": [
            "", "gas_level", "humidity", "temperature"]}})
        out = tmp_path / "out"
        assert main(["sentinel", "-c", config, "-o", str(out)]) == 2
        assert "figure names must be non-empty strings" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, seed, args, message", [
        pytest.param("sentinel", [1], [], "seed must be an integer", id="args0"),
        pytest.param("sentinel", [1], ["--runs", "3"], "seed must be an integer",
                     id="args1"),
        # random.seed takes |seed|, so a negative seed would replay another.
        pytest.param("sentinel", -1, [], "seed must not be negative",
                     id="sentinel-negative-seed"),
        pytest.param("sentinel", -1, ["--runs", "3", "--seed", "2"],
                     "seed must not be negative", id="sentinel-runs-negative-seed"),
        pytest.param("sentinel", 5, ["--runs", "3", "--seed", "-1"],
                     "--seed must not be negative", id="sentinel-runs-negative-flag"),
        pytest.param("sentinel", 5, ["--seed", "-100"], "--seed must not be negative",
                     id="sentinel-negative-flag"),
        pytest.param("channel", [1], [], "seed must be an integer",
                     id="channel-wrong-typed-seed"),
        pytest.param("channel", -1, [], "seed must not be negative",
                     id="channel-negative-seed"),
        pytest.param("channel", 11, ["--seed", "-1"], "--seed must not be negative",
                     id="channel-negative-flag"),
    ])
    def test_wrong_typed_seed_exits_2(self, tmp_path, capsys, command, seed, args,
                                      message):
        base = CHANNEL_CONFIG if command == "channel" else SENTINEL_CONFIG
        config = write_json(tmp_path / "config.json", {**base, "seed": seed})
        out = tmp_path / "out"
        assert main([command, "-c", config, "-o", str(out), *args]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
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
        (("policy",), {"fit_threshold": 1e-20}, "policy: unknown key"),
        (("mine", "p_enter_ts"), [1], "mine.p_enter_ts"),
        (("mine", "figures"), "tgas", "mine.figures"),
        (("canary", "hazard_ts"), float("inf"), "canary.hazard_ts"),
        (("miners",), {"hazard_ts": 0.02}, "miners"),
        (("miner", "hazard"), 0.02, "miner.hazard"),
        (("mine", "figures"), ["t", ""], "mine.figures"),
        (("miner", "figures"), ["", "gas_level", "humidity", "temperature", "vibration"],
         "miner.figures"),
        (("canary", "figures"), ["t", "gas_level", ""], "canary.figures"),
    ])
    def test_malformed_value_exits_2_naming_key_path(self, tmp_path, capsys, path,
                                                     value, where):
        config = write_json(tmp_path / "config.json",
                            edited({**SENTINEL_CONFIG, "mine": {}, "miner": {},
                                    "canary": {}}, path, value))
        out = tmp_path / "out"
        assert main(["sentinel", "-c", config, "-o", str(out)]) == 2
        message = capsys.readouterr().err
        assert message.startswith(f"config error: {where}")
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

    def test_undersupplied_pair(self, tmp_path, capsys):
        small = {**MINER_DESCRIPTOR, "figures": {"named": ["a"]}}
        big = {**MINER_DESCRIPTOR, "figures": {"named": ["a", "b", "c"]}}
        a = write_json(tmp_path / "a.json", small)
        b = write_json(tmp_path / "b.json", big)
        assert main(["compare", a, b]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["supply"] < 0
        assert result["fit"] == "-inf"
        assert result["marker"] == ""

    @settings(max_examples=200, deadline=None)
    @given(a=st.sampled_from(COMPARE_DESCRIPTORS), b=st.sampled_from(COMPARE_DESCRIPTORS),
           variant=st.sampled_from(FIT_VARIANTS))
    def test_compare_matches_oracle(self, a, b, variant):
        assert_compare_matches_oracle(a, b, variant)

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

    def test_bare_plateau_is_not_a_fit_variant(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", MINER_DESCRIPTOR)
        assert main(["compare", a, a, "--fit-variant", "plateau"]) == 2
        assert "invalid fit variant: 'plateau'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["plateau: 2", "plateau:+2", "plateau:02",
                                      "plateau:1_0", "plateau:\u0662"])
    def test_fit_variant_off_its_label_spelling_exits_2(self, tmp_path, capsys, text):
        a = write_json(tmp_path / "a.json", MINER_DESCRIPTOR)
        assert main(["compare", a, a, "--fit-variant", text]) == 2
        assert f"invalid fit variant: {text!r}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("organs, data, key", [
        (False, {"class": "purposeful", "figures": {"named": ["a"]}, "socail": True},
         "socail"),
        (False, {"class": "purposeful", "figures": {"named": ["a"], "cardinalty": 1}},
         "cardinalty"),
        (True, {"monitor": MINER_DESCRIPTOR, "k_stateful": False}, "monitor"),
    ], ids=["descriptor", "figures", "organs"])
    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys, organs, data, key):
        a = write_json(tmp_path / "a.json", data)
        flags = ["--organs"] if organs else []
        assert main(["compare", a, a, *flags]) == 2
        message = capsys.readouterr().err
        assert message.startswith(f"config error: {a}: ")
        assert f"unknown key {key!r}" in message


# One config section per kind, with every key away from its default.
SECTIONS = [
    ("channel", {"kind": "constant", "y": 3}),
    ("channel", {"kind": "random_walk", "y0": 4, "step_prob": 0.35, "min": 2,
                 "max": 9}),
    ("channel", {"kind": "bursty", "p_enter": 0.2, "p_exit": 0.4, "y_calm": 2,
                 "y_burst": 7, "burst_correlated": False}),
    ("predictor", {"kind": "window_max", "window": 5}),
    ("predictor", {"kind": "ewma_slope", "alpha": 0.6, "horizon": 3}),
    ("identity_profile", {"kind": "teleconferencing", "jitter_bound": 0.25}),
    ("identity_profile", {"kind": "file_transfer"}),
]


# Each section's kinds: the members of its union in the channel module.
UNIONS = {"channel": channel.ChannelModel, "predictor": channel.Predictor,
          "identity_profile": channel.IdentityProfile}


def kinds_of(section):
    return {cls.kind: cls for cls in UNIONS[section].__args__}


def test_sections_cover_every_kind():
    assert sorted((section, config["kind"]) for section, config in SECTIONS) == \
        sorted((section, kind) for section in UNIONS for kind in kinds_of(section))


@pytest.mark.parametrize("section, config", SECTIONS)
def test_config_dict_writes_back_the_loaded_section(section, config):
    fixed = {"seed": 23} if section == "channel" else {}
    built = _build_kind(kinds_of(section), config, section, **fixed)
    for name, parameter in inspect.signature(type(built)).parameters.items():
        assert getattr(built, name) != parameter.default, name
    assert config_dict(built) == {**config, **fixed}


# Integers past sys.maxsize, each of which once ended in an OverflowError.
BIG = 10**400
OVERSIZED = {
    "elastic yield_point": ("channel", edited(
        WALK_CONFIG, ("protocols",), [{"kind": "elastic", "yield_point": BIG}]),
        [], "protocol #0.yield_point"),
    "ewma_slope horizon": ("channel", edited(
        WALK_CONFIG, ("protocols", 0, "predictor", "horizon"), BIG),
        [], "protocol #0.predictor.horizon"),
    "bursty y_burst": ("channel", edited(CHANNEL_CONFIG, ("channel", "y_burst"), BIG),
                       [], "channel.y_burst"),
    "window_max window": ("channel", edited(
        CHANNEL_CONFIG, ("protocols", 1, "predictor", "window"), BIG),
        [], "protocol #1.predictor.window"),
    "random_walk y0": ("channel", edited(
        edited(WALK_CONFIG, ("channel", "max"), BIG), ("channel", "y0"), BIG),
        [], "channel.y0"),
    "pool_size": ("sentinel", {**SENTINEL_CONFIG, "pool_size": BIG}, [], "pool_size"),
    "--curve": ("sentinel", SENTINEL_CONFIG, ["--curve", str(BIG)], "--curve"),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_integer_exits_2_naming_it(tmp_path, capsys, case):
    command, config, args, where = OVERSIZED[case]
    config = write_json(tmp_path / "config.json", config)
    out = tmp_path / "out"
    assert main([command, "-c", config, "-o", str(out), *args]) == 2
    message = capsys.readouterr().err
    assert message.startswith(f"config error: {where} ")
    assert "Traceback" not in message
    assert not out.exists()


def test_out_of_memory_exits_4_writing_nothing(tmp_path, capsys):
    """A step count within sys.maxsize but too large for memory. The constant
    channel's ``[y] * steps`` raises MemoryError at once, before allocating;
    other channel kinds would allocate step by step, so they are not tried."""
    config = write_json(tmp_path / "config.json", {
        "channel": {"kind": "constant", "y": 2}, "steps": 9223372036854775807,
        "seed": 0, "protocol": {"kind": "elastic", "yield_point": 3}})
    out = tmp_path / "out"
    assert main(["channel", "-c", config, "-o", str(out)]) == 4
    message = capsys.readouterr().err
    assert message.startswith("internal error: out of memory")
    assert "Traceback" not in message
    assert not out.exists()


@pytest.mark.parametrize("error", [TraceMismatch("runs were driven by different traces"),
                                   AssertionError("an invariant broke")],
                         ids=["TraceMismatch", "AssertionError"])
def test_internal_error_exits_4_writing_nothing(tmp_path, capsys, monkeypatch, error):
    def fail(model, steps):
        raise error

    monkeypatch.setattr(channel, "generate_trace", fail)
    config = write_json(tmp_path / "config.json", WALK_CONFIG)
    out = tmp_path / "out"
    assert main(["channel", "-c", config, "-o", str(out)]) == 4
    assert capsys.readouterr().err == f"internal error: {error}\n"
    assert not out.exists()


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


def test_one_predictor_pass_per_trace_and_parameters(tmp_path, monkeypatch):
    """The README config's entelechial and antifragile entries share one
    ``WindowMax`` pass; a different epsilon takes a second. Clearing the
    trace's yields before every run changes no output byte."""
    calls = []
    yields = WindowMax.yields

    def counted(self, ys):
        calls.append(len(ys))
        return yields(self, ys)

    monkeypatch.setattr(WindowMax, "yields", counted)
    config = readme_config("channel")
    del config["knowledge_store"]  # each run keeps its own, in its -o
    antifragile_1 = edited(config, ("protocols", 2, "epsilon"), 1.0)
    outputs = {}
    for name, payload in (("shared", config), ("epsilon 1.0", antifragile_1)):
        calls.clear()
        out = tmp_path / name
        assert main(["channel", "-c", write_json(tmp_path / "config.json", payload),
                     "-o", str(out)]) == 0
        outputs[name] = (len(calls), read_tree(out))
    assert outputs["shared"][0] == 1
    assert outputs["epsilon 1.0"][0] == 2

    entelechial = channel._entelechial

    def unshared(trace, predictor, epsilon):
        object.__setattr__(trace, "_yields", None)
        return entelechial(trace, predictor, epsilon)

    monkeypatch.setattr(channel, "_entelechial", unshared)
    for name, payload in (("shared", config), ("epsilon 1.0", antifragile_1)):
        calls.clear()
        out = tmp_path / f"{name}, unshared"
        assert main(["channel", "-c", write_json(tmp_path / "config.json", payload),
                     "-o", str(out)]) == 0
        assert (len(calls), read_tree(out)) == (2, outputs[name][1])


# A stored lesson depth past any machine integer, beside the two largest
# values a config may give.
HUGE_STORED_DEPTH = 10**400


@pytest.mark.parametrize("key", ["window", "half window", "interleave_depth",
                                 "stored depth"])
def test_huge_window_or_depth_costs_o_of_steps(tmp_path, key):
    """A window or interleaving depth far beyond the trace runs in time
    linear in the steps, not in the window or the depth; a window of half
    of 20 000 steps costs O(log window) per step."""
    config = edited(CHANNEL_CONFIG, ("steps",), 2_000)
    config["protocols"] = [config["protocols"][2]]
    depth = 4
    if key == "window":
        config = edited(config, ("protocols", 0, "predictor", "window"), sys.maxsize)
    elif key == "half window":
        config = edited(config, ("steps",), 20_000)
        config = edited(config, ("protocols", 0, "predictor", "window"), 10_000)
    elif key == "interleave_depth":
        config = edited(config, ("protocols", 0, "interleave_depth"), sys.maxsize)
        depth = sys.maxsize
    else:
        depth = HUGE_STORED_DEPTH
        config["knowledge_store"] = write_json(tmp_path / "lessons.json", {"entries": [
            {"signature": signature, "algorithm": "interleaved", "depth": depth}
            for signature in ("calm", "bursty-low", "bursty-high")]})
    out = tmp_path / "out"
    assert main(["channel", "-c", write_json(tmp_path / "config.json", config),
                 "-o", str(out)]) == 0
    aggregates = json.loads((out / "aggregates.json").read_text())
    [mutation] = aggregates["protocols"]["antifragile"]["mutations"]
    assert mutation["depth"] == depth


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
    "pool_size", "figures", "p_enter_ts", "p_exit_ts", "hazard_ts",
    "evacuation_threshold", "class", "social", "named", "cardinality",
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
        # A config error writes nothing, not even the output directory.
        assert code != 2 or not os.path.exists(os.path.join(work, "out"))
    assert code in (0, 2, 3), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()


MANIFEST_CASES = {
    "channel, default store in -o": ("channel", CHANNEL_CONFIG, []),
    "channel, store outside -o": ("channel", {**CHANNEL_CONFIG,
                                              "knowledge_store": "lessons.json"}, []),
    # in -o, though its name starts with ..
    "channel, store ..lessons.json in -o": (
        "channel", {**CHANNEL_CONFIG, "knowledge_store": "out/..lessons.json"}, []),
    "channel, one protocol": ("channel", WALK_CONFIG, []),
    "sentinel": ("sentinel", SENTINEL_CONFIG, []),
    "sentinel --curve": ("sentinel", SENTINEL_CONFIG, ["--curve", "10"]),
    "sentinel --runs --curve": ("sentinel", SENTINEL_CONFIG,
                                ["--runs", "3", "--curve", "10"]),
}


@pytest.mark.parametrize("case", list(MANIFEST_CASES))
def test_manifest_lists_every_file_written_in_out(tmp_path, monkeypatch, case):
    command, config, args = MANIFEST_CASES[case]
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "config.json", config)
    assert main([command, "-c", "config.json", "-o", "out", *args]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["files"] == sorted(set(os.listdir("out")) - {"manifest.json"})


@st.composite
def name_of_bytes(draw, low, high, suffix=""):
    """A name of mixed 1- to 4-byte UTF-8 characters whose UTF-8 form, with
    ``suffix``, is ``low`` to ``high`` bytes long."""
    size = draw(st.integers(low, high)) - len(suffix)
    name = "".join(draw(st.lists(st.sampled_from("a\u00e9\u20ac\U0001d11e"),
                                 max_size=size // 4)))
    return name + "a" * (size - len(name.encode())) + suffix


@settings(max_examples=100, deadline=None)
@given(name=name_of_bytes(236, 250), renamed=st.booleans(),
       store=st.none() | name_of_bytes(240, 260, ".json"), in_out=st.booleans())
def test_output_names_near_the_file_name_limit(name, renamed, store, in_out):
    """A step CSV or store name near 255 bytes either runs, with a manifest
    that lists every file in -o, or exits 2 leaving -o and the store alone."""
    protocols = [{**CHANNEL_CONFIG["protocols"][2], "name": name}]
    if renamed:  # the second entry is renamed <name>_1
        protocols.append({"kind": "elastic", "yield_point": 6, "name": name})
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "out")
        config = {**CHANNEL_CONFIG, "protocols": protocols}
        if store is not None:
            config["knowledge_store"] = os.path.join(out if in_out else work, store)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["channel", "-c", write_json(Path(work) / "config.json", config),
                         "-o", out])
        assert code in (0, 2), stderr.getvalue()
        if code == 2:
            assert stderr.getvalue().startswith("config error: ")
            assert sorted(os.listdir(work)) == ["config.json"]
        else:
            manifest = json.loads(Path(out, "manifest.json").read_text())
            assert manifest["files"] == sorted(set(os.listdir(out)) - {"manifest.json"})


# Runs cli.main(argv) in a fresh interpreter, then prints its exit code and
# the package modules that were loaded.
LOADED_MODULES = """
import json, sys
from resilsim import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "resilsim")]))
"""
STUDIES = {"resilsim.behavior", "resilsim.channel", "resilsim.fitness",
           "resilsim.organs", "resilsim.sentinel"}
SENTINEL_ARGS = ["sentinel", "-c", "sentinel.json", "-o", "out"]
# argv, modules that must be loaded, modules that must not be
IMPORT_CASES = {
    "--version": (["--version"], set(), STUDIES),
    "--help": (["--help"], set(), STUDIES),
    "sentinel": (SENTINEL_ARGS, {"resilsim.sentinel"},
                 {"resilsim.channel", "resilsim.organs", "resilsim.fitness"}),
    "sentinel --curve": ([*SENTINEL_ARGS, "--curve", "10"], {"resilsim.sentinel"},
                         {"resilsim.channel", "resilsim.organs", "resilsim.fitness"}),
    "sentinel --runs": ([*SENTINEL_ARGS, "--runs", "3"], {"resilsim.sentinel"},
                        {"resilsim.channel", "resilsim.organs", "resilsim.fitness"}),
    # WALK_CONFIG runs no antifragile protocol, the only one that needs organs.
    "channel": (["channel", "-c", "channel.json", "-o", "out"], {"resilsim.channel"},
                {"resilsim.sentinel", "resilsim.organs"}),
    "compare": (["compare", "miner.json", "mine.json"], {"resilsim.fitness"},
                {"resilsim.channel", "resilsim.sentinel"}),
}


@pytest.mark.parametrize("case", list(IMPORT_CASES))
def test_each_command_loads_only_the_modules_it_runs(tmp_path, case):
    """``--version`` and ``--help`` load no study module, ``sentinel`` never
    loads the channel study or ``fitness``, and ``channel`` never the
    sentinel study, nor ``organs`` without an antifragile protocol."""
    argv, loaded, absent = IMPORT_CASES[case]
    write_json(tmp_path / "sentinel.json", SENTINEL_CONFIG)
    write_json(tmp_path / "channel.json", WALK_CONFIG)
    write_json(tmp_path / "miner.json", MINER_DESCRIPTOR)
    write_json(tmp_path / "mine.json", MINE_DESCRIPTOR)
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv],
                            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, check=True)
    code, modules = json.loads(result.stdout.splitlines()[-1])
    assert code == 0, result.stderr
    assert {"resilsim", "resilsim.cli", "resilsim.errors", *loaded} <= set(modules)
    assert not absent & set(modules)
