import csv
import dataclasses
import itertools
import json
import os
import stat
from pathlib import Path

import pytest

from resilsim.channel import (
    AntifragileEvolving,
    BurstyChannel,
    ChannelTrace,
    ConstantChannel,
    EwmaPlusSlope,
    KnowledgeStore,
    RandomWalkChannel,
    Teleconferencing,
    WindowMax,
    burstiness,
    compare_runs,
    generate_trace,
    run_antifragile,
    run_elastic,
    run_entelechial,
    step_csv_rows,
)
from resilsim.errors import StoreCorrupt, TraceMismatch

from oracles import csv_lines, predict_yields

BURSTY = BurstyChannel(p_enter=0.05, p_exit=0.3, y_calm=1, y_burst=5, seed=3)


def csv_rows(run):
    """The run's step CSV lines, parsed back into cell tuples."""
    return [tuple(row) for row in csv.reader(csv_lines(step_csv_rows(run)))]


class TestGenerateTrace:
    def test_constant(self):
        assert generate_trace(ConstantChannel(3), 5).y == (3, 3, 3, 3, 3)

    def test_zero_probability_walk(self):
        trace = generate_trace(
            RandomWalkChannel(y0=2, step_prob=0.0, y_min=1, y_max=6), 10
        )
        assert trace.y == (2,) * 10

    def test_forced_burst_entry(self):
        trace = generate_trace(
            BurstyChannel(p_enter=1.0, p_exit=0.0, y_calm=1, y_burst=5), 4
        )
        assert trace.y == (5, 5, 5, 5)

    def test_walk_stays_in_bounds(self):
        model = RandomWalkChannel(y0=3, step_prob=0.9, y_min=1, y_max=6, seed=42)
        trace = generate_trace(model, 2000)
        assert all(1 <= y <= 6 for y in trace.y)

    def test_deterministic_per_seed(self):
        a = generate_trace(BURSTY, 500)
        b = generate_trace(BURSTY, 500)
        assert a == b
        other = generate_trace(
            BurstyChannel(p_enter=0.05, p_exit=0.3, y_calm=1, y_burst=5, seed=4), 500
        )
        assert other.y != a.y

    @pytest.mark.parametrize("bad", [
        lambda: ConstantChannel(0),
        lambda: RandomWalkChannel(y0=3, step_prob=0.2, y_min=4, y_max=2),
        lambda: RandomWalkChannel(y0=9, step_prob=0.2, y_min=1, y_max=6),
        lambda: RandomWalkChannel(y0=3, step_prob=1.5, y_min=1, y_max=6),
        lambda: BurstyChannel(p_enter=-0.1, p_exit=0.3, y_calm=1, y_burst=5),
        lambda: BurstyChannel(p_enter=0.1, p_exit=0.3, y_calm=5, y_burst=1),
    ])
    def test_invalid_bounds(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            generate_trace(ConstantChannel(1), 0)


class TestYieldRule:
    """The entelechial yield rule: Y is the smallest integer strictly above
    the prediction, so Y - prediction >= epsilon where the margin is tight."""

    # EwmaPlusSlope() predicts 3.6 for the step after 3 and 4.
    RAMP = ChannelTrace((3, 4, 1))

    def test_within_margin(self):
        run = run_entelechial(self.RAMP, EwmaPlusSlope(), 1.0)
        prediction = predict_yields(run.y, EwmaPlusSlope(), 1.0)[1][2]
        assert prediction == pytest.approx(3.6)
        assert run.yields[2] == 4
        assert 0 < run.yields[2] - prediction < 1.0

    def test_tight_margin_keeps_epsilon(self):
        run = run_entelechial(self.RAMP, EwmaPlusSlope(), 0.05)
        assert run.yields[2] == 4
        assert run.yields[2] - predict_yields(run.y, EwmaPlusSlope(), 0.05)[1][2] >= 0.05

    def test_integer_prediction_forces_next_integer(self):
        run = run_entelechial(ChannelTrace((3, 3, 3)), WindowMax(4), 0.5)
        assert predict_yields(run.y, WindowMax(4), 0.5)[1] == [3, 3, 3]
        assert run.yields == WindowMax(4).yields(run.y) == (4, 4, 4)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            run_entelechial(ChannelTrace((2,)), WindowMax(4), 0.0)


class TestPredictors:
    def test_window_max_tracks_recent_maximum(self):
        # the yield after 1, 5, 2, 2, 2: the 5 fell out of the window
        assert WindowMax(3).yields((1, 5, 2, 2, 2, 1))[-1] == 3

    def test_window_max_at_least_latest(self):
        assert WindowMax(8).yields((1, 2, 6, 3, 1))[-1] >= 7

    def test_ewma_constant_series(self):
        # the prediction is 4.0 exactly, so the yield is the next integer
        assert EwmaPlusSlope(alpha=0.5, horizon=2).yields((4,) * 21)[-1] == 5

    def test_ewma_extrapolates_trend(self):
        # On a steady ramp the slope term compensates the level's lag (a
        # prediction of at least 10, a yield of at least 11); a longer
        # horizon extrapolates past the last observation, 10, to 11 or more.
        ramp = tuple(range(1, 12))
        assert EwmaPlusSlope(alpha=0.5, horizon=1).yields(ramp)[-1] >= 11
        assert EwmaPlusSlope(alpha=0.5, horizon=3).yields(ramp)[-1] >= 12

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WindowMax(0)
        with pytest.raises(ValueError):
            EwmaPlusSlope(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaPlusSlope(alpha=0.5, horizon=0)

    def test_predictors_are_frozen_values(self):
        assert {WindowMax(8), WindowMax(), EwmaPlusSlope(0.3, 1), EwmaPlusSlope()} == \
            {WindowMax(8), EwmaPlusSlope()}
        assert WindowMax(8) != WindowMax(7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            WindowMax(8).window = 4


class TestRunElastic:
    def test_constant_case(self):
        run = run_elastic(ChannelTrace((2, 2, 2)), 3)
        assert run.undershoot_count == 0
        assert run.cumulative_overshoot == 3
        assert run.total_cost == 9
        assert run.delivered_fraction == 1.0

    def test_spike_undershoots(self):
        run = run_elastic(ChannelTrace((2, 5, 2)), 3)
        assert run.undershoot_count == 1
        assert run.y[1] > run.yields[1]  # undershoot
        assert run.delivered[1] == 0
        assert csv_rows(run)[1][3:5] == ("false", "undershoot")

    def test_above_supremum_never_undershoots(self):
        trace = generate_trace(BURSTY, 300)
        run = run_elastic(trace, max(trace.y) + 1)
        assert run.undershoot_count == 0
        assert run.delivered_fraction == 1.0
        assert run.cumulative_overshoot == sum(max(trace.y) + 1 - y for y in trace.y)

    def test_yield_constant_across_run(self):
        run = run_elastic(ChannelTrace((1, 2, 3)), 4)
        assert set(run.yields) == {4}
        assert list(run.costs()) == list(run.yields)


class TestRunEntelechial:
    def test_constant_trace_tracks_one_above(self):
        run = run_entelechial(generate_trace(ConstantChannel(2), 6), WindowMax(4), 1.5)
        assert list(run.yields) == [3] * 6
        assert [Y - y for y, Y in zip(run.y, run.yields)] == [1] * 6  # overshoot 1
        assert [row[4:6] for row in csv_rows(run)] == [("overshoot", "1")] * 6
        assert run.cumulative_overshoot == 6  # one per step, bootstrap included

    def test_lagging_window_fails_on_rising_steps(self):
        run = run_entelechial(ChannelTrace((1, 2, 3, 4)), WindowMax(1), 2.0)
        assert list(run.yields) == [2, 2, 3, 4]
        # The yield lags one step behind the demand: after the bootstrap
        # step, the chosen yield exactly meets the new demand and strict
        # delivery fails.
        assert list(run.delivered) == [1, 0, 0, 0]
        assert list(run.yields[1:]) == list(run.y[1:])  # exact
        assert [row[4:6] for row in csv_rows(run)[1:]] == [("exact", "0")] * 3

    def test_bootstrap_uses_first_sample(self):
        run = run_entelechial(ChannelTrace((4, 1, 1)), WindowMax(8), 1.5)
        assert run.yields[0] == 5
        assert run.header["bootstrap_yield"] == 5
        assert predict_yields(run.y, WindowMax(8), 1.5)[1][0] == 4

    def test_integer_demand_gives_a_gap_of_one(self):
        run = run_entelechial(ChannelTrace((2,) * 10), WindowMax(4), 0.5)
        # Integer demand makes the gap exactly 1 >= 0.5 at every step.
        _, predictions, _ = predict_yields(run.y, WindowMax(4), 0.5)
        assert [Y - p for Y, p in zip(run.yields, predictions)] == [1] * 10


def antifragile_config(**overrides):
    defaults = dict(predictor=WindowMax(8), epsilon=1.5)
    defaults.update(overrides)
    return AntifragileEvolving(**defaults)


class TestRunAntifragile:
    def test_calm_channel_never_mutates(self):
        trace = generate_trace(ConstantChannel(2, seed=9), 300)
        antifragile = run_antifragile(trace, antifragile_config(), KnowledgeStore())
        entelechial = run_entelechial(trace, WindowMax(8), 1.5)
        assert antifragile.mutations == []
        assert [row[7] for row in csv_rows(antifragile)] == ["repetition"] * 300
        for column in ("y", "yields", "delivered"):
            assert list(getattr(antifragile, column)) == \
                list(getattr(entelechial, column)), column
        for derived in ("arrivals", "costs"):
            assert list(getattr(antifragile, derived)()) == \
                list(getattr(entelechial, derived)()), derived

    def test_bursty_channel_mutates_and_learns(self):
        trace = generate_trace(BURSTY, 1000)
        store = KnowledgeStore()
        run = run_antifragile(trace, antifragile_config(), store)
        assert len(run.mutations) == 1
        mutation = run.mutations[0]
        assert mutation["algorithm"] == "interleaved"
        assert mutation["step"] % 50 == 0
        assert mutation["feedback"] == "genotypical"
        assert store.get(mutation["signature"]) is not None
        assert run.identity_violations == 0  # FileTransfer profile

    def test_mutation_improves_delivery_at_lower_cost(self):
        trace = generate_trace(BURSTY, 2000)
        entelechial = run_entelechial(trace, WindowMax(8), 1.5)
        antifragile = run_antifragile(trace, antifragile_config(), KnowledgeStore())
        assert antifragile.delivered_fraction >= entelechial.delivered_fraction
        assert antifragile.total_cost <= entelechial.total_cost

    def test_teleconferencing_profile_violated_by_jitter(self):
        trace = generate_trace(BURSTY, 1000)
        config = antifragile_config(identity_profile=Teleconferencing(jitter_bound=0.5))
        run = run_antifragile(trace, config, KnowledgeStore())
        assert run.mutations
        assert run.jitter > 0.5
        assert run.identity_violations > 0

    def test_stored_lesson_is_adopted(self):
        trace = generate_trace(BURSTY, 1000)
        store = KnowledgeStore(entries=[{
            "signature": "bursty-high", "algorithm": "interleaved",
            "depth": 6, "epoch_learned": 1,
        }])
        run = run_antifragile(trace, antifragile_config(), store)
        assert run.mutations[0]["depth"] == 6
        assert store.get("bursty-high")["depth"] == 6

    def test_stored_lesson_can_veto_mutation(self):
        trace = generate_trace(BURSTY, 1000)
        store = KnowledgeStore(entries=[{
            "signature": "bursty-high", "algorithm": "repetition",
        }])
        run = run_antifragile(trace, antifragile_config(), store)
        assert run.mutations == []
        assert [row[7] for row in csv_rows(run)] == ["repetition"] * 1000

    def test_uncorrelated_bursts_defeat_interleaving(self):
        model = BurstyChannel(p_enter=0.05, p_exit=0.3, y_calm=1, y_burst=5,
                              burst_correlated=False, seed=3)
        trace = generate_trace(model, 2000)
        entelechial = run_entelechial(trace, WindowMax(8), 1.5)
        antifragile = run_antifragile(trace, antifragile_config(), KnowledgeStore())
        # Spreading copies buys nothing without burst correlation.
        assert antifragile.delivered_fraction == entelechial.delivered_fraction

    def test_serialization_deterministic(self):
        trace = generate_trace(BURSTY, 500)
        first = run_antifragile(trace, antifragile_config(), KnowledgeStore())
        second = run_antifragile(trace, antifragile_config(), KnowledgeStore())
        assert first.y is second.y is trace.y
        for column in ("yields", "delivered"):
            assert list(getattr(first, column)) == list(getattr(second, column)), column
            assert len(getattr(first, column)) == 500
        for derived in ("costs", "arrivals"):
            assert list(getattr(first, derived)()) == list(getattr(second, derived)())
            assert len(list(getattr(first, derived)())) == 500
        assert first._segments() == second._segments()
        for part in ("header", "mutations"):
            assert json.dumps(getattr(first, part), sort_keys=True) == \
                json.dumps(getattr(second, part), sort_keys=True)
        assert json.dumps(first.aggregates(), sort_keys=True) == \
            json.dumps(second.aggregates(), sort_keys=True)
        assert list(csv_lines(step_csv_rows(first))) == \
            list(csv_lines(step_csv_rows(second)))

    def test_csv_rows_shape(self):
        trace = generate_trace(BURSTY, 120)
        run = run_antifragile(trace, antifragile_config(), KnowledgeStore())
        rows = csv_rows(run)
        assert len(rows) == 120
        assert rows[0][0] == "0"
        assert rows[-1][7] in ("repetition", "interleaved")


class TestBurstiness:
    def test_no_elevated_steps(self):
        assert burstiness([2, 2, 2, 2], range(4), 2) == 0.0

    def test_isolated_spikes(self):
        assert burstiness([1, 5, 1, 5, 1], range(5), 1) == 0.0

    def test_streaked_spikes(self):
        assert burstiness([1, 5, 5, 5, 1, 5], range(6), 1) == 0.75

    def test_all_elevated(self):
        assert burstiness([5, 5, 5, 5], range(4), 1) == 1.0


class TestCompareRuns:
    def test_single_run_table(self):
        run = run_elastic(ChannelTrace((2, 2)), 3)
        rows = compare_runs({"elastic": run})
        assert len(rows) == 1
        assert rows[0]["protocol"] == "elastic"
        assert rows[0]["total_cost"] == 6

    def test_trace_mismatch(self):
        with pytest.raises(TraceMismatch):
            compare_runs({
                "a": run_elastic(ChannelTrace((2, 2)), 3),
                "b": run_elastic(ChannelTrace((2, 3)), 3),
            })

    def test_rows_sorted_by_protocol(self):
        trace = generate_trace(ConstantChannel(2), 50)
        rows = compare_runs({
            "entelechial": run_entelechial(trace, WindowMax(8), 1.5),
            "elastic": run_elastic(trace, 3),
        })
        assert [row["protocol"] for row in rows] == ["elastic", "entelechial"]


class TestKnowledgeStore:
    def test_missing_file_loads_empty(self, tmp_path):
        store = KnowledgeStore.load(str(tmp_path / "absent.json"))
        assert len(store) == 0

    def test_round_trip_byte_identical(self, tmp_path):
        path = tmp_path / "store.json"
        store = KnowledgeStore()
        store.put({"signature": "bursty-high", "algorithm": "interleaved",
                   "depth": 4, "epoch_learned": 2})
        store.save(str(path))
        first = path.read_bytes()
        reloaded = KnowledgeStore.load(str(path))
        reloaded.save(str(path))
        assert path.read_bytes() == first
        assert [p.name for p in tmp_path.iterdir()] == ["store.json"]  # no temp left

    @pytest.mark.parametrize("existing_mode", [None, 0o640])
    def test_save_gives_the_mode_of_a_plain_write(self, tmp_path, existing_mode):
        path, sibling = tmp_path / "store.json", tmp_path / "sibling.json"
        if existing_mode is not None:
            for target in (path, sibling):
                target.write_text("{}")
                target.chmod(existing_mode)
        store = KnowledgeStore([{"signature": "a", "algorithm": "interleaved"}])
        umask = os.umask(0o022)
        try:
            store.save(str(path))
            with open(sibling, "w", encoding="utf-8") as handle:
                handle.write("{}")
        finally:
            os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(sibling.stat().st_mode)
        assert stat.S_IMODE(path.stat().st_mode) == (existing_mode or 0o644)

    def test_save_replaces_a_leftover_temp_file(self, tmp_path):
        path = tmp_path / "store.json"
        leftover = Path(KnowledgeStore.temp_path(str(path)))
        leftover.write_text("junk")
        leftover.chmod(0o600)
        store = KnowledgeStore([{"signature": "a", "algorithm": "interleaved"}])
        umask = os.umask(0o022)
        try:
            store.save(str(path))
        finally:
            os.umask(umask)
        assert KnowledgeStore.load(str(path)).to_dict() == store.to_dict()
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
        assert [p.name for p in tmp_path.iterdir()] == ["store.json"]

    def test_failed_save_removes_its_temp_file_and_keeps_the_store(self, tmp_path,
                                                                   monkeypatch):
        path = tmp_path / "store.json"
        KnowledgeStore([{"signature": "a", "algorithm": "interleaved"}]).save(str(path))
        old = path.read_bytes()
        written = []

        def fail(source, target):
            written.append(Path(source).read_text())
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        store = KnowledgeStore([{"signature": "b", "algorithm": "interleaved"}])
        with pytest.raises(OSError, match="rename failed"):
            store.save(str(path))
        assert '"b"' in written[0]  # the temp file was written, then removed
        assert [p.name for p in tmp_path.iterdir()] == ["store.json"]
        assert path.read_bytes() == old

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text("{nope")
        with pytest.raises(StoreCorrupt):
            KnowledgeStore.load(str(path))
        path.write_text('{"entries": 4}')
        with pytest.raises(StoreCorrupt):
            KnowledgeStore.load(str(path))
        path.write_text('{"entries": [{"depth": 4}]}')
        with pytest.raises(StoreCorrupt):
            KnowledgeStore.load(str(path))

    def test_monotone_growth(self):
        store = KnowledgeStore()
        store.put({"signature": "a", "algorithm": "interleaved", "depth": 2})
        store.put({"signature": "b", "algorithm": "interleaved", "depth": 3})
        store.put({"signature": "a", "algorithm": "interleaved", "depth": 5})
        assert [e["signature"] for e in store.to_dict()["entries"]] == ["a", "b"]
        assert store.get("a")["depth"] == 5

    def test_run_persists_through_file(self, tmp_path):
        path = tmp_path / "lessons.json"
        trace = generate_trace(BURSTY, 1000)
        store = KnowledgeStore.load(str(path))
        run = run_antifragile(trace, antifragile_config(), store)
        assert run.mutations
        assert list(tmp_path.iterdir()) == []  # the run itself writes no file
        store.save(str(path))
        reloaded = KnowledgeStore.load(str(path))
        assert reloaded.get("bursty-high")["algorithm"] == "interleaved"


def test_exhaustive_shannon_spot_check():
    # Small exhaustive slice; the full sweep lives in the acceptance suite.
    for ys in itertools.product(range(1, 4), repeat=4):
        run = run_elastic(ChannelTrace(ys), max(ys) + 1)
        assert run.undershoot_count == 0
        assert run.cumulative_overshoot == sum(max(ys) + 1 - y for y in ys)
