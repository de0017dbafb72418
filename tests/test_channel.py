import csv
import itertools
import json

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
    choose_yield,
    compare_runs,
    generate_trace,
    run_antifragile,
    run_elastic,
    run_entelechial,
    step_csv_rows,
)
from resilsim.errors import (
    InvalidBounds,
    NoObservations,
    StoreCorrupt,
    TraceMismatch,
)

BURSTY = BurstyChannel(p_enter=0.05, p_exit=0.3, y_calm=1, y_burst=5, seed=3)


def csv_rows(run):
    """The run's step CSV lines, parsed back into cell tuples."""
    return [tuple(row) for row in csv.reader(step_csv_rows(run))]


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
        assert trace.regimes == ("burst",) * 4

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
        with pytest.raises(InvalidBounds):
            bad()

    def test_rejects_zero_steps(self):
        with pytest.raises(InvalidBounds):
            generate_trace(ConstantChannel(1), 0)

    def test_regime_segments(self):
        trace = ChannelTrace(y=(1, 1, 5, 5, 1), regimes=("calm",) * 2 + ("burst",) * 2 + ("calm",))
        assert trace.regime_segments() == [
            ("calm", 0, 2), ("burst", 2, 4), ("calm", 4, 5),
        ]


class _FixedPredictor:
    def __init__(self, value):
        self.value = value

    def predict(self):
        return self.value

    def config_dict(self):
        return {"kind": "fixed", "value": self.value}


class TestChooseYield:
    def test_within_margin(self):
        assert choose_yield(_FixedPredictor(3.2), 1.0) == (4, False)

    def test_tight_margin_warns(self):
        assert choose_yield(_FixedPredictor(3.9), 0.05) == (4, True)

    def test_integer_prediction_forces_next_integer(self):
        assert choose_yield(_FixedPredictor(3.0), 0.5) == (4, True)

    def test_no_observations(self):
        with pytest.raises(NoObservations):
            choose_yield(WindowMax(4), 1.0)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            choose_yield(_FixedPredictor(2.0), 0.0)


class TestPredictors:
    def test_window_max_tracks_recent_maximum(self):
        predictor = WindowMax(3)
        for y in (1, 5, 2, 2, 2):
            predictor.observe(y)
        assert predictor.predict() == 2.0  # the 5 fell out of the window

    def test_window_max_at_least_latest(self):
        predictor = WindowMax(8)
        for y in (1, 2, 6, 3):
            predictor.observe(y)
        assert predictor.predict() >= 6.0

    def test_ewma_constant_series(self):
        predictor = EwmaPlusSlope(alpha=0.5, horizon=2)
        for _ in range(20):
            predictor.observe(4)
        assert predictor.predict() == pytest.approx(4.0)

    def test_ewma_extrapolates_trend(self):
        # On a steady ramp the slope term compensates the level's lag; a
        # longer horizon extrapolates past the last observation.
        near = EwmaPlusSlope(alpha=0.5, horizon=1)
        far = EwmaPlusSlope(alpha=0.5, horizon=3)
        for y in range(1, 11):
            near.observe(y)
            far.observe(y)
        assert near.predict() >= 10.0
        assert far.predict() > 10.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WindowMax(0)
        with pytest.raises(ValueError):
            EwmaPlusSlope(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaPlusSlope(alpha=0.5, horizon=0)


class TestRunElastic:
    def test_constant_case(self):
        run = run_elastic([2, 2, 2], 3)
        assert run.undershoot_count == 0
        assert run.cumulative_overshoot == 3
        assert run.total_cost == 9
        assert run.delivered_fraction == 1.0

    def test_spike_undershoots(self):
        run = run_elastic([2, 5, 2], 3)
        assert run.undershoot_count == 1
        assert run.y[1] > run.yields[1]  # undershoot
        assert run.delivered_at[1] is None
        assert csv_rows(run)[1][3:5] == ("false", "undershoot")

    def test_above_supremum_never_undershoots(self):
        trace = generate_trace(BURSTY, 300)
        run = run_elastic(trace, max(trace.y) + 1)
        assert run.undershoot_count == 0
        assert run.delivered_fraction == 1.0
        assert run.cumulative_overshoot == sum(max(trace.y) + 1 - y for y in trace.y)

    def test_yield_constant_across_run(self):
        run = run_elastic([1, 2, 3], 4)
        assert set(run.yields) == {4}
        assert run.cost == run.yields


class TestRunEntelechial:
    def test_constant_trace_tracks_one_above(self):
        run = run_entelechial(generate_trace(ConstantChannel(2), 6), WindowMax(4), 1.5)
        assert list(run.yields) == [3] * 6
        assert [Y - y for y, Y in zip(run.y, run.yields)] == [1] * 6  # overshoot 1
        assert [row[4:6] for row in csv_rows(run)] == [("overshoot", "1")] * 6
        assert run.cumulative_overshoot == 6  # one per step, bootstrap included

    def test_lagging_window_fails_on_rising_steps(self):
        run = run_entelechial([1, 2, 3, 4], WindowMax(1), 2.0)
        assert list(run.yields) == [2, 2, 3, 4]
        # The yield lags one step behind the demand: after the bootstrap
        # step, the chosen yield exactly meets the new demand and strict
        # delivery fails.
        assert list(run.delivered_at) == [0, None, None, None]
        assert list(run.yields[1:]) == list(run.y[1:])  # exact
        assert [row[4:6] for row in csv_rows(run)[1:]] == [("exact", "0")] * 3

    def test_bootstrap_uses_first_sample(self):
        run = run_entelechial([4, 1, 1], WindowMax(8), 1.5)
        assert run.yields[0] == 5
        assert run.header["bootstrap_yield"] == 5
        assert run.prediction[0] == 4.0

    def test_margin_compliance_flags(self):
        run = run_entelechial([2] * 10, WindowMax(4), 0.5)
        # Integer demand makes the gap exactly 1.0 >= 0.5 at every step.
        assert len(run.margin_warning) == 10 and all(run.margin_warning)


def antifragile_config(**overrides):
    defaults = dict(predictor=WindowMax(8), epsilon=1.5)
    defaults.update(overrides)
    return AntifragileEvolving(**defaults)


class TestRunAntifragile:
    def test_calm_channel_never_mutates(self):
        trace = generate_trace(ConstantChannel(2, seed=9), 300)
        antifragile, _ = run_antifragile(trace, antifragile_config(), KnowledgeStore())
        entelechial = run_entelechial(trace, WindowMax(8), 1.5)
        assert antifragile.mutations == []
        assert list(antifragile.algorithm) == ["repetition"] * 300
        for column in ("y", "yields", "delivered_at", "cost"):
            assert list(getattr(antifragile, column)) == \
                list(getattr(entelechial, column)), column

    def test_bursty_channel_mutates_and_learns(self):
        trace = generate_trace(BURSTY, 1000)
        store = KnowledgeStore()
        run, store = run_antifragile(trace, antifragile_config(), store)
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
        antifragile, _ = run_antifragile(trace, antifragile_config(), KnowledgeStore())
        assert antifragile.delivered_fraction >= entelechial.delivered_fraction
        assert antifragile.total_cost <= entelechial.total_cost

    def test_teleconferencing_profile_violated_by_jitter(self):
        trace = generate_trace(BURSTY, 1000)
        config = antifragile_config(identity_profile=Teleconferencing(jitter_bound=0.5))
        run, _ = run_antifragile(trace, config, KnowledgeStore())
        assert run.mutations
        assert run.jitter > 0.5
        assert run.identity_violations > 0

    def test_stored_lesson_is_adopted(self):
        trace = generate_trace(BURSTY, 1000)
        store = KnowledgeStore(entries=[{
            "signature": "bursty-high", "algorithm": "interleaved",
            "depth": 6, "epoch_learned": 1,
        }])
        run, store = run_antifragile(trace, antifragile_config(), store)
        assert run.mutations[0]["depth"] == 6
        assert store.get("bursty-high")["depth"] == 6

    def test_stored_lesson_can_veto_mutation(self):
        trace = generate_trace(BURSTY, 1000)
        store = KnowledgeStore(entries=[{
            "signature": "bursty-high", "algorithm": "repetition",
        }])
        run, _ = run_antifragile(trace, antifragile_config(), store)
        assert run.mutations == []
        assert len(run.algorithm) == 1000
        assert all(a == "repetition" for a in run.algorithm)

    def test_uncorrelated_bursts_defeat_interleaving(self):
        model = BurstyChannel(p_enter=0.05, p_exit=0.3, y_calm=1, y_burst=5,
                              burst_correlated=False, seed=3)
        trace = generate_trace(model, 2000)
        entelechial = run_entelechial(trace, WindowMax(8), 1.5)
        antifragile, _ = run_antifragile(trace, antifragile_config(), KnowledgeStore())
        # Spreading copies buys nothing without burst correlation.
        assert antifragile.delivered_fraction == entelechial.delivered_fraction

    def test_serialization_deterministic(self):
        trace = generate_trace(BURSTY, 500)
        first, _ = run_antifragile(trace, antifragile_config(), KnowledgeStore())
        second, _ = run_antifragile(trace, antifragile_config(), KnowledgeStore())
        assert first.y is second.y is trace.y
        for column in ("yields", "cost", "delivered_at", "algorithm", "prediction",
                       "margin_warning"):
            assert list(getattr(first, column)) == list(getattr(second, column)), column
            assert len(getattr(first, column)) == 500
        for part in ("header", "mutations"):
            assert json.dumps(getattr(first, part), sort_keys=True) == \
                json.dumps(getattr(second, part), sort_keys=True)
        assert json.dumps(first.aggregates(), sort_keys=True) == \
            json.dumps(second.aggregates(), sort_keys=True)
        assert list(step_csv_rows(first)) == list(step_csv_rows(second))

    def test_csv_rows_shape(self):
        trace = generate_trace(BURSTY, 120)
        run, _ = run_antifragile(trace, antifragile_config(), KnowledgeStore())
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
        run = run_elastic([2, 2], 3)
        rows = compare_runs({"elastic": run})
        assert len(rows) == 1
        assert rows[0]["protocol"] == "elastic"
        assert rows[0]["total_cost"] == 6

    def test_trace_mismatch(self):
        with pytest.raises(TraceMismatch):
            compare_runs({
                "a": run_elastic([2, 2], 3),
                "b": run_elastic([2, 3], 3),
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
        store = KnowledgeStore(path=str(path))
        store.put({"signature": "bursty-high", "algorithm": "interleaved",
                   "depth": 4, "epoch_learned": 2})
        first = path.read_bytes()
        reloaded = KnowledgeStore.load(str(path))
        reloaded.save()
        assert path.read_bytes() == first

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
        assert store.signatures() == ["a", "b"]
        assert store.get("a")["depth"] == 5

    def test_run_persists_through_file(self, tmp_path):
        path = tmp_path / "lessons.json"
        trace = generate_trace(BURSTY, 1000)
        run, _ = run_antifragile(trace, antifragile_config(),
                                 KnowledgeStore.load(str(path)))
        assert run.mutations
        assert path.exists()
        reloaded = KnowledgeStore.load(str(path))
        assert reloaded.get("bursty-high")["algorithm"] == "interleaved"


def test_exhaustive_shannon_spot_check():
    # Small exhaustive slice; the full sweep lives in the acceptance suite.
    for ys in itertools.product(range(1, 4), repeat=4):
        run = run_elastic(list(ys), max(ys) + 1)
        assert run.undershoot_count == 0
        assert run.cumulative_overshoot == sum(max(ys) + 1 - y for y in ys)
