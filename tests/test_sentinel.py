import csv
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resilsim.behavior import commensurable, precedes
from resilsim.errors import EmptyPool
from resilsim.sentinel import (
    FLOAT_MIN,
    Canary,
    CanaryPool,
    CoalMine,
    EvacuationPolicy,
    Miner,
    Scenario,
    curve_csv_rows,
    detect_need_for_social,
    estimate_fit,
    estimate_supply,
    fit_of_supply,
    scenario_csv_rows,
    simulate,
    supply_fit_curve,
    survival_rate,
)

from oracles import csv_lines


def pool_with_failures(size, failed):
    pool = CanaryPool(size)
    pool.alive_count -= failed
    assert (pool.size, pool.failed, pool.alive_count) == (size, failed, size - failed)
    return pool


def csv_rows(run):
    """The run's scenario CSV lines, parsed back into cell tuples."""
    return [tuple(row) for row in csv.reader(csv_lines(scenario_csv_rows(run)))]


class TestStructuralAssertions:
    def test_defaults_are_valid(self):
        Scenario()

    def test_mine_needs_threat_figure(self):
        with pytest.raises(ValueError):
            CoalMine(figures=frozenset({"gas_level"}))

    def test_miner_must_not_perceive_threat(self):
        with pytest.raises(ValueError):
            Miner(figures=frozenset({"t", "gas_level"}))

    def test_canary_must_perceive_threat(self):
        with pytest.raises(ValueError):
            Canary(figures=frozenset({"noise"}))

    def test_miner_must_cover_rest_of_mine_context(self):
        with pytest.raises(ValueError):
            Scenario(miner=Miner(figures=frozenset({"gas_level", "vibration"})))

    def test_perceptions_must_be_non_nested(self):
        with pytest.raises(ValueError):
            Scenario(canary=Canary(figures=frozenset(
                {"t", "gas_level", "humidity", "temperature", "vibration"})))

    @pytest.mark.parametrize("bad", [
        lambda: CoalMine(p_enter_ts=1.5),
        lambda: CoalMine(p_exit_ts=-0.1),
        lambda: Miner(hazard_ts=2.0),
        lambda: Canary(hazard_ts=-0.5),
    ], ids=["mine-enter", "mine-exit", "miner-hazard", "canary-hazard"])
    def test_probability_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
            bad()

    def test_joint_perception_must_cover_mine(self):
        with pytest.raises(ValueError):
            Scenario(
                mine=CoalMine(figures=frozenset(
                    {"t", "gas_level", "humidity", "temperature", "radon"})),
            )


class TestBehaviorRelations:
    def test_miner_and_mine_incommensurable(self):
        scenario = Scenario()
        assert not commensurable(
            scenario.miner.monitor_behavior, scenario.mine.behavior
        )

    def test_commensurability_flip_after_collective_formation(self):
        scenario = Scenario()
        mine = scenario.mine.behavior
        assert not commensurable(scenario.miner.monitor_behavior, mine)
        collective = scenario.collective().monitor_behavior
        assert collective.social
        assert precedes(mine, collective)
        assert commensurable(collective, mine)

    def test_detect_need_for_social(self):
        scenario = Scenario()
        mine = scenario.mine.behavior
        assert detect_need_for_social(scenario.miner.monitor_behavior, mine)
        assert not detect_need_for_social(scenario.collective().monitor_behavior, mine)
        assert not detect_need_for_social(mine, mine)


class TestEstimates:
    def test_supply_formula(self):
        assert estimate_supply(pool_with_failures(100, 0)) == 50.0
        assert estimate_supply(pool_with_failures(100, 50)) == 0.0
        assert estimate_supply(pool_with_failures(100, 80)) == -30.0

    def test_fit_formula(self):
        assert estimate_fit(pool_with_failures(100, 0)) == 1.0 / 51.0
        assert estimate_fit(pool_with_failures(100, 50)) == 1.0
        assert estimate_fit(pool_with_failures(100, 80)) == FLOAT_MIN

    def test_empty_pool(self):
        with pytest.raises(EmptyPool):
            estimate_supply(CanaryPool(0))
        with pytest.raises(EmptyPool):
            estimate_fit(CanaryPool(0))

    def test_fit_strictly_increasing_while_supplied(self):
        fits = [estimate_fit(pool_with_failures(100, f)) for f in range(51)]
        assert all(b > a for a, b in zip(fits, fits[1:]))
        assert all(0.0 < v <= 1.0 for v in fits)


class TestSupplyFitCurve:
    def test_full_sweep(self):
        rows = list(supply_fit_curve(100))
        assert len(rows) == 101
        assert rows[49] == (49, 1.0, 0.5)
        assert rows[50] == (50, 0.0, 1.0)
        assert rows[51][1] == -1.0
        assert rows[51][2] == FLOAT_MIN

    def test_formulas_everywhere(self):
        pool = 100
        for f, s, value in supply_fit_curve(pool):
            assert s == pool / 2.0 - f
            if s >= 0:
                assert value == 1.0 / (1.0 + s)
            else:
                assert value == FLOAT_MIN

    def test_needs_a_canary(self):
        with pytest.raises(EmptyPool):
            supply_fit_curve(0)
        with pytest.raises(EmptyPool):
            curve_csv_rows(0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pool_size=st.integers(1, 60))
@example(pool_size=1)
@example(pool_size=60)
def test_trace_and_curve_write_one_estimate(pool_size):
    """Every trace line carries the ``supply,fit`` cells of the curve row at
    failed = pool - canaries, and both are the pool's own estimates."""
    curve = list(csv.reader(csv_lines(curve_csv_rows(pool_size))))
    assert len(curve) == pool_size + 1
    scenario = Scenario(mine=CoalMine(p_enter_ts=0.2), pool_size=pool_size)
    seen = set()
    for seed in (0, 1, 2):
        for _, _, alive, supply_text, fit_text, _, _ in csv_rows(
                simulate(scenario, 300, seed)):
            failed = pool_size - int(alive)
            assert curve[failed] == [str(failed), supply_text, fit_text]
            supply_est = estimate_supply(pool_with_failures(pool_size, failed))
            fit = fit_of_supply(supply_est)
            assert supply_text == repr(supply_est)
            assert fit_text == ("float_min" if fit == FLOAT_MIN else repr(fit))
            seen.add(fit == FLOAT_MIN)
    assert seen == {False, True}  # both the supplied and the undersupplied text


class TestSimulate:
    def test_forced_immediate_failure_without_canaries(self):
        scenario = Scenario(
            mine=CoalMine(p_enter_ts=1.0, p_exit_ts=0.0),
            miner=Miner(hazard_ts=1.0),
            pool_size=0,
        )
        run = simulate(scenario, 10, seed=0)
        assert not run.survived
        assert run.miner_failed_step == 0
        assert run.evacuation_step is None

    def test_never_threatened_means_survival(self):
        scenario = Scenario(mine=CoalMine(p_enter_ts=0.0))
        run = simulate(scenario, 50, seed=1)
        assert run.survived
        assert run.evacuation_step is None
        rows = csv_rows(run)
        assert [row[3] for row in rows] == ["50.0"] * 50
        assert [row[4] for row in rows] == [repr(1.0 / 51.0)] * 50

    def test_canaries_trigger_evacuation_before_miner_dies(self):
        scenario = Scenario(
            mine=CoalMine(p_enter_ts=1.0, p_exit_ts=0.0),
            miner=Miner(hazard_ts=0.0),
            canary=Canary(hazard_ts=1.0),
        )
        run = simulate(scenario, 5, seed=0)
        # All 100 canaries die on the first threatened step; supply -50.
        assert run.canaries_alive[0] == 0
        assert run.evacuation_step == 0
        assert run.survived

    def test_evacuation_is_irreversible(self):
        scenario = Scenario(mine=CoalMine(p_enter_ts=0.2, p_exit_ts=0.5))
        run = simulate(scenario, 300, seed=11)
        evacuated = [row[6] == "true" for row in csv_rows(run)]
        assert any(evacuated)
        first = evacuated.index(True)
        assert first == run.evacuation_step
        assert all(evacuated[first:])

    def test_deterministic(self):
        scenario = Scenario()
        a = simulate(scenario, 200, seed=7)
        b = simulate(scenario, 200, seed=7)
        assert json.dumps(a.to_dict(), sort_keys=True) == \
            json.dumps(b.to_dict(), sort_keys=True)
        assert list(scenario_csv_rows(a)) == list(scenario_csv_rows(b))
        c = simulate(scenario, 200, seed=8)
        assert list(scenario_csv_rows(a)) != list(scenario_csv_rows(c))

    def test_fit_threshold_policy_triggers_on_sentinel(self):
        # A fit threshold below any attainable fit value only fires on the
        # FLOAT_MIN sentinel, i.e. on outright undersupply.
        scenario = Scenario(
            mine=CoalMine(p_enter_ts=1.0, p_exit_ts=0.0),
            miner=Miner(hazard_ts=0.0, evacuation_threshold=-1000.0),
            canary=Canary(hazard_ts=1.0),
            policy=EvacuationPolicy(fit_threshold=1e-20),
        )
        run = simulate(scenario, 3, seed=0)
        assert run.evacuation_step == 0
        assert csv_rows(run)[0][4] == "float_min"

    def test_csv_rows(self):
        run = simulate(Scenario(mine=CoalMine(p_enter_ts=0.0)), 2, seed=0)
        rows = csv_rows(run)
        assert rows[0] == ("0", "NS", "100", "50.0", repr(1.0 / 51.0), "true", "false")

    def test_csv_rows_without_pool(self):
        run = simulate(Scenario(pool_size=0, mine=CoalMine(p_enter_ts=0.0)), 2, seed=0)
        rows = csv_rows(run)
        assert rows[0] == ("0", "NS", "0", "", "", "true", "false")

    def test_float_min_serialized_label(self):
        scenario = Scenario(
            mine=CoalMine(p_enter_ts=1.0, p_exit_ts=0.0),
            miner=Miner(hazard_ts=0.0),
            canary=Canary(hazard_ts=1.0),
        )
        rows = csv_rows(simulate(scenario, 2, seed=0))
        assert rows[0][4] == "float_min"


def test_survival_uplift_smoke():
    # Small-scale version of the Monte Carlo oracle; the full 1000-run
    # comparison lives in the acceptance suite.
    with_pool = survival_rate(Scenario(), steps=500, runs=60, base_seed=0)
    baseline = survival_rate(Scenario(pool_size=0), steps=500, runs=60, base_seed=0)
    assert with_pool["survival_rate"] > baseline["survival_rate"]
