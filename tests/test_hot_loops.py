"""Equivalence of the linear, columnar hot loops with the original code.

The oracles below are the earlier implementations, kept verbatim in
substance: the per-step ``StepRecord``/``shooting`` builders of the three
protocol runs (the antifragile one with its prefix-rescanning review pass
and per-epoch rescanning identity accounting), the step CSV rows and mean
step fit read from those records, and the canary pool that keeps one flag
per canary. The current code must agree with them exactly, including the
random draws consumed and the float sums. The CSV producers stream finished
lines; their oracles are the earlier tuple and dict row builders, written
through ``csv.writer`` as the command line used to write them.
"""

import copy
import csv
import io
import json
import math
import random
from dataclasses import dataclass, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import resilsim.sentinel as sentinel
from resilsim.channel import (
    COMPARE_CSV_HEADER,
    AntifragileEvolving,
    BurstyChannel,
    EwmaPlusSlope,
    FileTransfer,
    KnowledgeStore,
    RandomWalkChannel,
    Teleconferencing,
    WindowMax,
    _jitter,
    _predict_yields,
    _signature,
    as_trace,
    burstiness,
    compare_runs,
    generate_trace,
    mean_step_fit,
    run_antifragile,
    run_elastic,
    run_entelechial,
    step_csv_rows,
)
from resilsim.cli import _csv_cell, main
from resilsim.fitness import BASELINE, QUADRATIC, FitVariant, ShootKind, fit, shooting
from resilsim.organs import FeedbackKind
from resilsim.sentinel import (
    FLOAT_MIN,
    FLOAT_MIN_LABEL,
    Canary,
    CanaryPool,
    CoalMine,
    EvacuationPolicy,
    Miner,
    Scenario,
    scenario_csv_rows,
    simulate,
    supply_fit_curve,
    survival_rate,
)


def csv_text(rows):
    """``rows`` as the command line wrote them before lines were streamed."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


@dataclass(frozen=True)
class StepRecord:
    """The original per-step record of a protocol run."""

    t: int
    y: int
    yield_point: int
    delivered: bool
    shoot: object
    cost: int
    algorithm: str
    prediction: float | None = None
    margin_warning: bool = False
    delivered_at: int | None = None


def oracle_run_elastic(trace, yield_point):
    """The original run_elastic's step records."""
    records = []
    for t, y in enumerate(as_trace(trace).y):
        delivered = yield_point > y
        records.append(StepRecord(
            t=t, y=y, yield_point=yield_point, delivered=delivered,
            shoot=shooting(y, yield_point, t), cost=yield_point,
            algorithm="repetition", delivered_at=t if delivered else None,
        ))
    return records


def oracle_run_entelechial(trace, predictor, epsilon):
    """The original run_entelechial's step records."""
    ys = as_trace(trace).y
    yields, predictions, warns = _predict_yields(ys, copy.deepcopy(predictor), epsilon)
    records = []
    for t, y in enumerate(ys):
        delivered = yields[t] > y
        records.append(StepRecord(
            t=t, y=y, yield_point=yields[t], delivered=delivered,
            shoot=shooting(y, yields[t], t), cost=yields[t], algorithm="repetition",
            prediction=predictions[t], margin_warning=warns[t],
            delivered_at=t if delivered else None,
        ))
    return records


def oracle_step_csv_rows(records):
    return [
        (str(s.t), str(s.y), str(s.yield_point), "true" if s.delivered else "false",
         s.shoot.kind.value, str(s.shoot.magnitude), str(s.cost), s.algorithm)
        for s in records
    ]


def oracle_mean_step_fit(records, variant):
    total = 0.0
    for step in records:
        outcome = fit(step.yield_point - step.y, variant)
        total += 0.0 if outcome.lost_identity else outcome.value
    return total / len(records)


def assert_run_matches_records(run, records):
    """Every column, aggregate and CSV row equals the one read from the records."""
    assert run.y == tuple(s.y for s in records)
    assert list(run.yields) == [s.yield_point for s in records]
    assert list(run.cost) == [s.cost for s in records]
    assert list(run.delivered_at) == [s.delivered_at for s in records]
    assert [dt is not None for dt in run.delivered_at] == [s.delivered for s in records]
    assert list(run.algorithm) == [s.algorithm for s in records]
    assert list(run.prediction) == [s.prediction for s in records]
    assert list(run.margin_warning) == [s.margin_warning for s in records]
    assert run.undershoot_count == sum(
        1 for s in records if s.shoot.kind is ShootKind.UNDERSHOOT)
    assert run.cumulative_overshoot == float(sum(
        s.shoot.magnitude for s in records if s.shoot.kind is ShootKind.OVERSHOOT))
    assert run.total_cost == sum(s.cost for s in records)
    assert run.delivered_fraction == sum(1 for s in records if s.delivered) / len(records)
    assert run.jitter == _jitter(
        sorted(s.delivered_at for s in records if s.delivered_at is not None))
    assert "".join(step_csv_rows(run)) == csv_text(oracle_step_csv_rows(records))


def oracle_run_antifragile(trace, config, store):
    """The original run_antifragile, with its quadratic review and accounting."""
    trace = as_trace(trace)
    ys = trace.y
    n = len(ys)
    review_every = config.epochs_per_review
    predictor = copy.deepcopy(config.predictor)
    yields, predictions, warns = _predict_yields(ys, predictor, config.epsilon)

    algorithm = "repetition"
    depth = 0
    mutation_step = None
    mutations = []
    for k in range(1, n // review_every + 1):
        review_at = k * review_every
        window = range(review_at - review_every, review_at)
        estimate = burstiness(ys, window, min(ys[:review_at]))
        if algorithm == "repetition" and estimate > config.burstiness_threshold:
            signature = _signature(estimate)
            entry = store.get(signature)
            if entry is None:
                entry = {
                    "signature": signature,
                    "algorithm": "interleaved",
                    "depth": config.interleave_depth,
                    "epoch_learned": k,
                }
                store.put(entry)
            if entry["algorithm"] != "interleaved":
                continue
            algorithm = "interleaved"
            depth = entry.get("depth", config.interleave_depth)
            if depth < 2:
                depth = config.interleave_depth
            mutation_step = review_at
            mutations.append({
                "step": review_at,
                "epoch": k,
                "algorithm": "interleaved",
                "depth": depth,
                "signature": signature,
                "burstiness": estimate,
                "feedback": FeedbackKind.GENOTYPICAL.value,
            })

    delivered = [False] * n
    delivered_at = [None] * n
    step_cost = [0] * n
    step_algorithm = ["repetition"] * n
    repetition_until = n if mutation_step is None else mutation_step
    for t in range(repetition_until):
        step_cost[t] += yields[t]
        if yields[t] > ys[t]:
            delivered[t] = True
            delivered_at[t] = t
    if mutation_step is not None:
        for block_start in range(mutation_step, n, depth):
            block = list(range(block_start, min(block_start + depth, n)))
            length = len(block)
            offset = max(1, length // 2)
            for i, t in enumerate(block):
                step_algorithm[t] = "interleaved"
                copies = [t]
                if length >= 2:
                    copies.append(block[(i + offset) % length])
                for s in copies:
                    step_cost[s] += 1
                if trace.burst_correlated:
                    ok = any(yields[s] > ys[s] for s in copies)
                else:
                    ok = yields[t] > ys[t]
                if ok:
                    delivered[t] = True
                    delivered_at[t] = block[-1]

    records = [
        StepRecord(
            t=t, y=y, yield_point=yields[t], delivered=delivered[t],
            shoot=shooting(y, yields[t], t), cost=step_cost[t],
            algorithm=step_algorithm[t], prediction=predictions[t],
            margin_warning=warns[t], delivered_at=delivered_at[t],
        )
        for t, y in enumerate(ys)
    ]

    violations = 0
    if isinstance(config.identity_profile, Teleconferencing):
        bound = config.identity_profile.jitter_bound
        epoch_count = math.ceil(n / review_every)
        times = [dt for dt in delivered_at if dt is not None]
        for k in range(epoch_count):
            start = k * review_every
            end = min((k + 1) * review_every, n)
            epoch_times = sorted(dt for dt in times if start <= dt < end)
            if _jitter(epoch_times) > bound:
                violations += 1
    return records, violations, mutations


class OraclePool:
    """The original canary pool: one alive flag per canary."""

    def __init__(self, size):
        self.alive = [True] * size

    @property
    def alive_count(self):
        return sum(1 for a in self.alive if a)

    def step_threatened(self, rng, hazard):
        for i, is_alive in enumerate(self.alive):
            if is_alive and rng.random() < hazard:
                self.alive[i] = False


# ---------------------------------------------------------------------------
# run_antifragile


plain_traces = st.lists(st.integers(1, 6), min_size=1, max_size=300)
bursty_traces = st.builds(
    lambda p_enter, p_exit, y_burst, correlated, seed, steps: generate_trace(
        BurstyChannel(p_enter=p_enter, p_exit=p_exit, y_calm=1, y_burst=y_burst,
                      burst_correlated=correlated, seed=seed),
        steps,
    ),
    st.floats(0.0, 0.5), st.floats(0.05, 1.0), st.integers(1, 6), st.booleans(),
    st.integers(0, 10_000), st.integers(1, 600),
)
predictors = st.one_of(
    st.integers(1, 10).map(WindowMax),
    st.builds(EwmaPlusSlope, st.floats(0.05, 1.0), st.integers(1, 3)),
)
profiles = st.one_of(
    st.just(FileTransfer()),
    st.floats(-0.5, 3.0).map(lambda bound: Teleconferencing(jitter_bound=bound)),
)
stored_lessons = st.lists(
    st.fixed_dictionaries({
        "signature": st.sampled_from(["calm", "bursty-low", "bursty-high"]),
        "algorithm": st.sampled_from(["interleaved", "repetition"]),
        "depth": st.integers(0, 6),
    }),
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(
    trace=st.one_of(plain_traces, bursty_traces),
    predictor=predictors,
    epsilon=st.floats(0.1, 3.0),
    review_every=st.integers(1, 60),
    profile=profiles,
    threshold=st.floats(0.0, 1.0),
    depth=st.integers(2, 6),
    lessons=stored_lessons,
)
def test_run_antifragile_matches_oracle(trace, predictor, epsilon, review_every,
                                        profile, threshold, depth, lessons):
    config = AntifragileEvolving(
        predictor=predictor, epsilon=epsilon, epochs_per_review=review_every,
        identity_profile=profile, burstiness_threshold=threshold,
        interleave_depth=depth,
    )
    store, oracle_store = KnowledgeStore(lessons), KnowledgeStore(lessons)
    run, _ = run_antifragile(trace, config, store)
    records, violations, mutations = oracle_run_antifragile(trace, config, oracle_store)
    assert run.identity_violations == violations
    assert run.mutations == mutations
    assert_run_matches_records(run, records)
    assert store.to_dict() == oracle_store.to_dict()


def test_bursty_readme_trace_matches_oracle():
    """A long README-style trace that mutates and violates identity."""
    trace = generate_trace(
        BurstyChannel(p_enter=0.05, p_exit=0.3, y_calm=1, y_burst=5, seed=17), 5_000
    )
    config = AntifragileEvolving(
        predictor=WindowMax(8), epsilon=1.5, epochs_per_review=50,
        identity_profile=Teleconferencing(jitter_bound=0.5),
    )
    run, _ = run_antifragile(trace, config, KnowledgeStore())
    records, violations, mutations = oracle_run_antifragile(
        trace, config, KnowledgeStore())
    assert mutations and violations > 0
    assert (run.identity_violations, run.mutations) == (violations, mutations)
    assert_run_matches_records(run, records)
    for variant in FIT_VARIANTS:
        assert mean_step_fit(run, variant) == oracle_mean_step_fit(records, variant)


def test_cached_aggregates_match_fresh_computation():
    trace = generate_trace(
        BurstyChannel(p_enter=0.05, p_exit=0.3, y_calm=1, y_burst=5, seed=3), 800
    )
    config = AntifragileEvolving(predictor=WindowMax(8), epsilon=1.5)
    run, _ = run_antifragile(trace, config, KnowledgeStore())
    first = run.aggregates()
    assert compare_runs({"a": run})[0] == {
        key: first[key] for key in
        ("undershoot_count", "cumulative_overshoot", "total_cost",
         "delivered_fraction", "jitter")
    } | {"protocol": "a"}
    fresh = replace(run)  # same columns, nothing cached yet
    assert "jitter" not in vars(fresh)
    assert fresh.aggregates() == first == run.aggregates()


# ---------------------------------------------------------------------------
# run_elastic and run_entelechial


FIT_VARIANTS = (BASELINE, QUADRATIC, FitVariant.parse("plateau:2"))

walk_traces = st.builds(
    lambda y0, step_prob, seed, steps: generate_trace(
        RandomWalkChannel(y0=y0, step_prob=step_prob, y_min=1, y_max=6, seed=seed),
        steps,
    ),
    st.integers(1, 6), st.floats(0.0, 1.0), st.integers(0, 10_000),
    st.integers(1, 600),
)
channel_traces = st.one_of(plain_traces, walk_traces, bursty_traces)


@settings(max_examples=200, deadline=None)
@given(trace=channel_traces, yield_point=st.integers(1, 8),
       variant=st.sampled_from(FIT_VARIANTS))
@example(trace=[2, 5, 2, 6], yield_point=3, variant=BASELINE)  # undershoots
def test_run_elastic_matches_oracle(trace, yield_point, variant):
    run = run_elastic(trace, yield_point)
    records = oracle_run_elastic(trace, yield_point)
    assert_run_matches_records(run, records)
    assert mean_step_fit(run, variant) == oracle_mean_step_fit(records, variant)


@settings(max_examples=200, deadline=None)
@given(trace=channel_traces, predictor=predictors, epsilon=st.floats(0.1, 3.0),
       variant=st.sampled_from(FIT_VARIANTS))
@example(trace=[1, 2, 3, 6, 1], predictor=WindowMax(1), epsilon=2.0,
         variant=QUADRATIC)  # undershoots
def test_run_entelechial_matches_oracle(trace, predictor, epsilon, variant):
    run = run_entelechial(trace, predictor, epsilon)
    records = oracle_run_entelechial(trace, predictor, epsilon)
    assert_run_matches_records(run, records)
    assert mean_step_fit(run, variant) == oracle_mean_step_fit(records, variant)


def test_oracle_examples_undershoot_and_lose_identity():
    """The strategies reach identity loss; the float sums are not trivial."""
    trace = generate_trace(
        RandomWalkChannel(y0=3, step_prob=0.2, y_min=1, y_max=6, seed=5), 20_000)
    for run, records in (
        (run_elastic(trace, 4), oracle_run_elastic(trace, 4)),
        (run_entelechial(trace, EwmaPlusSlope(), 1.5),
         oracle_run_entelechial(trace, EwmaPlusSlope(), 1.5)),
    ):
        assert run.undershoot_count > 0
        assert any(fit(s.yield_point - s.y).lost_identity for s in records)
        assert_run_matches_records(run, records)
        for variant in FIT_VARIANTS:
            assert mean_step_fit(run, variant) == oracle_mean_step_fit(records, variant)


# ---------------------------------------------------------------------------
# CanaryPool


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
    hazards=st.lists(st.floats(0.0, 1.0), max_size=40),
)
def test_pool_matches_oracle_count_and_rng_state(size, seed, hazards):
    pool, oracle = CanaryPool(size), OraclePool(size)
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    for hazard in hazards:
        pool.step_threatened(rng, hazard)
        oracle.step_threatened(oracle_rng, hazard)
        assert pool.alive_count == oracle.alive_count
        assert pool.failed == size - oracle.alive_count
        assert pool.size == size
        assert rng.getstate() == oracle_rng.getstate()


# ---------------------------------------------------------------------------
# Early-stopped survival_rate


SCENARIOS = {
    "default": Scenario(),
    "no-canaries": Scenario(pool_size=0),
    "hazardous": Scenario(mine=CoalMine(p_enter_ts=0.05, p_exit_ts=0.05),
                          miner=Miner(hazard_ts=0.1), pool_size=30),
    "fit-policy": Scenario(miner=Miner(evacuation_threshold=-1000.0),
                           canary=Canary(hazard_ts=0.5),
                           policy=EvacuationPolicy(fit_threshold=1e-20)),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_survival_rate_equals_full_length_tally(name):
    scenario, steps, runs, base_seed = SCENARIOS[name], 300, 220, 40
    survived = evacuated = 0
    for seed in range(base_seed, base_seed + runs):
        run = simulate(scenario, steps, seed)
        assert len(run.steps) == steps
        survived += run.survived
        evacuated += run.evacuation_step is not None
    assert survival_rate(scenario, steps, runs, base_seed) == {
        "runs": runs,
        "survived": survived,
        "survival_rate": survived / runs,
        "evacuated": evacuated,
        "base_seed": base_seed,
        "steps": steps,
        "pool_size": scenario.pool_size,
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_until_decided_is_a_prefix_of_the_full_run(name):
    scenario = SCENARIOS[name]
    for seed in range(60):
        full = simulate(scenario, 300, seed)
        short = simulate(scenario, 300, seed, until_decided=True)
        decided = [s for s in (full.evacuation_step, full.miner_failed_step)
                   if s is not None]
        assert len(short.steps) == (min(decided) + 1 if decided else 300)
        assert short.steps == full.steps[:len(short.steps)]
        assert (short.survived, short.evacuation_step, short.miner_failed_step) == \
            (full.survived, full.evacuation_step, full.miner_failed_step)


def test_survival_rate_calls_simulate_through_module_global(monkeypatch):
    calls = []

    def recording_simulate(*args, **kwargs):
        calls.append(kwargs)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(sentinel, "simulate", recording_simulate)
    survival_rate(Scenario(), 50, 3)
    assert calls == [{"until_decided": True}] * 3


# ---------------------------------------------------------------------------
# Streamed CSV lines


def oracle_scenario_csv_rows(run):
    """The earlier scenario_csv_rows: one tuple of cells per step."""
    rows = []
    for s in run.steps:
        if s.supply is None:
            supply_text = ""
            fit_text = ""
        else:
            supply_text = repr(s.supply)
            fit_text = FLOAT_MIN_LABEL if s.fit == FLOAT_MIN else repr(s.fit)
        rows.append((
            str(s.t),
            s.mine_state,
            str(s.canaries_alive),
            supply_text,
            fit_text,
            "true" if s.miner_alive else "false",
            "true" if s.evacuated else "false",
        ))
    return rows


def oracle_supply_fit_curve(pool_size):
    """The earlier supply_fit_curve: a list of dicts."""
    rows = []
    for f in range(pool_size + 1):
        s = pool_size / 2.0 - f
        fit_value = 1.0 / (1.0 + s) if s >= 0 else FLOAT_MIN
        rows.append({"f": f, "supply": s, "fit": fit_value})
    return rows


def oracle_curve_csv(pool_size):
    """curve.csv as the command line wrote it from the list of dicts."""
    return csv_text([("f", "supply", "fit")] + [
        (
            str(row["f"]),
            repr(row["supply"]),
            FLOAT_MIN_LABEL if row["fit"] == FLOAT_MIN else repr(row["fit"]),
        )
        for row in oracle_supply_fit_curve(pool_size)
    ])


scenarios = st.builds(
    lambda p_enter, p_exit, miner_hazard, threshold, canary_hazard, pool,
    fit_threshold: Scenario(
        mine=CoalMine(p_enter_ts=p_enter, p_exit_ts=p_exit),
        miner=Miner(hazard_ts=miner_hazard, evacuation_threshold=threshold),
        canary=Canary(hazard_ts=canary_hazard),
        pool_size=pool,
        policy=EvacuationPolicy(fit_threshold=fit_threshold),
    ),
    st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 0.5),
    st.floats(-60.0, 40.0), st.floats(0.0, 1.0), st.integers(0, 61),
    st.one_of(st.none(), st.just(1e-20), st.floats(0.0, 1.0)),
)


# An odd pool under constant threat with a fit policy: x.5 supplies, then
# the FLOAT_MIN sentinel of undersupply.
ODD_POOL_FIT_POLICY = Scenario(
    mine=CoalMine(p_enter_ts=1.0, p_exit_ts=0.0),
    miner=Miner(hazard_ts=0.0, evacuation_threshold=-1000.0),
    canary=Canary(hazard_ts=0.5), pool_size=7,
    policy=EvacuationPolicy(fit_threshold=1e-20),
)


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios, steps=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       until_decided=st.booleans())
@example(scenario=Scenario(pool_size=0), steps=20, seed=0, until_decided=False)
@example(scenario=ODD_POOL_FIT_POLICY, steps=30, seed=1, until_decided=False)
def test_scenario_csv_lines_match_oracle(scenario, steps, seed, until_decided):
    run = simulate(scenario, steps, seed, until_decided=until_decided)
    assert "".join(scenario_csv_rows(run)) == csv_text(oracle_scenario_csv_rows(run))


def test_odd_pool_example_writes_half_supplies_and_float_min():
    text = "".join(scenario_csv_rows(simulate(ODD_POOL_FIT_POLICY, 30, seed=1)))
    assert ",0.5," in text and ",-1.5,float_min," in text


def test_supply_fit_curve_and_curve_csv_match_oracle(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"steps": 1}')
    out = tmp_path / "out"
    for pool in range(1, 301):
        assert list(supply_fit_curve(pool)) == [
            (row["f"], row["supply"], row["fit"]) for row in oracle_supply_fit_curve(pool)
        ]
        assert main(["sentinel", "-c", str(config), "-o", str(out),
                     "--curve", str(pool)]) == 0
        assert (out / "curve.csv").read_text(encoding="utf-8") == oracle_curve_csv(pool)


def test_compare_csv_quotes_protocol_names(tmp_path):
    names = ('a,b', 'say "hi"', 'plain')
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "channel": {"kind": "random_walk", "y0": 3, "step_prob": 0.2,
                    "min": 1, "max": 6},
        "steps": 200,
        "seed": 5,
        "protocols": [{"kind": "elastic", "yield_point": 3 + i, "name": name}
                      for i, name in enumerate(names)],
    }))
    out = tmp_path / "out"
    assert main(["channel", "-c", str(config), "-o", str(out)]) == 0
    trace = generate_trace(
        RandomWalkChannel(y0=3, step_prob=0.2, y_min=1, y_max=6, seed=5), 200)
    runs = {name: run_elastic(trace, 3 + i) for i, name in enumerate(names)}
    text = (out / "compare.csv").read_text(encoding="utf-8")
    assert text == csv_text([COMPARE_CSV_HEADER] + [
        [_csv_cell(row[column]) for column in COMPARE_CSV_HEADER]
        for row in compare_runs(runs)
    ])
    assert [row[0] for row in csv.reader(io.StringIO(text))] == \
        ["protocol", *sorted(names)]


def test_csv_producers_stream():
    run = run_elastic([2, 5, 2], 3)
    scenario_run = simulate(Scenario(pool_size=3), 5, seed=0)
    for produced in (step_csv_rows(run), scenario_csv_rows(scenario_run),
                     supply_fit_curve(4)):
        assert not isinstance(produced, list)
        assert iter(produced) is produced
