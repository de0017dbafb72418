"""Equivalence of the linear, columnar hot loops with the original code.

The oracles are the earlier implementations, kept verbatim in substance,
and the comparisons against them, all from ``oracles.py``: the per-step
prediction loop and the per-step ``StepRecord``/``shooting`` builders of
the three protocol runs, with their own exact jitter reference; the step
CSV rows and mean step fit read from those records; the canary pool that
keeps one flag per canary and the sentinel simulation that built one
``ScenarioStep`` per step; the earlier curve and CSV row builders; and the
set checks of the scenario premise. The current code must agree with them
exactly, including the random draws consumed and the float sums. Below are
the properties and examples that drive them; ``tests/gates.py`` runs fixed
cases through the same comparisons without pytest.
"""

import csv
import io
import itertools
import json
import random
import statistics
import sys
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import resilsim.channel as channel
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
    burstiness,
    compare_runs,
    config_dict,
    generate_trace,
    run_antifragile,
    run_elastic,
    run_entelechial,
    step_csv_rows,
)
from resilsim.cli import main
from resilsim.fitness import BASELINE, QUADRATIC, fit
from resilsim.sentinel import (
    FLOAT_MIN,
    Canary,
    CanaryPool,
    CoalMine,
    EvacuationPolicy,
    Miner,
    Scenario,
    curve_csv_rows,
    estimate_supply,
    scenario_csv_rows,
    simulate,
    supply_fit_curve,
    survival_rate,
)

from oracles import (
    EDGE_CASES,
    FIT_VARIANTS,
    ODD_POOL_FIT_POLICY,
    PREMISE_EXAMPLES,
    WALK_CASES,
    OraclePool,
    assert_antifragile_matches_oracle,
    assert_curve_matches_oracle,
    assert_curve_rows_match_oracle,
    assert_premise_matches_oracle,
    assert_elastic_matches_oracle,
    assert_entelechial_matches_oracle,
    assert_run_matches_oracle,
    assert_walk_matches_oracle,
    assert_yields_match_oracle,
    csv_lines,
    csv_text,
    exact_jitter,
    oracle_curve_csv,
    oracle_curve_row,
    predict_yields,
)


# ---------------------------------------------------------------------------
# _jitter


# Sorted integer times whose small gaps mix with gaps of 2**60 and more; a
# variance past 2**109 takes the branch that scales the root's argument down.
sorted_times = st.lists(
    st.one_of(st.integers(0, 20), st.integers(2**60, 2**64)), max_size=60,
).map(lambda increments: list(itertools.accumulate(increments)))


@settings(max_examples=500, deadline=None)
@given(times=sorted_times)
# No time, one time, one gap and equal gaps, all with jitter 0.0; then a
# variance that takes the scaled branch.
@example(times=[])
@example(times=[7])
@example(times=[3, 10])
@example(times=[2, 5, 8, 11])
@example(times=[0, 1, 2**64])
def test_jitter_is_exact(times):
    """``_jitter`` is the correctly rounded root of the exact variance: the
    reference's float on every Python, and ``statistics.pstdev`` of the gaps
    bit for bit on 3.11+, where ``pstdev`` rounds that way too."""
    jitter = _jitter(times)
    assert type(jitter) is float
    assert jitter.hex() == exact_jitter(times).hex()
    assert _jitter(iter(times)).hex() == jitter.hex()  # one pass over an iterator
    if sys.version_info >= (3, 11) and len(times) >= 2:
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert jitter.hex() == statistics.pstdev(gaps).hex()
    if len({b - a for a, b in zip(times, times[1:])}) <= 1:
        assert jitter == 0.0


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


def edge_case_example(name):
    return example(predictor=WindowMax(1), epsilon=1.0, profile=FileTransfer(),
                   threshold=0.0, **EDGE_CASES[name][0])


antifragile_cases = dict(
    trace=st.one_of(plain_traces, bursty_traces),
    predictor=predictors,
    epsilon=st.floats(0.1, 3.0),
    review_every=st.integers(1, 60),
    profile=profiles,
    threshold=st.floats(0.0, 1.0),
    depth=st.integers(2, 6),
    lessons=stored_lessons,
)


@settings(max_examples=300, deadline=None)
@given(**antifragile_cases)
@edge_case_example("trailing one-step block")
@edge_case_example("uncorrelated bursts")
@edge_case_example("stored repetition, then a mutation")
@edge_case_example("stored depth below 2")
@edge_case_example("full blocks only")
@edge_case_example("fewer steps than the depth")
def test_run_antifragile_matches_oracle(trace, predictor, epsilon, review_every,
                                        profile, threshold, depth, lessons):
    config = AntifragileEvolving(
        predictor=predictor, epsilon=epsilon, epochs_per_review=review_every,
        identity_profile=profile, burstiness_threshold=threshold,
        interleave_depth=depth,
    )
    assert_antifragile_matches_oracle(trace, config, lessons)


@settings(max_examples=300, deadline=None)
@given(**antifragile_cases)
@edge_case_example("trailing one-step block")
@edge_case_example("uncorrelated bursts")
@edge_case_example("stored repetition, then a mutation")
@edge_case_example("stored depth below 2")
@edge_case_example("full blocks only")
@edge_case_example("fewer steps than the depth")
def test_derived_columns_agree(trace, predictor, epsilon, review_every, profile,
                               threshold, depth, lessons):
    """The run stores only ``delivered`` and the mutation point; the delivery
    steps, the delivery times and the closed-form cost read from them agree."""
    config = AntifragileEvolving(
        predictor=predictor, epsilon=epsilon, epochs_per_review=review_every,
        identity_profile=profile, burstiness_threshold=threshold,
        interleave_depth=depth,
    )
    run = run_antifragile(trace, config, KnowledgeStore(lessons))
    arrivals = list(run.arrivals())
    assert len(arrivals) == len(list(run.costs())) == len(run.delivered)
    assert run.delivery_times == list(itertools.compress(arrivals, run.delivered))
    assert run.total_cost == sum(run.costs())


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_case_examples_reach_their_case(name):
    case, expected = EDGE_CASES[name]
    config = AntifragileEvolving(
        predictor=WindowMax(1), epsilon=1.0, epochs_per_review=case["review_every"],
        burstiness_threshold=0.0, interleave_depth=case["depth"],
    )
    [mutation] = run_antifragile(case["trace"], config,
                                 KnowledgeStore(case["lessons"])).mutations
    assert (mutation["step"], mutation["signature"], mutation["depth"]) == expected


@settings(max_examples=200, deadline=None)
@given(
    trace=st.one_of(plain_traces, bursty_traces),
    predictor=predictors,
    epsilon=st.floats(0.1, 3.0),
    review_every=st.integers(1, 60),
    profile=profiles,
    threshold=st.floats(0.0, 1.0),
    lessons=stored_lessons,
)
def test_run_antifragile_starts_entelechial(trace, predictor, epsilon, review_every,
                                            profile, threshold, lessons):
    """The antifragile run is the entelechial run up to its mutation step."""
    config = AntifragileEvolving(
        predictor=predictor, epsilon=epsilon, epochs_per_review=review_every,
        identity_profile=profile, burstiness_threshold=threshold,
    )
    run = run_antifragile(trace, config, KnowledgeStore(lessons))
    entelechial = run_entelechial(trace, predictor, epsilon)
    assert list(run.yields) == list(entelechial.yields)
    assert run.header == entelechial.header | {
        "protocol": "antifragile",
        "epochs_per_review": review_every,
        "identity_profile": config_dict(profile),
        "burstiness_threshold": threshold,
    }
    until = run.mutations[0]["step"] if run.mutations else len(run.y)
    assert run.delivered[:until] == entelechial.delivered[:until]
    for derived in ("arrivals", "costs"):
        assert list(getattr(run, derived)())[:until] == \
            list(getattr(entelechial, derived)())[:until]
    assert list(itertools.islice(csv_lines(step_csv_rows(run)), until)) == \
        list(itertools.islice(csv_lines(step_csv_rows(entelechial)), until))


def test_bursty_readme_trace_matches_oracle():
    """A long README-style trace that mutates and violates identity."""
    trace = generate_trace(
        BurstyChannel(p_enter=0.05, p_exit=0.3, y_calm=1, y_burst=5, seed=17), 5_000
    )
    config = AntifragileEvolving(
        predictor=WindowMax(8), epsilon=1.5, epochs_per_review=50,
        identity_profile=Teleconferencing(jitter_bound=0.5),
    )
    run, _ = assert_antifragile_matches_oracle(trace, config, variants=FIT_VARIANTS)
    assert run.mutations and run.identity_violations > 0


def test_review_stops_at_the_mutation(monkeypatch):
    reviews = []

    def recording_burstiness(ys, window, baseline):
        reviews.append(window.stop)
        return burstiness(ys, window, baseline)

    monkeypatch.setattr(channel, "burstiness", recording_burstiness)
    trace = generate_trace(
        BurstyChannel(p_enter=0.05, p_exit=0.3, y_calm=1, y_burst=5, seed=17), 5_000
    )
    config = AntifragileEvolving(predictor=WindowMax(8), epsilon=1.5,
                                 epochs_per_review=50)
    [mutation] = run_antifragile(trace, config, KnowledgeStore()).mutations
    assert reviews == [50 * k for k in range(1, mutation["epoch"] + 1)]
    reviews.clear()
    calm = replace(config, burstiness_threshold=1.0)  # no estimate exceeds 1
    assert run_antifragile(trace, calm, KnowledgeStore()).mutations == []
    assert len(reviews) == len(trace.y) // 50


def test_cached_aggregates_match_fresh_computation():
    trace = generate_trace(
        BurstyChannel(p_enter=0.05, p_exit=0.3, y_calm=1, y_burst=5, seed=3), 800
    )
    config = AntifragileEvolving(predictor=WindowMax(8), epsilon=1.5)
    run = run_antifragile(trace, config, KnowledgeStore())
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
    assert_elastic_matches_oracle(trace, yield_point, (variant,))


@settings(max_examples=200, deadline=None)
@given(trace=channel_traces, predictor=predictors, epsilon=st.floats(0.1, 3.0),
       variant=st.sampled_from(FIT_VARIANTS))
@example(trace=[1, 2, 3, 6, 1], predictor=WindowMax(1), epsilon=2.0,
         variant=QUADRATIC)  # undershoots
def test_run_entelechial_matches_oracle(trace, predictor, epsilon, variant):
    assert_entelechial_matches_oracle(trace, predictor, epsilon, (variant,))


def test_oracle_examples_undershoot_and_lose_identity():
    """The strategies reach identity loss; the float sums are not trivial."""
    trace = generate_trace(
        RandomWalkChannel(y0=3, step_prob=0.2, y_min=1, y_max=6, seed=5), 20_000)
    for run, records in (
        assert_elastic_matches_oracle(trace, 4, FIT_VARIANTS),
        assert_entelechial_matches_oracle(trace, EwmaPlusSlope(), 1.5, FIT_VARIANTS),
    ):
        assert run.undershoot_count > 0
        assert any(fit(s.yield_point - s.y).lost_identity for s in records)


# ---------------------------------------------------------------------------
# Random-walk generator


@pytest.mark.parametrize("name", list(WALK_CASES))
def test_walk_cases_match_oracle(name):
    assert_walk_matches_oracle(*WALK_CASES[name])


@settings(max_examples=200, deadline=None)
@given(y_min=st.integers(1, 4), span=st.integers(0, 4), offset=st.integers(0, 4),
       step_prob=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       steps=st.integers(1, 400))
def test_walk_matches_oracle(y_min, span, offset, step_prob, seed, steps):
    """Any bounds, start and step probability: the same demand and draws."""
    model = RandomWalkChannel(y0=y_min + min(offset, span), step_prob=step_prob,
                              y_min=y_min, y_max=y_min + span, seed=seed)
    assert_walk_matches_oracle(model, steps)


# ---------------------------------------------------------------------------
# Predictor kernels


@settings(max_examples=300, deadline=None)
@given(ys=plain_traces, predictor=predictors | st.integers(1, 12).map(WindowMax))
@example(ys=[3], predictor=WindowMax(8))
@example(ys=[3], predictor=EwmaPlusSlope())
@example(ys=[3, 1], predictor=WindowMax(8))
@example(ys=[3, 1], predictor=EwmaPlusSlope())
@example(ys=[1, 5, 2, 2, 6, 1], predictor=WindowMax(1))
@example(ys=[(7 * t) % 6 + 1 for t in range(300)], predictor=WindowMax(40))
def test_yields_match_the_observe_predict_loop(ys, predictor):
    """One ``yields`` call gives the yields of the observe/predict loop and
    the per-step yield rule, for windows shorter and longer than the trace,
    and for windows of 1, n//2, n-1, n, n+1 and ``sys.maxsize`` steps of an
    n-step trace."""
    n = len(ys)
    windows = {w for w in (1, n // 2, n - 1, n, n + 1, sys.maxsize) if w >= 1}
    for predictor in (predictor, *map(WindowMax, sorted(windows))):
        assert_yields_match_oracle(ys, predictor)


# A ramp falling from ``top`` by ``drop`` a step, then flat at 1: the slope
# turns negative, so a long horizon predicts below 0 and the yield is 1.
falling_ramps = st.builds(lambda top, drop, steps: [max(1, top - drop * t)
                                                     for t in range(steps)],
                          st.integers(1, 80), st.integers(1, 8), st.integers(1, 60))


@settings(max_examples=300, deadline=None)
@given(ys=falling_ramps, alpha=st.floats(0.05, 1.0), horizon=st.integers(1, 50))
@example(ys=[max(1, 30 - 3 * t) for t in range(15)], alpha=0.5, horizon=50)
def test_ewma_yields_match_the_oracle_on_falling_ramps(ys, alpha, horizon):
    assert_yields_match_oracle(ys, EwmaPlusSlope(alpha, horizon))


@pytest.mark.parametrize("horizon", [2, 3, 5, 10, 50])
def test_ewma_yields_clamp_at_1_where_the_prediction_is_negative(horizon):
    ys = [max(1, 30 - 3 * t) for t in range(15)]
    predictor = EwmaPlusSlope(alpha=0.5, horizon=horizon)
    _, predictions, _ = predict_yields(ys, predictor, 1.0)
    negative = [t for t, prediction in enumerate(predictions) if prediction < 0]
    assert negative  # the clamp acts
    yields = predictor.yields(tuple(ys))
    assert {yields[t] for t in negative} == {1}
    assert_yields_match_oracle(ys, predictor)


@settings(max_examples=200, deadline=None)
@given(ys=plain_traces | st.integers(1, 2**40).flatmap(
           lambda y: st.integers(1, 60).map(lambda steps: [y] * steps)),
       alpha=st.sampled_from([0.5, 1.0]), horizon=st.integers(1, 50))
@example(ys=[4] * 21, alpha=0.5, horizon=2)
@example(ys=[4] * 21, alpha=1.0, horizon=50)
@example(ys=[1, 3, 6, 2, 2], alpha=1.0, horizon=3)
def test_ewma_yields_where_the_prediction_is_an_integer(ys, alpha, horizon):
    """A constant trace keeps the prediction on its integer demand at any
    alpha that halves exactly, and alpha 1.0 predicts y + horizon * (the
    last change) on any trace: each yield is the next integer, or 1."""
    predictor = EwmaPlusSlope(alpha, horizon)
    _, predictions, _ = predict_yields(ys, predictor, 1.0)
    if len(set(ys)) == 1 or alpha == 1.0:
        assert all(prediction == int(prediction) for prediction in predictions)
        assert predictor.yields(tuple(ys)) == tuple(max(1, int(prediction) + 1)
                                                  for prediction in predictions)
    assert_yields_match_oracle(ys, predictor)


BEYOND_DOUBLES = 2**53 + 1  # the smallest positive int that no float holds


@pytest.mark.parametrize("window", [1, 2, 8, 100])
def test_window_max_yields_are_exact_above_2_to_the_53(window):
    """A window maximum is an integer sample, so its yield is one above it
    at any size: a steady demand of 2**53 + 1 is delivered at every step."""
    ys = [BEYOND_DOUBLES] * 20 + [1, BEYOND_DOUBLES + 2, 3]
    run, _ = assert_entelechial_matches_oracle(ys, WindowMax(window), 1.5)
    assert run.header["bootstrap_yield"] == run.yields[0] == BEYOND_DOUBLES + 1
    assert run.yields[:20] == (BEYOND_DOUBLES + 1,) * 20
    assert run.delivered[:20] == b"\x01" * 20


def test_ewma_bootstrap_yield_is_its_first_yield():
    """EWMA predicts from floats, so y(0) = 2**53 + 1 is predicted as 2**53
    and Y(0) = y(0) undershoots; the header states that Y(0)."""
    run, _ = assert_entelechial_matches_oracle([BEYOND_DOUBLES, 1], EwmaPlusSlope(), 1.5)
    assert run.header["bootstrap_yield"] == run.yields[0] == BEYOND_DOUBLES
    assert run.delivered[0] == 0


def test_a_trace_keeps_the_columns_of_its_last_predictor_pass():
    """An epsilon sweep leaves one yield column on the trace, that of the
    last run; the memo is no part of the trace's value."""
    trace = generate_trace(
        BurstyChannel(p_enter=0.05, p_exit=0.3, y_calm=1, y_burst=5, seed=17), 2_000)
    runs = [run_entelechial(trace, WindowMax(8), epsilon) for epsilon in (0.5, 1.0, 1.5)]
    key, yields = trace._yields
    assert key == (WindowMax(8), 1.5)
    assert yields is runs[-1].yields
    assert isinstance(runs[-1].yields, tuple)
    fresh = replace(trace)
    assert fresh._yields is None
    assert (fresh, hash(fresh), repr(fresh)) == (trace, hash(trace), repr(trace))
    assert runs == [run_entelechial(list(trace.y), WindowMax(8), epsilon)
                    for epsilon in (0.5, 1.0, 1.5)]


# ---------------------------------------------------------------------------
# Memory per step


def traced_bytes_per_step(make_run, trace):
    """The traced bytes ``make_run(trace)`` keeps in its run and holds at its
    peak, per step of ``trace``, beyond what was allocated before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run = make_run(trace)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    steps = len(trace.y)
    return run, (retained - before) / steps, (peak - before) / steps


MEMORY_TRACE = generate_trace(
    BurstyChannel(p_enter=0.05, p_exit=0.3, y_calm=1, y_burst=5, seed=17), 20_000)
TELECONFERENCING = AntifragileEvolving(
    predictor=WindowMax(8), epsilon=1.5,
    identity_profile=Teleconferencing(jitter_bound=0.5))


@pytest.mark.parametrize("make_run", [
    lambda trace: run_elastic(trace, 6),
    lambda trace: run_entelechial(trace, EwmaPlusSlope(), 1.5),
    lambda trace: run_entelechial(trace, WindowMax(8), 1.5),
    lambda trace: run_antifragile(trace, TELECONFERENCING, KnowledgeStore()),
], ids=["elastic", "entelechial-ewma_slope", "entelechial-window_max", "antifragile"])
def test_runs_keep_at_most_32_bytes_per_step(make_run):
    """A run stores a byte of delivery and at most a one-word yields column
    per step; the trace's ``y`` is shared. Per-step int, float or string
    objects would take 72 bytes or more."""
    run, retained, peak = traced_bytes_per_step(make_run, MEMORY_TRACE)
    assert retained <= 32
    if run.header["protocol"] == "antifragile":
        assert run.mutations  # the interleaved delivery ran
        # identity accounting included
        assert peak <= 48


WALK = RandomWalkChannel(y0=3, step_prob=0.2, y_min=1, y_max=6, seed=5)
WALK_TRACE = generate_trace(WALK, 100_000)


def test_a_trace_keeps_at_most_9_bytes_per_step():
    """A trace is its demand: one tuple, a word a step, of cached small ints."""
    trace, retained, _ = traced_bytes_per_step(
        lambda trace: generate_trace(WALK, len(trace.y)), WALK_TRACE)
    assert trace == WALK_TRACE
    assert retained <= 9


def test_an_elastic_run_keeps_at_most_10_bytes_per_step():
    """An elastic run stores its yields column and a byte of delivery per
    step."""
    _, retained, _ = traced_bytes_per_step(lambda trace: run_elastic(trace, 7), WALK_TRACE)
    assert retained <= 10


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
# simulate


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


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios, steps=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       until_decided=st.booleans())
@example(scenario=Scenario(pool_size=0), steps=20, seed=0, until_decided=False)
@example(scenario=ODD_POOL_FIT_POLICY, steps=30, seed=1, until_decided=True)
def test_simulate_matches_oracle(scenario, steps, seed, until_decided):
    assert_run_matches_oracle(scenario, steps, seed, until_decided)


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
        k = len(short.steps)
        assert k == (min(decided) + 1 if decided else 300)
        assert short.steps == range(k)
        short_lines = list(csv_lines(scenario_csv_rows(short)))
        assert short_lines == list(csv_lines(scenario_csv_rows(full)))[:k]
        if decided:
            # The last line shows the decision: the miner is dead or evacuated.
            *_, miner_alive, evacuated = next(csv.reader(short_lines[-1:]))
            assert (miner_alive, evacuated) != ("true", "false")
        assert (short.mine_state, short.canaries_alive) == \
            (full.mine_state[:k], full.canaries_alive[:k])
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


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios, steps=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       until_decided=st.booleans())
@example(scenario=Scenario(pool_size=0), steps=20, seed=0, until_decided=False)
@example(scenario=ODD_POOL_FIT_POLICY, steps=30, seed=1, until_decided=False)
def test_scenario_csv_lines_match_oracle(scenario, steps, seed, until_decided):
    assert_run_matches_oracle(scenario, steps, seed, until_decided)


def test_odd_pool_example_writes_half_supplies_and_float_min():
    text = "".join(scenario_csv_rows(simulate(ODD_POOL_FIT_POLICY, 30, seed=1)))
    assert ",0.5," in text and ",-1.5,float_min," in text


def test_supply_fit_curve_and_curve_csv_match_oracle(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"steps": 1}')
    out = tmp_path / "out"
    for pool in range(1, 301):
        assert_curve_matches_oracle(pool)
        assert main(["sentinel", "-c", str(config), "-o", str(out),
                     "--curve", str(pool)]) == 0
        assert (out / "curve.csv").read_text(encoding="utf-8") == oracle_curve_csv(pool)


@pytest.mark.parametrize("pool", [2**53 + 1, sys.maxsize])
def test_curve_of_a_huge_pool_starts_as_the_oracle(pool):
    """Exponent-form supplies, far past the pools the oracle can list."""
    assert_curve_rows_match_oracle(pool, 0, 5)


@pytest.mark.parametrize("pool", [10_000, 10_001])
def test_curve_turns_to_float_min_where_the_oracle_does(pool):
    """The last line with a fit and the first ``float_min`` line."""
    last_fit = pool // 2
    assert oracle_curve_row(pool, last_fit)["fit"] != FLOAT_MIN
    assert oracle_curve_row(pool, last_fit + 1)["fit"] == FLOAT_MIN
    assert_curve_rows_match_oracle(pool, last_fit, last_fit + 2)


@pytest.mark.parametrize("pool", [1, 2, 2**53 - 1, 2**53, 2**53 + 1, 2**54 + 1,
                                  2**60 + 12_345, sys.maxsize])
def test_curve_splits_where_the_supply_turns_negative(pool):
    """Past 2**53 the failure counts just above |c|/2 round onto it, so
    their supply is 0.0 and their line writes a fit: the split is 513
    lines past ``pool // 2 + 1`` at ``sys.maxsize``."""
    split = sentinel._supplied_count(pool)
    assert oracle_curve_row(pool, split - 1)["fit"] != FLOAT_MIN
    assert oracle_curve_row(pool, split)["fit"] == FLOAT_MIN


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
        [row[column] for column in COMPARE_CSV_HEADER]
        for row in compare_runs(runs)
    ])
    assert [row[0] for row in csv.reader(io.StringIO(text))] == \
        ["protocol", *sorted(names)]


def assert_blocks_of_whole_lines(blocks, count):
    """``blocks`` hold ``count`` lines in all, each block at most 4 096 whole
    lines, the last one ending in its line end."""
    blocks = list(blocks)
    assert all(block.endswith("\n") and block.count("\n") <= 4096 for block in blocks)
    assert sum(block.count("\n") for block in blocks) == count


def test_csv_producers_stream():
    """Each producer is an iterator, not a list, and yields blocks of whole
    lines, at most 4 096 to a block, on either side of a block boundary."""
    run = run_elastic([2, 5, 2], 3)
    scenario_run = simulate(Scenario(pool_size=3), 5, seed=0)
    for produced in (step_csv_rows(run), scenario_csv_rows(scenario_run),
                     supply_fit_curve(4), curve_csv_rows(4)):
        assert not isinstance(produced, list)
        assert iter(produced) is produced
    for steps in (1, 4_095, 4_096, 4_097, 8_193):
        assert_blocks_of_whole_lines(step_csv_rows(run_elastic([2] * steps, 3)), steps)
        scenario_run = simulate(Scenario(pool_size=3), steps, seed=0)
        assert_blocks_of_whole_lines(scenario_csv_rows(scenario_run), steps)
        assert_blocks_of_whole_lines(curve_csv_rows(steps), steps + 1)


def boundary_trace(steps):
    """The README bursty channel over ``steps`` steps, opening with
    ``1, 5, 5``: a burst in the first review window of any length from 3,
    so a threshold of 0 mutates at the first review."""
    ys = list(generate_trace(
        BurstyChannel(p_enter=0.05, p_exit=0.3, y_calm=1, y_burst=5, seed=17), steps).y)
    ys[:3] = [1, 5, 5][:steps]
    return ys


@pytest.mark.parametrize("steps", [1, 4_095, 4_096, 4_097, 8_193])
def test_step_csv_across_block_boundaries_matches_oracle(steps):
    """Elastic and entelechial runs of each length write the oracle's rows
    byte for byte, in blocks of whole lines."""
    trace = boundary_trace(steps)
    for run, _ in (assert_elastic_matches_oracle(trace, 4),
                   assert_entelechial_matches_oracle(trace, WindowMax(8), 1.5)):
        assert_blocks_of_whole_lines(step_csv_rows(run), steps)


# (steps, review_every, depth): the mutation at step 4 095, the last line of
# the first block, then the mutation where a trailing one-step interleave
# block follows, at each length past one block.
MUTATION_BOUNDARY_CASES = [
    *((steps, 4_095, 4) for steps in (4_096, 4_097, 8_193)),
    (4_095, 4, 2), (4_096, 3, 2), (4_097, 4, 2), (8_193, 4, 2),
]


@pytest.mark.parametrize("steps, review_every, depth", MUTATION_BOUNDARY_CASES)
def test_antifragile_step_csv_across_block_boundaries_matches_oracle(
        steps, review_every, depth):
    config = AntifragileEvolving(predictor=WindowMax(8), epsilon=1.5,
                                 epochs_per_review=review_every,
                                 burstiness_threshold=0.0, interleave_depth=depth)
    run, _ = assert_antifragile_matches_oracle(boundary_trace(steps), config)
    assert run.mutation_step == review_every
    if review_every < 4_095:
        assert (steps - run.mutation_step) % depth == 1  # a trailing one-step block
    assert_blocks_of_whole_lines(step_csv_rows(run), steps)


@pytest.mark.parametrize("steps, review_every", [(4_095, 8), (4_096, 7), (4_097, 8)])
def test_step_lines_take_cost_and_algorithm_from_their_segment(steps, review_every):
    """(y, Y, delivered) = (2, 3, true) on both sides of the mutation: before
    it the line has cost Y and "repetition", after it cost 2 and
    "interleaved", and in the trailing one-step block cost 1."""
    config = AntifragileEvolving(predictor=WindowMax(1), epsilon=1.0,
                                 epochs_per_review=review_every,
                                 burstiness_threshold=0.0, interleave_depth=2)
    run, _ = assert_antifragile_matches_oracle([1, 5, 5] + [2] * (steps - 3), config)
    assert run.mutation_step == review_every
    lines = list(csv_lines(step_csv_rows(run)))
    assert len(lines) == steps
    tail = ",2,3,true,overshoot,1"
    assert lines[review_every - 1] == f"{review_every - 1}{tail},3,repetition\n"
    assert lines[review_every] == f"{review_every}{tail},2,interleaved\n"
    assert lines[-2] == f"{steps - 2}{tail},2,interleaved\n"
    assert lines[-1] == f"{steps - 1}{tail},1,interleaved\n"


def test_a_percent_in_a_step_tail_is_written_literally(monkeypatch):
    """A line's format doubles any ``%`` of its tail, so only ``t`` is filled in."""
    monkeypatch.setattr(channel, "_csv_tail", lambda *key: ",100%d%%s\n")
    run = run_elastic([2, 5, 2], 3)
    assert "".join(step_csv_rows(run)) == "".join(f"{t},100%d%%s\n" for t in range(3))


def test_simulate_estimates_supply_once_per_step(monkeypatch):
    calls = []

    def recording_estimate_supply(pool):
        calls.append(pool.size)
        return estimate_supply(pool)

    monkeypatch.setattr(sentinel, "estimate_supply", recording_estimate_supply)
    scenario = SCENARIOS["hazardous"]
    decided_early = 0
    for seed in range(20):
        calls.clear()
        run = simulate(scenario, 300, seed)
        decided = [s for s in (run.evacuation_step, run.miner_failed_step)
                   if s is not None]
        # One estimate per step up to and including the decision, none after.
        estimated = min(decided) + 1 if decided else len(run.steps)
        assert calls == [scenario.pool_size] * estimated
        decided_early += estimated < len(run.steps)
    assert decided_early > 0


# ---------------------------------------------------------------------------
# The scenario premise


figure_sets = st.frozensets(st.sampled_from(["gas_level", "humidity", "noise", "x"]))


@settings(max_examples=500, deadline=None)
@given(mine=figure_sets, miner=figure_sets, canary=figure_sets)
@example(**PREMISE_EXAMPLES["accepted"])
@example(**PREMISE_EXAMPLES["the miner does not cover the mine"])
@example(**PREMISE_EXAMPLES["nested perceptions"])
def test_scenario_premise_matches_set_checks(mine, miner, canary):
    assert_premise_matches_oracle(mine, miner, canary)
