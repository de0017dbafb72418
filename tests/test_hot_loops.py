"""Equivalence of the linear, columnar hot loops with the original code.

The oracles are the earlier implementations, kept verbatim in substance.
Below: the per-step ``StepRecord``/``shooting`` builders of the three
protocol runs (the antifragile one with its prefix-rescanning review pass
and per-epoch rescanning identity accounting), with the per-step
prediction loop of ``oracles.py`` and their own exact jitter reference so
that they share neither with the code under test; the step CSV rows and
mean step fit read from those records, and the set checks of the scenario
premise. From ``oracles.py``: the canary pool that keeps one flag per
canary and the sentinel simulation that built one ``ScenarioStep`` per
step. The current code must agree with them exactly, including the random
draws consumed and the float sums.
The CSV producers stream finished lines; their oracles are the earlier
tuple and dict row builders, written through ``csv.writer`` as the command
line used to write them.
"""

import csv
import decimal
import io
import itertools
import json
import math
import random
import statistics
import sys
import tracemalloc
from array import array
from dataclasses import dataclass, replace
from fractions import Fraction

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
    ChannelTrace,
    _jitter,
    _signature,
    as_trace,
    burstiness,
    compare_runs,
    config_dict,
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
    estimate_supply,
    scenario_csv_rows,
    simulate,
    supply_fit_curve,
    survival_rate,
)

from oracles import (
    ODD_POOL_FIT_POLICY,
    OraclePool,
    oracle_simulate,
    predict_yields,
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


def exact_jitter(times):
    """The population standard deviation of the gaps between ``times``, not
    using ``_jitter``: the exact variance as a Fraction, from the deviations
    from the exact mean, and its root by ``decimal`` at 80 digits, then
    ``float``."""
    gaps = [b - a for a, b in zip(times, times[1:])]
    if not gaps:
        return 0.0
    mean = Fraction(sum(gaps), len(gaps))
    variance = sum((gap - mean) ** 2 for gap in gaps) / len(gaps)
    context = decimal.Context(prec=80)
    return float(context.sqrt(context.divide(
        decimal.Decimal(variance.numerator), decimal.Decimal(variance.denominator))))


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
    yields, predictions, warns = predict_yields(ys, predictor, epsilon)
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


def assert_run_matches_records(run, records, predictor=None):
    """Every column, aggregate and CSV row equals the one read from the
    records, and so do the predictions of ``predictor``, the run's own."""
    assert run.y == tuple(s.y for s in records)
    assert list(run.yields) == [s.yield_point for s in records]
    assert list(run.costs()) == [s.cost for s in records]
    assert list(run.delivered) == [int(s.delivered) for s in records]
    assert [t if d else None for t, d in zip(run.arrivals(), run.delivered)] == \
        [s.delivered_at for s in records]
    assert list(run.algorithms()) == [s.algorithm for s in records]
    if all(s.prediction is None for s in records):  # elastic: no predictor
        assert predictor is None and run.margin_warning is None
    else:
        assert list(predictor.predictions(run.y)) == [s.prediction for s in records]
        assert list(run.margin_warning) == [s.margin_warning for s in records]
    assert run.undershoot_count == sum(
        1 for s in records if s.shoot.kind is ShootKind.UNDERSHOOT)
    assert run.cumulative_overshoot == float(sum(
        s.shoot.magnitude for s in records if s.shoot.kind is ShootKind.OVERSHOOT))
    assert run.total_cost == sum(s.cost for s in records)
    assert run.delivered_fraction == sum(1 for s in records if s.delivered) / len(records)
    assert run.jitter == exact_jitter(
        sorted(s.delivered_at for s in records if s.delivered_at is not None))
    assert "".join(step_csv_rows(run)) == csv_text(oracle_step_csv_rows(records))


def oracle_run_antifragile(trace, config, store):
    """The original run_antifragile, with its quadratic review and accounting."""
    trace = as_trace(trace)
    ys = trace.y
    n = len(ys)
    review_every = config.epochs_per_review
    yields, predictions, warns = predict_yields(ys, config.predictor, config.epsilon)

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
            if exact_jitter(epoch_times) > bound:
                violations += 1
    return records, violations, mutations


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


# Interleaving edge cases, each with the mutation (step, signature, depth)
# it reaches. BURST_ONSET reviewed every 3 steps reads burstiness 1.0 at
# step 3; with depth 3 the blocks after it are [3, 4, 5] and [6], a trailing
# one-step block. Under WindowMax(1) step 5 undershoots (Y = 2, y = 5) and
# only its copy on step 3 delivers it, which uncorrelated losses forbid.
# Two more steps make the blocks [3, 4, 5] and [6, 7, 8], no trailing block;
# with depth 6 the four steps after step 3 are one trailing block.
# LOW_THEN_HIGH reviewed every 6 steps reads 0.5 ("bursty-low") at step 6
# and 1.0 ("bursty-high") at step 12.
BURST_ONSET = (1, 5, 5, 5, 1, 5, 5)
LOW_THEN_HIGH = (5, 5, 1, 5, 1, 5, 5, 5, 5, 5, 1, 1, 5, 1, 5, 5, 1)
EDGE_CASES = {
    "trailing one-step block": (
        dict(trace=list(BURST_ONSET), review_every=3, depth=3, lessons=[]),
        (3, "bursty-high", 3)),
    "uncorrelated bursts": (
        dict(trace=ChannelTrace(BURST_ONSET, burst_correlated=False),
             review_every=3, depth=3, lessons=[]),
        (3, "bursty-high", 3)),
    "stored repetition, then a mutation": (
        dict(trace=list(LOW_THEN_HIGH), review_every=6, depth=4, lessons=[
            {"signature": "bursty-low", "algorithm": "repetition", "depth": 4}]),
        (12, "bursty-high", 4)),
    "stored depth below 2": (
        dict(trace=list(BURST_ONSET), review_every=3, depth=3, lessons=[
            {"signature": "bursty-high", "algorithm": "interleaved", "depth": 1}]),
        (3, "bursty-high", 3)),
    "full blocks only": (
        dict(trace=[*BURST_ONSET, 1, 5], review_every=3, depth=3, lessons=[]),
        (3, "bursty-high", 3)),
    "fewer steps than the depth": (
        dict(trace=list(BURST_ONSET), review_every=3, depth=6, lessons=[]),
        (3, "bursty-high", 6)),
}


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
    store, oracle_store = KnowledgeStore(lessons), KnowledgeStore(lessons)
    run = run_antifragile(trace, config, store)
    records, violations, mutations = oracle_run_antifragile(trace, config, oracle_store)
    assert run.identity_violations == violations
    assert run.mutations == mutations
    assert_run_matches_records(run, records, predictor)
    assert store.to_dict() == oracle_store.to_dict()
    delivered = list(itertools.compress(run.arrivals(), run.delivered))
    assert delivered == sorted(delivered)


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
    for column in ("yields", "margin_warning"):
        assert list(getattr(run, column)) == list(getattr(entelechial, column))
    assert run.header == entelechial.header | {
        "protocol": "antifragile",
        "epochs_per_review": review_every,
        "identity_profile": config_dict(profile),
        "burstiness_threshold": threshold,
    }
    until = run.mutations[0]["step"] if run.mutations else len(run.y)
    assert run.delivered[:until] == entelechial.delivered[:until]
    for derived in ("arrivals", "costs", "algorithms"):
        assert list(getattr(run, derived)())[:until] == \
            list(getattr(entelechial, derived)())[:until]


def test_bursty_readme_trace_matches_oracle():
    """A long README-style trace that mutates and violates identity."""
    trace = generate_trace(
        BurstyChannel(p_enter=0.05, p_exit=0.3, y_calm=1, y_burst=5, seed=17), 5_000
    )
    config = AntifragileEvolving(
        predictor=WindowMax(8), epsilon=1.5, epochs_per_review=50,
        identity_profile=Teleconferencing(jitter_bound=0.5),
    )
    run = run_antifragile(trace, config, KnowledgeStore())
    records, violations, mutations = oracle_run_antifragile(
        trace, config, KnowledgeStore())
    assert mutations and violations > 0
    assert (run.identity_violations, run.mutations) == (violations, mutations)
    assert_run_matches_records(run, records, config.predictor)
    for variant in FIT_VARIANTS:
        assert mean_step_fit(run, variant) == oracle_mean_step_fit(records, variant)


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
    assert len(reviews) == len(trace) // 50


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
    delivered = list(itertools.compress(run.arrivals(), run.delivered))
    assert delivered == sorted(delivered)


@settings(max_examples=200, deadline=None)
@given(trace=channel_traces, predictor=predictors, epsilon=st.floats(0.1, 3.0),
       variant=st.sampled_from(FIT_VARIANTS))
@example(trace=[1, 2, 3, 6, 1], predictor=WindowMax(1), epsilon=2.0,
         variant=QUADRATIC)  # undershoots
def test_run_entelechial_matches_oracle(trace, predictor, epsilon, variant):
    run = run_entelechial(trace, predictor, epsilon)
    records = oracle_run_entelechial(trace, predictor, epsilon)
    assert_run_matches_records(run, records, predictor)
    assert mean_step_fit(run, variant) == oracle_mean_step_fit(records, variant)
    delivered = list(itertools.compress(run.arrivals(), run.delivered))
    assert delivered == sorted(delivered)


def test_oracle_examples_undershoot_and_lose_identity():
    """The strategies reach identity loss; the float sums are not trivial."""
    trace = generate_trace(
        RandomWalkChannel(y0=3, step_prob=0.2, y_min=1, y_max=6, seed=5), 20_000)
    for run, records, predictor in (
        (run_elastic(trace, 4), oracle_run_elastic(trace, 4), None),
        (run_entelechial(trace, EwmaPlusSlope(), 1.5),
         oracle_run_entelechial(trace, EwmaPlusSlope(), 1.5), EwmaPlusSlope()),
    ):
        assert run.undershoot_count > 0
        assert any(fit(s.yield_point - s.y).lost_identity for s in records)
        assert_run_matches_records(run, records, predictor)
        for variant in FIT_VARIANTS:
            assert mean_step_fit(run, variant) == oracle_mean_step_fit(records, variant)


# ---------------------------------------------------------------------------
# Predictor kernels


@settings(max_examples=300, deadline=None)
@given(ys=plain_traces, predictor=predictors | st.integers(1, 12).map(WindowMax))
@example(ys=[3], predictor=WindowMax(8))
@example(ys=[3], predictor=EwmaPlusSlope())
@example(ys=[3, 1], predictor=WindowMax(8))
@example(ys=[3, 1], predictor=EwmaPlusSlope())
@example(ys=[1, 5, 2, 2, 6, 1], predictor=WindowMax(1))
def test_predictions_match_the_observe_predict_loop(ys, predictor):
    """One ``predictions`` call gives the floats of the observe/predict loop
    bit for bit, for windows shorter and longer than the trace, and for
    windows of 1, n//2, n-1, n and n+1 steps of an n-step trace."""
    n = len(ys)
    windows = {w for w in (1, n // 2, n - 1, n, n + 1) if w >= 1}
    for predictor in (predictor, *map(WindowMax, sorted(windows))):
        _, expected, _ = predict_yields(ys, predictor, 1.0)
        columns = predictor.predictions(tuple(ys))
        assert type(columns) is array and columns.typecode == "d"
        assert [p.hex() for p in columns] == [p.hex() for p in expected]


def test_a_trace_keeps_the_columns_of_its_last_predictor_pass():
    """An epsilon sweep leaves one set of columns on the trace, those of the
    last run; the memo is no part of the trace's value."""
    trace = generate_trace(
        BurstyChannel(p_enter=0.05, p_exit=0.3, y_calm=1, y_burst=5, seed=17), 2_000)
    runs = [run_entelechial(trace, WindowMax(8), epsilon) for epsilon in (0.5, 1.0, 1.5)]
    key, columns = trace._columns
    assert key == (WindowMax(8), 1.5)
    assert columns == (runs[-1].yields, runs[-1].margin_warning)
    assert isinstance(runs[-1].yields, tuple) and isinstance(runs[-1].margin_warning, bytes)
    fresh = replace(trace)
    assert fresh._columns is None
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
    return run, (retained - before) / len(trace), (peak - before) / len(trace)


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
    and a byte of margin flags per step; the trace's ``y`` is shared. Per-step
    int, float or string objects would take 72 bytes or more."""
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
        lambda trace: generate_trace(WALK, len(trace)), WALK_TRACE)
    assert trace == WALK_TRACE
    assert retained <= 9


def test_an_elastic_run_keeps_at_most_10_bytes_per_step():
    """An elastic run has no predictor: it stores its yields column and a
    byte of delivery per step, and no margin-warning column."""
    run, retained, _ = traced_bytes_per_step(lambda trace: run_elastic(trace, 7), WALK_TRACE)
    assert run.margin_warning is None
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


def assert_run_matches_oracle(scenario, steps, seed, until_decided):
    """The run's CSV lines equal those of the oracle's own step records,
    and its columns, decisions, header and summary equal the oracle's."""
    run = simulate(scenario, steps, seed, until_decided=until_decided)
    oracle = oracle_simulate(scenario, steps, seed, until_decided)
    assert run.steps == range(len(oracle.steps))
    assert "".join(scenario_csv_rows(run)) == \
        csv_text(oracle_scenario_csv_rows(oracle.steps))
    assert run.mine_state == [s.mine_state for s in oracle.steps]
    assert run.canaries_alive == [s.canaries_alive for s in oracle.steps]
    assert (run.survived, run.evacuation_step, run.miner_failed_step) == \
        (oracle.survived, oracle.evacuation_step, oracle.miner_failed_step)
    assert run.header == oracle.header
    assert json.dumps(run.to_dict(), sort_keys=True) == \
        json.dumps(oracle.to_dict(), sort_keys=True)


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
        short_lines = list(scenario_csv_rows(short))
        assert short_lines == list(scenario_csv_rows(full))[:k]
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


def oracle_scenario_csv_rows(records):
    """The earlier scenario_csv_rows over the oracle's ``ScenarioStep``
    records: one tuple of cells per step."""
    rows = []
    for step in records:
        if step.supply is None:
            supply_text = ""
            fit_text = ""
        else:
            supply_text = repr(step.supply)
            fit_text = FLOAT_MIN_LABEL if step.fit == FLOAT_MIN else repr(step.fit)
        rows.append((
            str(step.t),
            step.mine_state,
            str(step.canaries_alive),
            supply_text,
            fit_text,
            "true" if step.miner_alive else "false",
            "true" if step.evacuated else "false",
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


def oracle_premise_error(mine, miner, canary):
    """The message of the set checks ``Scenario`` made on its figure sets
    before it asked the calculus, or None when they accept. The last check
    cannot reject once the first accepts: the miner then holds a figure
    outside the mine, and the canary holds the threat figure."""
    if not (mine - {"t"}) < miner:
        return "miner must strictly cover the mine's context besides the threat figure"
    if miner <= canary or canary <= miner:
        return "miner and canary perceptions must be mutually non-nested"
    if not mine < (miner | canary):
        return "the joint perception must strictly cover the mine's context set"
    return None


figure_sets = st.frozensets(st.sampled_from(["gas_level", "humidity", "noise", "x"]))


@settings(max_examples=500, deadline=None)
@given(mine=figure_sets, miner=figure_sets, canary=figure_sets)
@example(mine=frozenset({"gas_level"}), miner=frozenset({"gas_level", "x"}),
         canary=frozenset({"noise"}))  # accepted
@example(mine=frozenset({"gas_level"}), miner=frozenset({"x"}),
         canary=frozenset())  # the miner does not cover the mine
@example(mine=frozenset(), miner=frozenset({"x"}),
         canary=frozenset({"x"}))  # nested perceptions
def test_scenario_premise_matches_set_checks(mine, miner, canary):
    mine, canary = mine | {"t"}, canary | {"t"}
    expected = oracle_premise_error(mine, miner, canary)
    parts = dict(mine=CoalMine(mine), miner=Miner(miner), canary=Canary(canary))
    if expected is None:
        Scenario(**parts)
    else:
        with pytest.raises(ValueError) as raised:
            Scenario(**parts)
        assert str(raised.value) == expected
