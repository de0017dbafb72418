"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s`` or in the captured output of a failing run). Oracle values
are computed independently inside each test rather than copied from the
implementation.
"""

import itertools
import json
import random
import time

import pytest

from resilsim.behavior import (
    BehaviorClass,
    BehaviorDescriptor,
    FigureSpec,
    encode,
    distance,
    precedes,
)
from resilsim.channel import (
    AntifragileEvolving,
    BurstyChannel,
    KnowledgeStore,
    RandomWalkChannel,
    Teleconferencing,
    WindowMax,
    generate_trace,
    run_antifragile,
    run_elastic,
    run_entelechial,
)
from resilsim.cli import main
from resilsim.fitness import (
    BASELINE,
    QUADRATIC,
    Direction,
    FitVariant,
    TurbulenceTrace,
    fit,
    fit_timeline,
    resolve_direction,
)
from resilsim.sentinel import FLOAT_MIN, Scenario, supply_fit_curve, survival_rate

PUR = BehaviorClass.PURPOSEFUL


def report(number: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} {detail}".rstrip())
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# Criteria 1-2: order axioms and the behavioral metric


def test_criterion_01_order_axioms(universe):
    started = time.perf_counter()
    assert len(universe) == 160
    pairs = 0
    reflexive_violations = sum(1 for b in universe if precedes(b, b))
    conflicts = 0
    for b1, b2 in itertools.permutations(universe, 2):
        pairs += 1
        forward = resolve_direction(b1, b2)
        backward = resolve_direction(b2, b1)
        mirror = {
            Direction.SYSTEM_DOMINATES: Direction.ENVIRONMENT_DOMINATES,
            Direction.ENVIRONMENT_DOMINATES: Direction.SYSTEM_DOMINATES,
            Direction.EQUAL: Direction.EQUAL,
            Direction.INCOMMENSURABLE: Direction.INCOMMENSURABLE,
        }
        assert backward is mirror[forward], (b1, b2)
        if precedes(b1, b2) and precedes(b2, b1):
            conflicts += 1
            # The only raw antisymmetry violation shape: inclusion against
            # the social flag. The tie-break must follow inclusion.
            assert b1.klass is b2.klass and b1.social != b2.social
            social, plain = (b1, b2) if b1.social else (b2, b1)
            assert social.figures.names < plain.figures.names
            assert resolve_direction(plain, social) is Direction.SYSTEM_DOMINATES
    elapsed = time.perf_counter() - started
    ok = (pairs == 25_440 and reflexive_violations == 0 and conflicts > 0
          and elapsed < 1.0)
    report(1, ok, f"{pairs} pairs, 0 reflexive, {conflicts} resolved conflicts, "
                  f"{elapsed:.2f}s")


def _random_descriptor(rng: random.Random) -> BehaviorDescriptor:
    klass = rng.choice(list(BehaviorClass))
    if rng.random() < 0.5:
        names = rng.sample(["a", "b", "c", "d", "e", "f", "g"], rng.randrange(0, 6))
        figures = FigureSpec.named(names)
    else:
        figures = FigureSpec.of_order(rng.randrange(0, 500))
    return BehaviorDescriptor(klass, figures, rng.random() < 0.5)


def test_criterion_02_metric_suite(universe):
    rng = random.Random(20_240_601)
    for _ in range(10_000):
        a, b, c = (_random_descriptor(rng) for _ in range(3))
        assert distance(a, b) >= 0
        assert distance(a, b) == distance(b, a)
        assert (distance(a, b) == 0) == (encode(a) == encode(b))
        assert distance(a, c) <= distance(a, b) + distance(b, c)
    same_class_pairs = 0
    for b1, b2 in itertools.combinations(universe, 2):
        if b1.klass is b2.klass:
            same_class_pairs += 1
            expected = abs(b1.figures.cardinality - b2.figures.cardinality)
            assert distance(b1, b2) == expected
    report(2, True, f"10000 triples, {same_class_pairs} same-class pairs exact")


# ---------------------------------------------------------------------------
# Criteria 3-5: fit endpoints, the two figure reconstructions


def test_criterion_03_fit_endpoints():
    assert fit(0, BASELINE).value == 1.0
    for variant in (BASELINE, QUADRATIC):
        values = [fit(s, variant).value for s in range(0, 101)]
        assert all(a > b for a, b in zip(values, values[1:]))
    for s in range(-100, 0):
        for variant in (BASELINE, QUADRATIC, FitVariant("plateau", 5)):
            assert fit(s, variant).lost_identity
    for width in (0, 1, 3, 10):
        variant = FitVariant("plateau", width)
        assert all(fit(s, variant).value == 1.0 for s in range(0, width + 1))
        assert fit(width + 1, variant).value < 1.0
    report(3, True, "endpoints exact, monotonicity exact, sentinel exact")


def test_criterion_04_fit_timeline_reconstruction():
    system = TurbulenceTrace.from_pairs(
        [(0, BehaviorDescriptor(PUR, FigureSpec.named({"1", "2", "3", "4"})))]
    )
    segments = [
        {"1", "2", "3", "4"},
        {"1", "4"},
        {"4"},
        {"1", "2", "3", "4"},
        {"1", "2", "3", "4", "5"},
    ]
    environment = TurbulenceTrace.from_pairs(
        (t, BehaviorDescriptor(PUR, FigureSpec.named(figures)))
        for t, figures in enumerate(segments)
    )
    points = fit_timeline(system, environment, BASELINE)
    supplies = [p.supply for p in points]
    ok = supplies == [0, 2, 3, 0, -1]
    fits = [p.fit for p in points]
    ok = ok and fits[0].value == 1.0 and fits[1].value == 1.0 / 3.0
    ok = ok and fits[2].value == 1.0 / 4.0 and fits[3].value == 1.0
    ok = ok and fits[4].lost_identity
    report(4, ok, f"supplies {supplies}")


def test_criterion_05_supply_fit_curve():
    rows = list(supply_fit_curve(100))
    ok = len(rows) == 101
    for f, (failed, s, value) in enumerate(rows):
        assert failed == f
        assert s == 50.0 - f
        if f <= 50:
            assert value == 1.0 / (51.0 - f)
        else:
            assert value == FLOAT_MIN
    report(5, ok, "101 rows match the estimation formulas exactly")


# ---------------------------------------------------------------------------
# Criteria 6-8: channel protocol properties


def test_criterion_06_shannon_property():
    started = time.perf_counter()
    checked = 0
    for ys in itertools.product(range(1, 5), repeat=6):
        yield_point = max(ys) + 1
        run = run_elastic(list(ys), yield_point)
        assert run.undershoot_count == 0
        assert run.cumulative_overshoot == sum(yield_point - y for y in ys)
        checked += 1
    elapsed = time.perf_counter() - started
    ok = checked == 4096 and elapsed < 1.0
    report(6, ok, f"{checked} traces exhaustively, {elapsed:.2f}s")


WALK = dict(y0=3, step_prob=0.2, y_min=1, y_max=6)


def test_criterion_07_margin_compliance():
    epsilon = 1.5
    non_warning = 0
    for seed in range(100):
        trace = generate_trace(RandomWalkChannel(seed=seed, **WALK), 1000)
        run = run_entelechial(trace, WindowMax(8), epsilon)
        assert len(run.yields) == len(run.prediction) == len(run.margin_warning) == 1000
        for yield_point, prediction, margin_warning in zip(
                run.yields, run.prediction, run.margin_warning):
            gap = yield_point - prediction
            if margin_warning:
                assert gap >= epsilon
            else:
                non_warning += 1
                assert 0 < gap < epsilon
    report(7, True, f"{non_warning} non-warning steps satisfy the margin inequality")


def test_criterion_08_entelechial_beats_elastic():
    started = time.perf_counter()
    epsilon = 1.5
    wins = 0
    worst_undershoot_fraction = 0.0
    for seed in range(100):
        trace = generate_trace(RandomWalkChannel(seed=seed, **WALK), 1000)
        elastic = run_elastic(trace, 7)
        entelechial = run_entelechial(trace, WindowMax(8), epsilon)
        if entelechial.cumulative_overshoot < elastic.cumulative_overshoot:
            wins += 1
        fraction = entelechial.undershoot_count / 1000
        worst_undershoot_fraction = max(worst_undershoot_fraction, fraction)
        assert fraction <= 0.05
    elapsed = time.perf_counter() - started
    ok = wins >= 95 and elapsed < 10.0
    report(8, ok, f"{wins}/100 overshoot wins, worst undershoot fraction "
                  f"{worst_undershoot_fraction:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criteria 9-10: the antifragile claim and monotone improvement


BURSTY = dict(p_enter=0.05, p_exit=0.3, y_calm=1, y_burst=5, burst_correlated=True)
REVIEW = 50


@pytest.fixture(scope="module")
def bursty_experiment():
    experiment = []
    for seed in range(100):
        trace = generate_trace(BurstyChannel(seed=seed, **BURSTY), 2000)
        entelechial = run_entelechial(trace, WindowMax(8), 1.5)
        file_transfer, _ = run_antifragile(
            trace,
            AntifragileEvolving(WindowMax(8), 1.5, epochs_per_review=REVIEW),
            KnowledgeStore(),
        )
        teleconf, _ = run_antifragile(
            trace,
            AntifragileEvolving(
                WindowMax(8), 1.5, epochs_per_review=REVIEW,
                identity_profile=Teleconferencing(jitter_bound=0.5),
            ),
            KnowledgeStore(),
        )
        experiment.append({
            "trace": trace,
            "entelechial": entelechial,
            "file_transfer": file_transfer,
            "teleconf": teleconf,
        })
    return experiment


def test_criterion_09_antifragile_dominates_after_learning(bursty_experiment):
    dominated = 0
    mutated = 0
    violated_when_mutated = 0
    for entry in bursty_experiment:
        ent = entry["entelechial"]
        ant = entry["file_transfer"]
        assert ant.identity_violations == 0  # file transfer: never an identity loss
        if (ant.delivered_fraction >= ent.delivered_fraction
                and ant.total_cost <= ent.total_cost):
            dominated += 1
        tc = entry["teleconf"]
        if tc.mutations:
            mutated += 1
            if tc.identity_violations > 0:
                violated_when_mutated += 1
    ok = dominated >= 90 and mutated > 0 and violated_when_mutated == mutated
    report(9, ok, f"{dominated}/100 dominate, {mutated} mutated runs all "
                  f"register jitter violations")


def _epoch_average_fits(run, start, end):
    """Epoch-averaged fit over review epochs fully inside [start, end).

    Fit comes from supply = Y - y through the fitness module; identity-loss
    steps contribute 0.0 so the average stays bounded.
    """
    values = []
    for y, yield_point in zip(run.y, run.yields, strict=True):
        outcome = fit(yield_point - y, BASELINE)
        values.append(0.0 if outcome.lost_identity else outcome.value)
    averages = []
    epoch = (start + REVIEW - 1) // REVIEW
    while (epoch + 1) * REVIEW <= end:
        window = values[epoch * REVIEW:(epoch + 1) * REVIEW]
        averages.append(sum(window) / len(window))
        epoch += 1
    return averages


def test_criterion_10_monotone_improvement(bursty_experiment):
    segments_checked = 0
    epochs_checked = 0

    def check(trace, run):
        nonlocal segments_checked, epochs_checked
        for label, start, end in trace.regime_segments():
            if end - start < 200:
                continue
            averages = _epoch_average_fits(run, start, end)
            segments_checked += 1
            epochs_checked += len(averages)
            assert all(b >= a for a, b in zip(averages, averages[1:])), (
                label, start, end, averages,
            )

    for entry in bursty_experiment:
        check(entry["trace"], entry["file_transfer"])
    criterion_segments = segments_checked
    # The criterion-9 burst mix rarely sustains a regime for 200 steps, so
    # the check above is near-vacuous by construction. Exercise the same
    # property on rare-burst traces whose calm segments are long enough.
    for seed in range(20):
        trace = generate_trace(
            BurstyChannel(p_enter=0.002, p_exit=0.1, y_calm=1, y_burst=5,
                          seed=seed),
            2000,
        )
        run, _ = run_antifragile(
            trace,
            AntifragileEvolving(WindowMax(8), 1.5, epochs_per_review=REVIEW),
            KnowledgeStore(),
        )
        check(trace, run)
    ok = segments_checked > criterion_segments
    report(10, ok, f"non-decreasing in {segments_checked} constant-regime "
                   f"segments ({epochs_checked} epochs; {criterion_segments} "
                   f"from criterion-9 runs)")


# ---------------------------------------------------------------------------
# Criterion 11: sentinel uplift


def test_criterion_11_sentinel_uplift():
    started = time.perf_counter()
    with_pool = survival_rate(Scenario(), steps=500, runs=1000, base_seed=0)
    baseline = survival_rate(Scenario(pool_size=0), steps=500, runs=1000, base_seed=0)
    elapsed = time.perf_counter() - started
    uplift = with_pool["survival_rate"] - baseline["survival_rate"]
    ok = with_pool["survival_rate"] > baseline["survival_rate"] and elapsed < 30.0
    report(11, ok, f"survival {with_pool['survival_rate']:.3f} vs baseline "
                   f"{baseline['survival_rate']:.3f} (uplift {uplift:+.3f}), "
                   f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 12: command determinism


CHANNEL_CONFIG = {
    "channel": {"kind": "bursty", "p_enter": 0.05, "p_exit": 0.3,
                "y_calm": 1, "y_burst": 5},
    "steps": 500,
    "seed": 17,
    "protocols": [
        {"kind": "elastic", "yield_point": 6},
        {"kind": "entelechial",
         "predictor": {"kind": "window_max", "window": 8}, "epsilon": 1.5},
        {"kind": "antifragile",
         "predictor": {"kind": "window_max", "window": 8}, "epsilon": 1.5,
         "identity_profile": {"kind": "teleconferencing", "jitter_bound": 0.5}},
    ],
}

SENTINEL_CONFIG = {"pool_size": 100, "steps": 300, "seed": 23}


def _tree_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.is_file()}


def test_criterion_12_determinism(tmp_path):
    channel_config = tmp_path / "channel.json"
    channel_config.write_text(json.dumps(CHANNEL_CONFIG))
    sentinel_config = tmp_path / "sentinel.json"
    sentinel_config.write_text(json.dumps(SENTINEL_CONFIG))

    pairs = []
    for name, args in (
        ("channel", ["channel", "-c", str(channel_config)]),
        ("sentinel", ["sentinel", "-c", str(sentinel_config), "--curve", "100"]),
        ("batch", ["sentinel", "-c", str(sentinel_config), "--runs", "50"]),
    ):
        out1 = tmp_path / f"{name}_one"
        out2 = tmp_path / f"{name}_two"
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        pairs.append((name, _tree_bytes(out1) == _tree_bytes(out2)))
    ok = all(identical for _, identical in pairs)
    report(12, ok, "byte-identical reruns: " +
                   ", ".join(name for name, _ in pairs))
