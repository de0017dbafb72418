import pytest
from hypothesis import given

from conftest import descriptors
from resilsim.behavior import BehaviorClass, BehaviorDescriptor, FigureSpec, distance
from resilsim.errors import EmptyTraceOverlap, IncommensurableBehaviors
from resilsim.fitness import (
    BASELINE,
    IDENTITY_LOSS,
    QUADRATIC,
    Direction,
    FitVariant,
    ShootKind,
    TurbulenceTrace,
    fit,
    fit_timeline,
    resolve_direction,
    shooting,
    supply,
)

PUR = BehaviorClass.PURPOSEFUL
PRO = BehaviorClass.PROACTIVE


def desc(klass, figures, social=False):
    if isinstance(figures, int):
        spec = FigureSpec(count=figures)
    else:
        spec = FigureSpec(names=figures)
    return BehaviorDescriptor(klass, spec, social)


MINER_M = desc(PUR, {"gas_level", "humidity", "temperature", "vibration"})
CANARY_M = desc(PUR, {"t", "gas_level", "noise"})


class TestResolveDirection:
    def test_equal(self):
        b = desc(PUR, {"a"})
        assert resolve_direction(b, b) is Direction.EQUAL

    def test_incommensurable(self):
        assert resolve_direction(MINER_M, CANARY_M) is Direction.INCOMMENSURABLE

    def test_single_direction(self):
        small = desc(PUR, {"a"})
        large = desc(PUR, {"a", "b"})
        assert resolve_direction(large, small) is Direction.SYSTEM_DOMINATES
        assert resolve_direction(small, large) is Direction.ENVIRONMENT_DOMINATES

    def test_inclusion_beats_social(self):
        # Raw order points both ways here: inclusion says the social
        # descriptor is below, the social flag says it is above.
        system = desc(PUR, {"a", "b"}, social=False)
        environment = desc(PUR, {"a"}, social=True)
        assert resolve_direction(system, environment) is Direction.SYSTEM_DOMINATES
        assert resolve_direction(environment, system) is Direction.ENVIRONMENT_DOMINATES


class TestSupply:
    def test_oversupply(self):
        system = desc(PUR, {"a", "b", "c"})
        environment = desc(PUR, {"a"})
        assert supply(system, environment) == 2

    def test_equal_behaviors(self):
        b = desc(PUR, {"a"})
        assert supply(b, b) == 0

    def test_undersupply_one_extra_env_figure(self):
        system = desc(PUR, {"1", "2", "3", "4"})
        environment = desc(PUR, {"1", "2", "3", "4", "5"})
        assert supply(system, environment) == -1

    def test_incommensurable_raises(self):
        with pytest.raises(IncommensurableBehaviors):
            supply(MINER_M, CANARY_M)

    @given(descriptors, descriptors)
    def test_sign_coherence(self, system, environment):
        direction = resolve_direction(system, environment)
        if direction is Direction.INCOMMENSURABLE:
            return
        value = supply(system, environment)
        if direction is Direction.EQUAL:
            assert value == 0
        elif direction is Direction.SYSTEM_DOMINATES:
            assert value == distance(system, environment)
        else:
            assert value == -distance(system, environment)


class TestFit:
    def test_perfect(self):
        assert fit(0) == fit(0, BASELINE)
        assert fit(0).value == 1.0

    def test_baseline_penalty(self):
        assert fit(2).value == 1.0 / 3.0

    def test_identity_loss_for_all_variants(self):
        for variant in (BASELINE, QUADRATIC, FitVariant("plateau", 3)):
            assert fit(-1, variant) is IDENTITY_LOSS

    def test_plateau_within_margin(self):
        assert fit(2, FitVariant("plateau", 3)).value == 1.0

    def test_plateau_beyond_margin(self):
        assert fit(5, FitVariant("plateau", 3)).value == 1.0 / 3.0

    def test_quadratic(self):
        assert fit(3, QUADRATIC).value == 0.1

    def test_strictly_decreasing_and_bounded(self):
        for variant in (BASELINE, QUADRATIC, FitVariant("plateau", 2)):
            values = [fit(s, variant).value for s in range(0, 50)]
            assert all(v <= 1.0 for v in values)
            beyond = values[3:]  # past any plateau
            assert all(a > b for a, b in zip(beyond, beyond[1:]))

    def test_variant_parse(self):
        assert FitVariant.parse("baseline") == BASELINE
        assert FitVariant.parse("quadratic") == QUADRATIC
        assert FitVariant.parse("plateau:4") == FitVariant("plateau", 4)
        assert FitVariant.parse("plateau:0") == FitVariant("plateau", 0)
        assert FitVariant.parse("plateau:10") == FitVariant("plateau", 10)
        with pytest.raises(ValueError):
            FitVariant.parse("cubic")

    @pytest.mark.parametrize("text", ["plateau: 2", "plateau:+2", "plateau:02",
                                      "plateau:1_0", "plateau:\u0662"])
    def test_variant_parse_takes_only_the_label_spelling(self, text):
        with pytest.raises(ValueError):
            FitVariant.parse(text)


class TestShooting:
    def test_overshoot(self):
        record = shooting(3, 5)
        assert record.kind is ShootKind.OVERSHOOT
        assert record.magnitude == 2

    def test_undershoot(self):
        record = shooting(7, 5)
        assert record.kind is ShootKind.UNDERSHOOT
        assert record.magnitude == 2

    def test_exact(self):
        record = shooting(5, 5)
        assert record.kind is ShootKind.EXACT
        assert record.magnitude == 0

    @given(descriptors, descriptors)
    def test_supply_sign_matches_shooting_kind(self, a, b):
        # Over/undersupply quantify over/undershooting: same-class
        # yielding-point descriptors agree with the shooting verdict.
        y, yield_point = a.figures.count, b.figures.count
        system = BehaviorDescriptor(PUR, FigureSpec(count=yield_point))
        environment = BehaviorDescriptor(PUR, FigureSpec(count=y))
        record = shooting(y, yield_point)
        value = supply(system, environment)
        if record.kind is ShootKind.OVERSHOOT:
            assert value > 0
        elif record.kind is ShootKind.UNDERSHOOT:
            assert value < 0
        else:
            assert value == 0


def behavior_segments(*figure_sets):
    return TurbulenceTrace(
        (t, desc(PUR, set(figures))) for t, figures in enumerate(figure_sets)
    )


class TestFitTimeline:
    def test_reconstruction_of_constant_system_against_varying_environment(self):
        # Environment affects figures 1..5 over five segments; the system
        # constantly covers 1..4.
        system = TurbulenceTrace([(0, desc(PUR, {"1", "2", "3", "4"}))])
        environment = behavior_segments(
            {"1", "2", "3", "4"},
            {"1", "4"},
            {"4"},
            {"1", "2", "3", "4"},
            {"1", "2", "3", "4", "5"},
        )
        points = fit_timeline(system, environment)
        assert [p.supply for p in points] == [0, 2, 3, 0, -1]
        fits = [p.fit for p in points]
        assert fits[0].value == 1.0
        assert fits[1].value == 1.0 / 3.0
        assert fits[2].value == 1.0 / 4.0
        assert fits[3].value == 1.0
        assert fits[4].lost_identity

    def test_identical_constant_traces(self):
        b = desc(PUR, {"a", "b"})
        trace = TurbulenceTrace([(0, b)])
        points = fit_timeline(trace, trace)
        assert [(p.supply, p.fit.value) for p in points] == [(0, 1.0)]

    def test_incommensurable_steps_carry_marker(self):
        system = TurbulenceTrace([(0, MINER_M)])
        environment = TurbulenceTrace([(0, CANARY_M), (2, MINER_M)])
        points = fit_timeline(system, environment)
        assert [p.marker for p in points] == ["incommensurable", "incommensurable", ""]
        assert points[0].supply is None and points[0].fit is None
        assert points[2].supply == 0

    def test_empty_trace_raises(self):
        trace = TurbulenceTrace([(0, MINER_M)])
        with pytest.raises(EmptyTraceOverlap):
            fit_timeline(TurbulenceTrace(()), trace)

    def test_plateau_variant_flattens_oversupply(self):
        system = TurbulenceTrace([(0, desc(PUR, {"1", "2", "3"}))])
        environment = TurbulenceTrace([(0, desc(PUR, {"1"}))])
        points = fit_timeline(system, environment, FitVariant("plateau", 2))
        assert points[0].supply == 2
        assert points[0].fit.value == 1.0

    def test_trace_requires_increasing_steps(self):
        with pytest.raises(ValueError):
            TurbulenceTrace([(0, MINER_M), (0, MINER_M)])

    def test_trace_keeps_its_pairs_as_a_tuple(self):
        trace = TurbulenceTrace(iter([(0, MINER_M), (2, CANARY_M)]))
        assert trace.steps == ((0, MINER_M), (2, CANARY_M))
        assert {trace, TurbulenceTrace(list(trace.steps))} == {trace}  # hashable, equal
