import itertools

import pytest
from hypothesis import given

from conftest import descriptors, figure_specs
from oracles import oracle_dict
from resilsim.behavior import (
    MAX_CARDINALITY,
    BehaviorClass,
    BehaviorDescriptor,
    FigureSpec,
    commensurable,
    distance,
    encode,
    precedes,
)
from resilsim.cli import ConfigError, _build


def desc(klass, figures, social=False):
    if isinstance(figures, int):
        spec = FigureSpec(count=figures)
    else:
        spec = FigureSpec(names=figures)
    return BehaviorDescriptor(klass, spec, social)


RAN = BehaviorClass.RANDOM
PUR = BehaviorClass.PURPOSEFUL
REA = BehaviorClass.REACTIVE
PRO = BehaviorClass.PROACTIVE
ANT = BehaviorClass.ANTIFRAGILE

# Default figure sets of the sentinel scenario actors.
MINE_T = {"t", "gas_level", "humidity", "temperature"}
MINER_F = {"gas_level", "humidity", "temperature", "vibration"}
CANARY_G = {"t", "gas_level", "noise"}


class TestRanks:
    def test_projection_values(self):
        assert RAN.rank == 1
        assert PUR.rank == 2
        assert REA.rank == 3
        assert PRO.rank == 4
        assert ANT.rank == 5

    def test_bijective_and_increasing(self):
        ranks = [klass.rank for klass in BehaviorClass]
        assert ranks == sorted(ranks)
        assert sorted(ranks) == [1, 2, 3, 4, 5]


class TestFigureSpec:
    def test_named_deduplicates(self):
        spec = FigureSpec(names=["speed", "speed", "luminosity"])
        assert spec.count == 2

    def test_named_rejects_empty_name(self):
        with pytest.raises(ValueError):
            FigureSpec(names=[""])

    def test_order_rejects_negative(self):
        with pytest.raises(ValueError):
            FigureSpec(count=-1)

    @pytest.mark.parametrize("kwargs", [{}, {"names": ["a"], "count": 1}])
    def test_needs_exactly_one_form(self, kwargs):
        with pytest.raises(ValueError, match="exactly one of named and cardinality"):
            FigureSpec(**kwargs)

    def test_named_differs_from_same_order(self):
        assert FigureSpec(names=["a", "b"]) != FigureSpec(count=2)

    def test_json_round_trip(self):
        for spec in (FigureSpec(names=["b", "a"]), FigureSpec(count=7)):
            assert _build(FigureSpec, oracle_dict(spec), "figures") == spec

    def test_json_rejects_both_forms(self):
        with pytest.raises(ConfigError, match="^figures: exactly one of named and "
                                              "cardinality must be given$"):
            _build(FigureSpec, {"named": ["a"], "cardinality": 1}, "figures")


class TestPrecedes:
    def test_subset_and_lower_class(self):
        lo = desc(PUR, {"speed"})
        hi = desc(PRO, {"speed", "luminosity"})
        assert precedes(lo, hi)
        assert not precedes(hi, lo)

    def test_non_nested_figure_sets_incomparable(self):
        miner = desc(PUR, MINER_F)
        canary = desc(PUR, CANARY_G)
        assert not precedes(miner, canary)
        assert not precedes(canary, miner)

    def test_irreflexive(self):
        b = desc(PUR, {"speed"})
        assert not precedes(b, b)

    def test_mine_below_collective(self):
        mine = desc(RAN, MINE_T)
        collective = desc(PUR, MINER_F | CANARY_G, social=True)
        assert precedes(mine, collective)

    def test_cardinality_comparison_when_unnamed(self):
        assert precedes(desc(PUR, 1), desc(PUR, 2))
        assert precedes(desc(PUR, {"a"}), desc(PUR, 2))
        assert not precedes(desc(PUR, 2), desc(PUR, 2))

    def test_named_sides_use_subset_not_cardinality(self):
        # Disjoint named sets of different sizes are not ordered.
        assert not precedes(desc(PUR, {"a", "b"}), desc(PUR, {"c", "d", "e"}))

    def test_social_condition_requires_equal_class(self):
        assert precedes(desc(PUR, {"a"}, False), desc(PUR, {"z"}, True))
        assert not precedes(desc(PUR, {"a"}, False), desc(PRO, {"z"}, True))

    def test_higher_class_never_precedes_by_inclusion(self):
        assert not precedes(desc(PRO, {"a"}), desc(PUR, {"a", "b"}))

    @given(descriptors)
    def test_irreflexivity_property(self, b):
        assert not precedes(b, b)

    @given(descriptors, descriptors, figure_specs)
    def test_monotone_in_figure_supersets(self, b1, b2, extra):
        # Inclusion-based precedence survives enlarging the upper figure set.
        if not (b1.figures.is_named and b2.figures.is_named):
            return
        if not precedes(b1, b2):
            return
        if not b1.figures.names < b2.figures.names:
            return
        grown = BehaviorDescriptor(
            b2.klass,
            FigureSpec(names=b2.figures.names | (extra.names or frozenset())),
            b2.social,
        )
        assert precedes(b1, grown)


class TestCommensurable:
    def test_identical(self):
        b = desc(PUR, {"a"})
        assert commensurable(b, b)

    def test_miner_canary_incommensurable(self):
        assert not commensurable(desc(PUR, MINER_F), desc(PUR, CANARY_G))

    def test_nested_sets_commensurable(self):
        a = desc(PUR, {"1", "4"})
        b = desc(PUR, {"1", "2", "3", "4"})
        # Oracle: direct subset enumeration.
        assert all(x in {"1", "2", "3", "4"} for x in {"1", "4"})
        assert commensurable(a, b)
        assert commensurable(b, a)


class TestEncoding:
    def test_layout_examples(self):
        assert encode(desc(PUR, 3)) == 2 * 2**29 + 3
        assert encode(desc(RAN, 0)) == 1 * 2**29
        assert encode(desc(ANT, 7)) == 5 * 2**29 + 7

    def test_social_not_encoded(self):
        assert encode(desc(PUR, 3, True)) == encode(desc(PUR, 3, False))

    def test_overflow(self):
        # A count past the 29-bit field is refused when the spec is made,
        # so encode never sees one.
        assert encode(desc(PUR, MAX_CARDINALITY - 1)) == 3 * 2**29 - 1
        with pytest.raises(ValueError, match=r"^cardinality must be in \[0, 536870912\), "
                                             "got 536870912$"):
            desc(PUR, MAX_CARDINALITY)

    @given(descriptors)
    def test_bit_layout_oracle(self, b):
        # Independent arithmetic: rank * 2^29 + cardinality.
        assert encode(b) == b.klass.rank * 2**29 + b.figures.count
        assert encode(b) < 2**32


class TestDistance:
    def test_same_class_cardinality_difference(self):
        assert distance(desc(PUR, 4), desc(PUR, 2)) == 2

    def test_identity(self):
        b = desc(PUR, {"a", "b"})
        assert distance(b, b) == 0

    def test_class_gap(self):
        assert distance(desc(PUR, 3), desc(PRO, 3)) == 2 * 2**29

    @given(descriptors, descriptors, descriptors)
    def test_metric_properties(self, a, b, c):
        assert distance(a, b) >= 0
        assert distance(a, b) == distance(b, a)
        assert (distance(a, b) == 0) == (encode(a) == encode(b))
        assert distance(a, c) <= distance(a, b) + distance(b, c)


class TestDescriptorJson:
    def test_round_trip(self):
        b = desc(PUR, {"speed", "luminosity"})
        data = oracle_dict(b)
        assert data == {
            "class": "purposeful",
            "figures": {"named": ["luminosity", "speed"]},
            "social": False,
        }
        assert _build(BehaviorDescriptor, data, "") == b

    def test_cardinality_form(self):
        b = desc(PRO, 2, True)
        assert oracle_dict(b) == {
            "class": "proactive",
            "figures": {"cardinality": 2},
            "social": True,
        }
        assert _build(BehaviorDescriptor, oracle_dict(b), "") == b

    def test_social_defaults_false(self):
        parsed = _build(BehaviorDescriptor,
                        {"class": "random", "figures": {"cardinality": 0}}, "")
        assert parsed.social is False

    @pytest.mark.parametrize("bad", [
        ({"class": "bogus", "figures": {"cardinality": 0}},
         "class must be one of random, purposeful, reactive, proactive, antifragile, "
         "got 'bogus'"),
        ({"figures": {"cardinality": 0}}, "class: missing required key"),
        ({"class": "random", "figures": {}},
         "figures: exactly one of named and cardinality must be given"),
        ({"class": "random", "figures": {"cardinality": 0}, "social": "yes"},
         "social must be true or false, got 'yes'"),
    ])
    def test_rejects_malformed(self, bad):
        bad, message = bad
        with pytest.raises(ConfigError) as error:
            _build(BehaviorDescriptor, bad, "")
        assert str(error.value) == message


def test_universe_irreflexive_and_antisymmetry_shape(universe):
    # Raw-definition antisymmetry violations exist, but only in the
    # inclusion-vs-social conflict shape; both must be inclusion-free in
    # one direction.
    conflicts = 0
    for b1, b2 in itertools.permutations(universe, 2):
        if precedes(b1, b2) and precedes(b2, b1):
            conflicts += 1
            assert b1.klass is b2.klass
            assert b1.social != b2.social
    assert conflicts > 0
