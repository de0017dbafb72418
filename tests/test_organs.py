import pytest

from oracles import oracle_dict
from resilsim.behavior import BehaviorClass, BehaviorDescriptor, FigureSpec
from resilsim.organs import (
    CyberneticClass,
    FeedbackKind,
    Organ,
    ResilienceClass,
    Verdict,
    classify,
    compare_classes,
)

PUR = BehaviorClass.PURPOSEFUL
PRO = BehaviorClass.PROACTIVE
REA = BehaviorClass.REACTIVE


def desc(klass, figures=0, social=False):
    if isinstance(figures, int):
        spec = FigureSpec.of_order(figures)
    else:
        spec = FigureSpec.named(figures)
    return BehaviorDescriptor(klass, spec, social)


def bare(klass):
    return desc(klass, 0)


# The two published organ tuples used as the running comparison example:
# an adaptively redundant data structure (no knowledge organ, order-1
# proactive analysis) and an adaptive N-version programming system
# (order-2 analysis plus a knowledge organ).
C1 = CyberneticClass(
    monitor=bare(PUR),
    analyze=desc(PRO, 1),
    plan=bare(PUR),
    execute=bare(PUR),
    knowledge=None,
)
C2 = CyberneticClass(
    monitor=bare(PUR),
    analyze=desc(PRO, 2),
    plan=bare(PUR),
    execute=bare(PUR),
    knowledge=bare(PUR),
    k_stateful=True,
)


class TestCompareClasses:
    def test_published_pair(self):
        result = compare_classes(C1, C2)
        assert result.monitor is Verdict.EQUAL
        assert result.analyze is Verdict.INFERIOR  # order 1 < order 2
        assert result.plan is Verdict.EQUAL
        assert result.execute is Verdict.EQUAL
        assert result.knowledge is Verdict.LEFT_ABSENT

    def test_identity(self):
        result = compare_classes(C1, C1)
        assert all(result.verdict(o) in (Verdict.EQUAL, Verdict.BOTH_ABSENT)
                   for o in Organ)

    def test_incommensurable_monitors(self):
        left = CyberneticClass(monitor=desc(PUR, {"a", "b"}))
        right = CyberneticClass(monitor=desc(PUR, {"b", "c"}))
        assert compare_classes(left, right).monitor is Verdict.INCOMMENSURABLE

    def test_mirrored_verdicts(self):
        mirror = {
            Verdict.INFERIOR: Verdict.SUPERIOR,
            Verdict.SUPERIOR: Verdict.INFERIOR,
            Verdict.LEFT_ABSENT: Verdict.RIGHT_ABSENT,
            Verdict.RIGHT_ABSENT: Verdict.LEFT_ABSENT,
            Verdict.EQUAL: Verdict.EQUAL,
            Verdict.BOTH_ABSENT: Verdict.BOTH_ABSENT,
            Verdict.INCOMMENSURABLE: Verdict.INCOMMENSURABLE,
        }
        samples = [
            (C1, C2),
            (C1, CyberneticClass()),
            (CyberneticClass(monitor=desc(PUR, {"a", "b"})),
             CyberneticClass(monitor=desc(PUR, {"b", "c"}))),
        ]
        for left, right in samples:
            forward = compare_classes(left, right)
            backward = compare_classes(right, left)
            for organ in Organ:
                assert backward.verdict(organ) is mirror[forward.verdict(organ)]

    def test_verdict_dict(self):
        data = compare_classes(C1, C2).to_dict()
        assert data == {
            "M": "equal", "A": "inferior", "P": "equal", "E": "equal",
            "K": "left_absent",
        }


class TestClassify:
    def test_proactive_analysis_makes_an_entelechy(self):
        assert classify(C1) is ResilienceClass.ENTELECHY
        assert classify(C2) is ResilienceClass.ENTELECHY

    def test_all_purposeful_is_elastic(self):
        tuple_ = CyberneticClass(
            monitor=bare(PUR), analyze=bare(PUR), plan=bare(PUR), execute=bare(PUR),
        )
        assert classify(tuple_) is ResilienceClass.ELASTIC

    def test_antifragile_candidate(self):
        candidate = CyberneticClass(
            monitor=bare(PUR),
            analyze=desc(PRO, {"fit", "burstiness"}),
            plan=desc(PRO, 1),
            execute=bare(PUR),
            knowledge=bare(PUR),
            k_stateful=True,
        )
        assert classify(candidate) is ResilienceClass.ANTIFRAGILE_CANDIDATE

    def test_candidate_needs_stateful_knowledge(self):
        missing_k = CyberneticClass(
            analyze=desc(PRO, {"supply"}), plan=desc(PRO, 1),
        )
        assert classify(missing_k) is not ResilienceClass.ANTIFRAGILE_CANDIDATE
        stateless = CyberneticClass(
            analyze=desc(PRO, {"supply"}), plan=desc(PRO, 1),
            knowledge=bare(PUR), k_stateful=False,
        )
        assert classify(stateless) is ResilienceClass.ENTELECHY

    def test_candidate_needs_fit_aware_analysis(self):
        blind = CyberneticClass(
            analyze=desc(PRO, {"temperature"}), plan=desc(PRO, 1),
            knowledge=bare(PUR), k_stateful=True,
        )
        assert classify(blind) is ResilienceClass.ENTELECHY

    def test_reactive_plan_is_entelechy(self):
        tuple_ = CyberneticClass(analyze=bare(PUR), plan=desc(REA, 1))
        assert classify(tuple_) is ResilienceClass.ENTELECHY

    def test_empty_tuple_unclassified(self):
        assert classify(CyberneticClass()) is ResilienceClass.UNCLASSIFIED

    def test_mixed_without_adaptivity_unclassified(self):
        tuple_ = CyberneticClass(
            monitor=desc(BehaviorClass.ANTIFRAGILE, 1), analyze=bare(PUR),
        )
        assert classify(tuple_) is ResilienceClass.UNCLASSIFIED


class TestCyberneticClassType:
    def test_random_monitor_warns(self):
        with pytest.warns(UserWarning):
            CyberneticClass(monitor=desc(BehaviorClass.RANDOM, 1))

    def test_json_round_trip(self):
        data = oracle_dict(C2)
        assert data["K"] == {"class": "purposeful", "figures": {"cardinality": 0},
                             "social": False}
        assert data["k_stateful"] is True
        assert CyberneticClass.from_dict(data) == C2

    def test_json_absent_organs(self):
        data = oracle_dict(C1)
        assert data["K"] is None
        assert CyberneticClass.from_dict(data) == C1

    def test_json_rejects_bad_stateful_flag(self):
        data = oracle_dict(C1)
        data["k_stateful"] = "yes"
        with pytest.raises(ValueError):
            CyberneticClass.from_dict(data)


def test_only_genotypical_feedback_mutates_identity():
    assert FeedbackKind.GENOTYPICAL.mutates_identity
    for kind in (FeedbackKind.EXOGENOUS, FeedbackKind.PARAMETRIC,
                 FeedbackKind.STRUCTURAL):
        assert not kind.mutates_identity
