"""Pro/con/uncommitted support and the decision-or-conflict rule."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evident import (
    CombinationReport,
    DecisionStatus,
    Frame,
    bayesian_from_probabilities,
    combine,
    combine_all,
    decide,
    mass_new,
    simple_support,
    support_pro_con,
    vacuous,
)
from evident.decide import HIGH_CONFLICT, TIE
from evident.errors import DegreeOutOfRange, FrameMismatch, TrivialProposition

from .conftest import frames, mass_and_prop, mass_on, masses
from .oracles import decide_oracle


@pytest.fixture
def sample(ltr_frame):
    return mass_new(
        ltr_frame,
        [
            (ltr_frame.proposition(["lake"]), 0.5),
            (ltr_frame.proposition(["lake", "tower"]), 0.3),
            (ltr_frame.full(), 0.2),
        ],
    )


class TestSupportProCon:
    def test_partially_committed(self, sample, ltr_frame):
        # con = belief of {tower,ridge}, which contains no focal
        triple = support_pro_con(sample, ltr_frame.proposition(["lake"]))
        assert (triple.pro, triple.con, triple.uncommitted) == (0.5, 0.0, 0.5)

    def test_total_ignorance(self, lt_frame):
        triple = support_pro_con(vacuous(lt_frame), lt_frame.proposition(["lake"]))
        assert (triple.pro, triple.con, triple.uncommitted) == (0.0, 0.0, 1.0)

    def test_bayesian_leaves_nothing_open(self, ltr_frame):
        m = bayesian_from_probabilities(
            ltr_frame, {"lake": 0.5, "tower": 0.3, "ridge": 0.2}
        )
        triple = support_pro_con(m, ltr_frame.proposition(["lake"]))
        assert triple.pro == 0.5
        assert triple.con == pytest.approx(0.5, abs=1e-12)
        assert triple.uncommitted == pytest.approx(0.0, abs=1e-12)

    def test_trivial_propositions_rejected(self, sample, ltr_frame):
        with pytest.raises(TrivialProposition):
            support_pro_con(sample, ltr_frame.empty())
        with pytest.raises(TrivialProposition):
            support_pro_con(sample, ltr_frame.full())

    def test_frame_mismatch(self, sample, lt_frame):
        with pytest.raises(FrameMismatch):
            support_pro_con(sample, lt_frame.proposition(["lake"]))

    @given(mass_and_prop(max_atoms=5))
    def test_components_sum_to_one(self, bundle):
        frame, m, prop = bundle
        if prop.is_empty or prop.is_full:
            return
        triple = support_pro_con(m, prop)
        assert triple.pro + triple.con + triple.uncommitted == pytest.approx(
            1.0, abs=1e-9
        )
        assert 0.0 <= triple.pro <= 1.0
        assert 0.0 <= triple.con <= 1.0
        assert 0.0 <= triple.uncommitted <= 1.0

    def test_pro_never_exceeds_one(self, ltr_frame):
        # the masses total 1.0000000000000002, inside the construction tolerance
        lake_tower = ltr_frame.proposition(["lake", "tower"])
        m = mass_new(
            ltr_frame,
            [
                (ltr_frame.proposition(["lake"]), 0.1),
                (ltr_frame.proposition(["tower"]), 0.2),
                (lake_tower, 0.7000000000000002),
            ],
        )
        assert m.belief(lake_tower) == 1.0
        assert m.plausibility(lake_tower) == 1.0
        triple = support_pro_con(m, lake_tower)
        assert triple.pro == 1.0
        assert triple.uncommitted == 0.0

    @given(mass_and_prop(max_atoms=5))
    def test_uncommitted_is_interval_width(self, bundle):
        frame, m, prop = bundle
        if prop.is_empty or prop.is_full:
            return
        triple = support_pro_con(m, prop)
        assert triple.uncommitted == pytest.approx(
            m.interval(prop).ignorance, abs=1e-12
        )


class TestDecide:
    def test_leaning_under_residual_ignorance(self, lt_frame):
        report = combine(
            simple_support(lt_frame, lt_frame.proposition(["lake"]), 0.7),
            simple_support(lt_frame, lt_frame.proposition(["tower"]), 0.6),
        )
        decision = decide(report)
        assert decision.status is DecisionStatus.LEANING
        assert decision.hypothesis == "lake"
        assert decision.cumulative_conflict == pytest.approx(0.42, abs=1e-12)
        # the winner is best supported but does not dominate
        assert decision.ranking[0][1].support == pytest.approx(0.482759, abs=1e-6)
        assert decision.ranking[1][1].plausibility == pytest.approx(0.517241, abs=1e-6)

    def test_decided_under_dominance(self, lt_frame):
        m = mass_new(
            lt_frame,
            [(lt_frame.proposition(["lake"]), 0.9), (lt_frame.full(), 0.1)],
        )
        decision = decide(combine_all([m]))
        assert decision.status is DecisionStatus.DECIDED
        assert decision.hypothesis == "lake"

    def test_belief_equal_to_a_rival_plausibility_only_leans(self, lt_frame):
        m = mass_new(
            lt_frame,
            [
                (lt_frame.proposition(["lake"]), 0.5),
                (lt_frame.proposition(["tower"]), 0.25),
                (lt_frame.full(), 0.25),
            ],
        )
        decision = decide(combine_all([m]))
        assert decision.ranking[0][1].support == decision.ranking[1][1].plausibility == 0.5
        assert decision.status is DecisionStatus.LEANING
        assert decision.hypothesis == "lake"

    def test_vacuous_is_a_tie(self, lt_frame):
        decision = decide(combine_all([vacuous(lt_frame)]))
        assert decision.status is DecisionStatus.CONFLICTED
        assert decision.reason == TIE
        assert decision.hypothesis is None

    def test_high_conflict_short_circuits(self, lt_frame):
        report = combine(
            simple_support(lt_frame, lt_frame.proposition(["lake"]), 0.9),
            simple_support(lt_frame, lt_frame.proposition(["tower"]), 0.9),
        )
        assert report.conflict == pytest.approx(0.81, abs=1e-12)
        decision = decide(report, conflict_threshold=0.5)
        assert decision.status is DecisionStatus.CONFLICTED
        assert decision.reason == HIGH_CONFLICT

    def test_exact_tie_between_atoms(self, lt_frame):
        m = mass_new(
            lt_frame,
            [
                (lt_frame.proposition(["lake"]), 0.4),
                (lt_frame.proposition(["tower"]), 0.4),
                (lt_frame.full(), 0.2),
            ],
        )
        decision = decide(combine_all([m]))
        assert decision.status is DecisionStatus.CONFLICTED
        assert decision.reason == TIE

    def test_threshold_validated(self, lt_frame):
        report = combine_all([vacuous(lt_frame)])
        with pytest.raises(ValueError):
            decide(report, conflict_threshold=0.0)
        with pytest.raises(ValueError):
            decide(report, conflict_threshold=1.5)

    def test_threshold_error_is_degree_out_of_range(self, lt_frame):
        report = combine_all([vacuous(lt_frame)])
        for threshold in (0, 0.0, 1.5, float("nan")):
            with pytest.raises(DegreeOutOfRange):
                decide(report, threshold)

    @given(st.data())
    def test_ranking_covers_every_atom_once(self, data):
        frame = data.draw(frames(max_atoms=5))
        m = data.draw(mass_on(frame, with_ignorance=True))
        decision = decide(combine_all([m]))
        assert sorted(a for a, _ in decision.ranking) == sorted(frame.atoms)
        supports = [iv.support for _, iv in decision.ranking]
        assert supports == sorted(supports, reverse=True)

    @given(st.data())
    def test_winner_is_argmax_of_singleton_beliefs(self, data):
        frame = data.draw(frames(max_atoms=5))
        m = data.draw(mass_on(frame, with_ignorance=True))
        decision = decide(combine_all([m]))
        if decision.status is DecisionStatus.CONFLICTED:
            return
        best = max(iv.support for _, iv in decision.ranking)
        assert decision.ranking[0][0] == decision.hypothesis
        assert decision.ranking[0][1].support == best

    @given(st.data())
    def test_decided_implies_strict_dominance(self, data):
        frame = data.draw(frames(max_atoms=5))
        m = data.draw(mass_on(frame, with_ignorance=True))
        decision = decide(combine_all([m]))
        if decision.status is not DecisionStatus.DECIDED:
            return
        winner_support = decision.ranking[0][1].support
        for atom, iv in decision.ranking[1:]:
            assert winner_support > iv.plausibility

    @given(masses(max_atoms=5))
    def test_intervals_equal_mass_function_intervals(self, bundle):
        frame, m = bundle
        ranked = dict(decide(CombinationReport(result=m, conflict=0.0)).ranking)
        for atom in frame.atoms:
            assert ranked[atom] == m.interval(frame.singleton(atom))

    @given(
        masses(max_atoms=5),
        st.sampled_from([0.0, 0.3, 0.95, 1.0]),
        st.sampled_from([0.3, 0.95, 1.0]),
    )
    def test_matches_the_rule_as_a_loop_over_atoms(self, bundle, conflict, threshold):
        _, m = bundle
        report = CombinationReport(result=m, conflict=conflict)
        decision = decide(report, threshold)
        got = (decision.status, decision.reason, decision.hypothesis, decision.ranking)
        assert got == decide_oracle(report, threshold)
        assert decision.cumulative_conflict == conflict

    def test_tie_within_tolerance_and_lone_atom(self, lt_frame):
        # beliefs 1e-13 apart tie; a frame of one atom has no rival to tie or
        # to dominate, so its atom is decided
        lake, tower = lt_frame.singleton("lake"), lt_frame.singleton("tower")
        m = mass_new(lt_frame, [(lake, 0.5 + 5e-14), (tower, 0.5 - 5e-14)])
        decision = decide(CombinationReport(result=m, conflict=0.0))
        assert (decision.status, decision.reason) == (DecisionStatus.CONFLICTED, TIE)
        assert [a for a, _ in decision.ranking] == ["lake", "tower"]
        lone = vacuous(Frame(["lake"]))
        decision = decide(CombinationReport(result=lone, conflict=0.0))
        assert (decision.status, decision.hypothesis) == (DecisionStatus.DECIDED, "lake")
