"""Mass distributions, support functions, and interval semantics.

Derived expectations are frozen from the brute-force enumeration oracles in
oracles.py, which work on frozensets rather than the package's arrays.
"""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evident import (
    EvidentialInterval,
    Frame,
    MassFunction,
    Proposition,
    bayesian_from_probabilities,
    combine,
    mass_new,
    simple_support,
    vacuous,
)
from evident import masses as masses_module
from evident.errors import (
    DegreeOutOfRange,
    EmptyFocus,
    EvidentError,
    FrameMismatch,
    InvalidInterval,
    MassOnEmptySet,
    MissingAtom,
    NegativeMass,
    NotNormalized,
    UnknownAtom,
)

from .conftest import mass_and_prop, masses
from .oracles import bel_oracle, focal_map, pl_oracle, powerset


@pytest.fixture
def sample(ltr_frame):
    """m({lake})=0.5, m({lake,tower})=0.3, m(whole)=0.2 on a 3-atom frame."""
    return mass_new(
        ltr_frame,
        [
            (ltr_frame.proposition(["lake"]), 0.5),
            (ltr_frame.proposition(["lake", "tower"]), 0.3),
            (ltr_frame.full(), 0.2),
        ],
    )


class TestConstruction:
    def test_three_focals(self, sample):
        assert len(sample) == 3

    def test_not_normalized_reports_total(self, lt_frame):
        with pytest.raises(NotNormalized) as err:
            mass_new(lt_frame, [(lt_frame.proposition(["lake"]), 0.5)])
        assert err.value.total == 0.5

    def test_mass_on_empty_set(self, lt_frame):
        with pytest.raises(MassOnEmptySet):
            mass_new(lt_frame, [(lt_frame.empty(), 0.1), (lt_frame.full(), 0.9)])

    def test_zero_mass_on_empty_set_is_dropped(self, lt_frame):
        m = mass_new(lt_frame, [(lt_frame.empty(), 0.0), (lt_frame.full(), 1.0)])
        assert len(m) == 1

    def test_negative_mass(self, lt_frame):
        with pytest.raises(NegativeMass):
            mass_new(
                lt_frame,
                [(lt_frame.proposition(["lake"]), -0.1), (lt_frame.full(), 1.1)],
            )

    def test_duplicates_summed_and_zeros_dropped(self, lt_frame):
        lake = lt_frame.proposition(["lake"])
        m = mass_new(
            lt_frame,
            [(lake, 0.25), (lake, 0.25), (lt_frame.full(), 0.5), (lt_frame.full(), 0.0)],
        )
        assert len(m) == 2
        assert m.mass(lake) == 0.5

    def test_wrong_frame_entry(self, lt_frame, ltr_frame):
        with pytest.raises(FrameMismatch):
            mass_new(lt_frame, [(ltr_frame.full(), 1.0)])

    def test_stored_exactly_as_given(self, lt_frame):
        m = mass_new(
            lt_frame, [(lt_frame.proposition(["lake"]), 0.3), (lt_frame.full(), 0.7)]
        )
        assert m.mass(lt_frame.proposition(["lake"])) == 0.3
        assert m.mass(lt_frame.full()) == 0.7

    def test_masses_past_the_float_range_are_not_normalized(self, lt_frame):
        # each mass is finite, their total is not; fsum overflows, NumPy's
        # sum would warn
        lake, tower = lt_frame.proposition(["lake"]), lt_frame.proposition(["tower"])
        with pytest.raises(NotNormalized) as err:
            mass_new(lt_frame, [(lake, 1e308), (tower, 1e308)])
        assert err.value.total == math.inf


def _near_tolerance(n, seed, side, ulps):
    """n positive masses whose exact total is within about an ulp of
    ``1 + side * NORMALIZATION_TOL``, moved by ``ulps`` of it."""
    masses = np.random.default_rng(seed).random(n) + 0.5
    edge = 1.0 + side * masses_module.NORMALIZATION_TOL
    target = edge + ulps * math.ulp(edge)
    masses *= target / math.fsum(masses.tolist())
    big = int(masses.argmax())
    for _ in range(3):
        masses[big] += target - math.fsum(masses.tolist())
    return masses


# 15 atoms: room for 20 000 distinct focals
_WIDE = Frame([f"a{i}" for i in range(15)])


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 20_000),
    seed=st.integers(0, 2**32 - 1),
    side=st.sampled_from([-1, 1]),
    ulps=st.integers(-64, 64),
    poison=st.sampled_from([None, math.nan, math.inf]),
)
# NumPy's sum reads inside the tolerance, and fsum 1 ulp lower, outside it
@example(n=12_000, seed=1, side=-1, ulps=-1, poison=None)
@example(n=9, seed=7, side=-1, ulps=-1, poison=None)
@example(n=20_000, seed=3, side=1, ulps=64, poison=None)
@example(n=20_000, seed=3, side=1, ulps=-64, poison=math.inf)
@example(n=9, seed=7, side=1, ulps=0, poison=math.nan)
def test_the_total_check_decides_as_fsum_does(n, seed, side, ulps, poison):
    masses = _near_tolerance(n, seed, side, ulps)
    if poison is not None:
        masses[seed % n] = poison
    exact = math.fsum(masses.tolist())
    bits = np.arange(1, n + 1, dtype=np.uint64)
    builds = [lambda: MassFunction._from_arrays(_WIDE, bits, masses)]
    if poison is None:
        entries = [(Proposition(_WIDE, b), m) for b, m in enumerate(masses.tolist(), 1)]
        builds.append(lambda: MassFunction(_WIDE, entries))
    for build in builds:
        # a NaN total is refused too: no comparison with it holds
        if not abs(exact - 1.0) <= masses_module.NORMALIZATION_TOL:
            with pytest.raises(NotNormalized) as err:
                build()
            assert err.value.total.hex() == exact.hex() and str(err.value) == (
                f"masses total {exact!r}, expected 1.0"
            )
        else:
            build()


def test_the_total_check_allows_for_every_rounding_of_the_sum():
    # below eight masses NumPy adds in turn, and each mass under half an ulp
    # of the first rounds away: the sum reads 2 ulps below 1 + tolerance, the
    # exact total is above it. An error slack that does not grow with the
    # mass count would accept these masses
    edge = 1.0 + masses_module.NORMALIZATION_TOL
    ulp = math.ulp(edge)
    masses = np.array([edge - 2 * ulp] + [math.nextafter(ulp / 2, 0.0)] * 6)
    exact = math.fsum(masses.tolist())
    assert exact > edge
    frame = Frame(["a", "b", "c"])
    entries = [(Proposition(frame, b), m) for b, m in enumerate(masses.tolist(), 1)]
    for build in (
        lambda: MassFunction._from_arrays(frame, np.arange(1, 8, dtype=np.uint64), masses),
        lambda: MassFunction(frame, entries),
    ):
        with pytest.raises(NotNormalized) as err:
            build()
        assert err.value.total.hex() == exact.hex()


class TestSimpleSupport:
    def test_basic_shape(self, lt_frame):
        m = simple_support(lt_frame, lt_frame.proposition(["lake"]), 0.6)
        assert m.mass(lt_frame.proposition(["lake"])) == 0.6
        assert m.mass(lt_frame.full()) == pytest.approx(0.4, abs=0)

    def test_zero_degree_is_vacuous(self, lt_frame):
        m = simple_support(lt_frame, lt_frame.proposition(["lake"]), 0.0)
        assert m == vacuous(lt_frame)

    def test_full_degree(self, lt_frame):
        m = simple_support(lt_frame, lt_frame.proposition(["lake"]), 1.0)
        assert m.mass(lt_frame.proposition(["lake"])) == 1.0
        assert len(m) == 1

    def test_empty_focus(self, lt_frame):
        with pytest.raises(EmptyFocus):
            simple_support(lt_frame, lt_frame.empty(), 0.5)

    def test_focus_on_another_frame(self, lt_frame):
        with pytest.raises(FrameMismatch):
            simple_support(lt_frame, Frame(["lake", "ridge"]).proposition(["lake"]), 0.5)

    def test_degree_out_of_range(self, lt_frame):
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(DegreeOutOfRange):
                simple_support(lt_frame, lt_frame.proposition(["lake"]), bad)

    def test_three_case_belief_shape(self):
        # belief is 0 / degree / 1 according to whether the statement
        # contains the focus and whether it is the whole frame
        for n in range(1, 6):
            frame = Frame([f"a{i}" for i in range(n)])
            full = (1 << n) - 1
            for degree in (0.0, 0.25, 0.5, 0.75, 1.0):
                for focus_bits in range(1, full + 1):
                    focus = frame.from_bits(focus_bits)
                    m = simple_support(frame, focus, degree)
                    for a_bits in range(full + 1):
                        a = frame.from_bits(a_bits)
                        if a_bits == full:
                            expected = 1.0
                        elif focus.is_subset(a):
                            expected = degree
                        else:
                            expected = 0.0
                        assert m.belief(a) == expected


class TestVacuous:
    def test_all_mass_on_whole_frame(self, lt_frame):
        m = vacuous(lt_frame)
        assert m.mass(lt_frame.full()) == 1.0
        assert len(m) == 1

    def test_unit_interval_everywhere(self, lt_frame):
        m = vacuous(lt_frame)
        assert m.interval(lt_frame.proposition(["lake"])) == EvidentialInterval(0.0, 1.0)

    def test_whole_frame_collapses_to_one(self, lt_frame):
        assert vacuous(lt_frame).interval(lt_frame.full()) == EvidentialInterval(1.0, 1.0)


class TestBayesian:
    def test_singleton_masses(self, ltr_frame):
        m = bayesian_from_probabilities(
            ltr_frame, {"lake": 0.5, "tower": 0.3, "ridge": 0.2}
        )
        assert m.mass(ltr_frame.singleton("lake")) == 0.5
        assert m.mass(ltr_frame.singleton("tower")) == 0.3
        assert m.mass(ltr_frame.singleton("ridge")) == 0.2

    def test_belief_adds_up(self, ltr_frame):
        m = bayesian_from_probabilities(
            ltr_frame, {"lake": 0.5, "tower": 0.3, "ridge": 0.2}
        )
        assert m.belief(ltr_frame.proposition(["lake", "tower"])) == 0.8

    def test_missing_atom(self, ltr_frame):
        with pytest.raises(MissingAtom):
            bayesian_from_probabilities(ltr_frame, {"lake": 0.5, "tower": 0.5})

    def test_unknown_atom(self, lt_frame):
        with pytest.raises(UnknownAtom):
            bayesian_from_probabilities(
                lt_frame, {"lake": 0.5, "tower": 0.3, "ridge": 0.2}
            )

    def test_not_normalized(self, lt_frame):
        with pytest.raises(NotNormalized):
            bayesian_from_probabilities(lt_frame, {"lake": 0.5, "tower": 0.4})

    def test_negative_probability(self, lt_frame):
        with pytest.raises(NegativeMass):
            bayesian_from_probabilities(lt_frame, {"lake": -0.5, "tower": 1.5})

    def test_zero_probability_atom_dropped(self, lt_frame):
        m = bayesian_from_probabilities(lt_frame, {"lake": 1.0, "tower": 0.0})
        assert len(m) == 1

    def test_intervals_collapse(self, ltr_frame):
        m = bayesian_from_probabilities(
            ltr_frame, {"lake": 0.5, "tower": 0.3, "ridge": 0.2}
        )
        for bits in range(1 << len(ltr_frame)):
            iv = m.interval(ltr_frame.from_bits(bits))
            assert iv.ignorance == pytest.approx(0.0, abs=1e-12)

    @given(st.data())
    def test_additive_like_a_probability(self, data):
        # belief(A) + belief(not A) caps at 1 in general; probability
        # assignments hit the cap for every proposition
        n = data.draw(st.integers(1, 5))
        frame = Frame([f"a{i}" for i in range(n)])
        weights = data.draw(
            st.lists(st.floats(0.05, 1.0, allow_nan=False), min_size=n, max_size=n)
        )
        total = math.fsum(weights)
        m = bayesian_from_probabilities(
            frame, {a: w / total for a, w in zip(frame.atoms, weights)}
        )
        prop = frame.from_bits(data.draw(st.integers(0, (1 << n) - 1)))
        assert m.belief(prop) + m.belief(prop.complement()) == pytest.approx(
            1.0, abs=1e-12
        )


class TestBeliefPlausibility:
    def test_belief_of_superset(self, sample, ltr_frame):
        # oracle: focals {lake} and {lake,tower} lie inside {lake,tower}
        assert sample.belief(ltr_frame.proposition(["lake", "tower"])) == 0.8

    def test_belief_without_contained_focal(self, sample, ltr_frame):
        assert sample.belief(ltr_frame.proposition(["tower"])) == 0.0

    def test_belief_of_whole_frame(self, sample, ltr_frame):
        assert sample.belief(ltr_frame.full()) == 1.0

    def test_belief_of_empty(self, sample, ltr_frame):
        assert sample.belief(ltr_frame.empty()) == 0.0

    def test_plausibility_of_tower(self, sample, ltr_frame):
        # {lake,tower} and the whole frame intersect {tower}: 0.3 + 0.2
        assert sample.plausibility(ltr_frame.proposition(["tower"])) == 0.5

    def test_plausibility_of_lake(self, sample, ltr_frame):
        assert sample.plausibility(ltr_frame.proposition(["lake"])) == 1.0

    def test_plausibility_of_empty(self, sample, ltr_frame):
        assert sample.plausibility(ltr_frame.empty()) == 0.0

    def test_interval_of_tower(self, sample, ltr_frame):
        assert sample.interval(ltr_frame.proposition(["tower"])) == EvidentialInterval(
            0.0, 0.5
        )

    def test_frame_mismatch(self, sample, lt_frame):
        with pytest.raises(FrameMismatch):
            sample.belief(lt_frame.proposition(["lake"]))
        with pytest.raises(FrameMismatch):
            sample.plausibility(lt_frame.proposition(["lake"]))


class TestAgainstEnumeration:
    @given(masses(max_atoms=6))
    def test_every_proposition_matches_oracle(self, frame_and_mass):
        frame, m = frame_and_mass
        focals = focal_map(m)
        for subset in powerset(frame.atoms):
            prop = frame.proposition(subset)
            assert m.belief(prop) == pytest.approx(
                bel_oracle(focals, subset), abs=1e-12
            )
            assert m.plausibility(prop) == pytest.approx(
                pl_oracle(focals, subset), abs=1e-12
            )

    @given(mass_and_prop())
    def test_belief_plus_counter_belief_bounded(self, bundle):
        frame, m, prop = bundle
        assert m.belief(prop) + m.belief(prop.complement()) <= 1.0 + 1e-9

    @given(mass_and_prop())
    def test_monotone_under_inclusion(self, bundle):
        frame, m, q = bundle
        p = frame.from_bits(q.bits & ((q.bits << 1) | 1) & ((1 << len(frame)) - 1))
        p = p.intersect(q)  # p is a subset of q by construction
        assert m.belief(p) <= m.belief(q) + 1e-12
        assert m.plausibility(p) <= m.plausibility(q) + 1e-12

    @given(mass_and_prop())
    def test_interval_is_ordered(self, bundle):
        _, m, prop = bundle
        iv = m.interval(prop)
        assert 0.0 <= iv.support <= iv.plausibility <= 1.0


class TestIntervalType:
    def test_rejects_disorder(self):
        with pytest.raises(ValueError):
            EvidentialInterval(0.7, 0.3)
        with pytest.raises(ValueError):
            EvidentialInterval(-0.1, 0.5)

    def test_disorder_is_an_evident_error(self):
        with pytest.raises(EvidentError):
            EvidentialInterval(0.5, 0.2)
        with pytest.raises(EvidentError):
            EvidentialInterval(0.2, 1.5)

    def test_ignorance_is_width(self):
        assert EvidentialInterval(0.2, 0.7).ignorance == pytest.approx(0.5)

    def test_unpacks(self):
        support, plausibility = EvidentialInterval(0.2, 0.7)
        assert (support, plausibility) == (0.2, 0.7)

    def test_a_block_is_checked_once_and_refused_at_its_first_bad_cell(self):
        # the package's own bounds skip the per-cell check only when the
        # whole block passes as arrays; otherwise the cell's check raises
        bel = np.array([[0.0, 0.25], [1.0, 0.5]])
        pl = np.array([[1.0, 0.5], [1.0, 0.5]])
        built = masses_module._intervals(bel, pl)
        assert built == [
            [EvidentialInterval(0.0, 1.0), EvidentialInterval(0.25, 0.5)],
            [EvidentialInterval(1.0, 1.0), EvidentialInterval(0.5, 0.5)],
        ]
        assert {type(cell) for row in built for cell in row} == {EvidentialInterval}
        for bad in [(0.5, 0.25), (-0.0625, 0.5), (0.25, 1.5), (math.nan, 0.5), (0.25, math.inf)]:
            cells_bel, cells_pl = bel.copy(), pl.copy()
            cells_bel[1, 1], cells_pl[1, 1] = bad
            with pytest.raises(InvalidInterval):
                masses_module._intervals(cells_bel, cells_pl)


def test_equality_and_allclose(lt_frame):
    lake = lt_frame.proposition(["lake"])
    a = mass_new(lt_frame, [(lake, 0.3), (lt_frame.full(), 0.7)])
    b = mass_new(lt_frame, [(lake, 0.3), (lt_frame.full(), 0.7)])
    c = mass_new(lt_frame, [(lake, 0.3 + 1e-13), (lt_frame.full(), 0.7 - 1e-13)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a.allclose(c)
    with pytest.raises(AttributeError):
        a.frame = lt_frame


def test_focals_are_sorted_and_typed(sample):
    bits = [p.bits for p, _ in sample.focals()]
    assert bits == sorted(bits)
    assert all(isinstance(w, float) for _, w in sample.focals())


WIDE = Frame([f"a{i:02d}" for i in range(64)])


def _wide(focals: dict[int, float]) -> MassFunction:
    return MassFunction(WIDE, [(WIDE.from_bits(b), w) for b, w in focals.items()])


class TestSingletonIntervals:
    """Every atom's interval, on full-width frames, against ``interval``."""

    @staticmethod
    def _matched(m: MassFunction) -> list[EvidentialInterval]:
        got = m.singleton_intervals()
        assert got == [m.interval(m.frame.singleton(a)) for a in m.frame.atoms]
        return got

    def test_focal_on_the_top_bit(self):
        m = _wide({1: 0.125, 3: 0.25, 1 << 63: 0.125, (1 << 64) - 1: 0.5})
        got = self._matched(m)
        assert tuple(got[0]) == (0.125, 0.875)
        assert tuple(got[63]) == (0.125, 0.625)
        assert tuple(got[5]) == (0.0, 0.5)

    def test_no_singleton_focal(self):
        m = _wide({3: 0.5, 3 << 62: 0.25, (1 << 64) - 1: 0.25})
        got = self._matched(m)
        assert all(iv.support == 0.0 for iv in got)
        assert (got[0].plausibility, got[63].plausibility, got[5].plausibility) == (
            0.75, 0.5, 0.25
        )

    @given(st.data())
    def test_matches_the_interval_of_each_singleton(self, data):
        focal = st.integers(1, (1 << 64) - 1) | st.sampled_from([1 << i for i in range(64)])
        bits = data.draw(st.lists(focal, min_size=1, max_size=8, unique=True))
        k = len(bits)
        weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
        total = math.fsum(weights)
        self._matched(_wide({b: w / total for b, w in zip(bits, weights)}))

    def test_memory_does_not_grow_with_atoms_times_focals(self):
        # two 317-focal operands meet in about 100 k distinct focals
        rng = random.Random(1)

        def operand():
            bits = {rng.getrandbits(64) | 1 for _ in range(317)}
            return _wide({b: 1.0 / len(bits) for b in bits})

        m = combine(operand(), operand()).result
        assert len(m) > 90_000
        tracemalloc.start()
        try:
            m.singleton_intervals()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * len(m)
