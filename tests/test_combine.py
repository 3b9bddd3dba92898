"""Orthogonal-sum combination, conflict, and evidence discounting.

Derived expectations come from the frozenset pairwise-product oracle in
oracles.py; closed forms are additionally checked symbolically.
"""

from __future__ import annotations

import importlib
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evident import (
    Frame,
    Scenario,
    SensorReport,
    combine,
    combine_all,
    conflict_mass,
    discount,
    mass_new,
    run_scenario,
    simple_support,
    vacuous,
)
from evident.errors import (
    CombinationTooLarge,
    FactorOutOfRange,
    FrameMismatch,
    TotalConflict,
)

from .conftest import frames, mass_on, masses
from .oracles import (
    bel_oracle,
    combine_oracle,
    focal_map,
    fold_oracle,
    pl_oracle,
)


def lake_tower_pair(frame):
    return (
        simple_support(frame, frame.proposition(["lake"]), 0.7),
        simple_support(frame, frame.proposition(["tower"]), 0.6),
    )


class TestConflictMass:
    def test_partial_conflict(self, lt_frame):
        m1, m2 = lake_tower_pair(lt_frame)
        # oracle: only the {lake}x{tower} product falls on the empty set
        assert conflict_mass(m1, m2) == pytest.approx(0.42, abs=1e-15)

    def test_vacuous_never_conflicts(self, lt_frame):
        m1, _ = lake_tower_pair(lt_frame)
        assert conflict_mass(m1, vacuous(lt_frame)) == 0.0

    def test_contradictory_certainties(self, lt_frame):
        m1 = simple_support(lt_frame, lt_frame.proposition(["lake"]), 1.0)
        m2 = simple_support(lt_frame, lt_frame.proposition(["tower"]), 1.0)
        assert conflict_mass(m1, m2) == 1.0

    def test_frame_mismatch(self, lt_frame, ltr_frame):
        with pytest.raises(FrameMismatch):
            conflict_mass(vacuous(lt_frame), vacuous(ltr_frame))


class TestCombine:
    def test_agreeing_simple_supports(self, lt_frame):
        lake = lt_frame.proposition(["lake"])
        report = combine(
            simple_support(lt_frame, lake, 0.6), simple_support(lt_frame, lake, 0.5)
        )
        assert report.conflict == 0.0
        assert report.result.mass(lake) == pytest.approx(0.8, abs=1e-15)
        assert report.result.mass(lt_frame.full()) == pytest.approx(0.2, abs=1e-15)

    def test_conflicting_simple_supports(self, lt_frame):
        m1, m2 = lake_tower_pair(lt_frame)
        report = combine(m1, m2)
        assert report.conflict == pytest.approx(0.42, abs=1e-12)
        assert report.result.mass(lt_frame.proposition(["lake"])) == pytest.approx(
            0.482759, abs=1e-6
        )
        assert report.result.mass(lt_frame.proposition(["tower"])) == pytest.approx(
            0.310345, abs=1e-6
        )
        assert report.result.mass(lt_frame.full()) == pytest.approx(0.206897, abs=1e-6)

    def test_vacuous_is_identity(self, lt_frame):
        m1, _ = lake_tower_pair(lt_frame)
        report = combine(m1, vacuous(lt_frame))
        assert report.conflict == 0.0
        assert report.result == m1

    def test_total_conflict_raises(self, lt_frame):
        m1 = simple_support(lt_frame, lt_frame.proposition(["lake"]), 1.0)
        m2 = simple_support(lt_frame, lt_frame.proposition(["tower"]), 1.0)
        with pytest.raises(TotalConflict):
            combine(m1, m2)
        # totals accepted within NORMALIZATION_TOL put the conflict below 1,
        # yet nothing survives
        short = 1.0 - 5e-10
        m1 = mass_new(lt_frame, [(lt_frame.proposition(["lake"]), short)])
        m2 = mass_new(lt_frame, [(lt_frame.proposition(["tower"]), short)])
        with pytest.raises(TotalConflict):
            combine(m1, m2)

    def test_frame_mismatch(self, lt_frame, ltr_frame):
        with pytest.raises(FrameMismatch):
            combine(vacuous(lt_frame), vacuous(ltr_frame))

    @given(st.data())
    def test_matches_pairwise_oracle(self, data):
        frame = data.draw(frames(max_atoms=5))
        m1 = data.draw(mass_on(frame))
        m2 = data.draw(mass_on(frame))
        expected, expected_conflict = combine_oracle(focal_map(m1), focal_map(m2))
        if not expected:  # no product lands on a non-empty set
            with pytest.raises(TotalConflict):
                combine(m1, m2)
            return
        report = combine(m1, m2)
        assert report.conflict == pytest.approx(expected_conflict, abs=1e-12)
        got = focal_map(report.result)
        assert set(got) == set(expected)
        for h, v in expected.items():
            assert got[h] == pytest.approx(v, abs=1e-12)

    @given(st.data())
    def test_commutative_bit_for_bit(self, data):
        frame = data.draw(frames(max_atoms=5))
        m1 = data.draw(mass_on(frame, with_ignorance=True))
        m2 = data.draw(mass_on(frame, with_ignorance=True))
        r12 = combine(m1, m2)
        r21 = combine(m2, m1)
        assert r12.conflict == r21.conflict
        assert r12.result == r21.result  # exact array equality

    @given(st.data())
    def test_associative_within_tolerance(self, data):
        frame = data.draw(frames(max_atoms=5))
        m1, m2, m3 = (data.draw(mass_on(frame, with_ignorance=True)) for _ in range(3))
        left = combine(combine(m1, m2).result, m3).result
        right = combine(m1, combine(m2, m3).result).result
        assert left.allclose(right, atol=1e-9)

    @given(st.data())
    def test_identity_within_tolerance(self, data):
        frame = data.draw(frames(max_atoms=5))
        m = data.draw(mass_on(frame))
        assert combine(m, vacuous(frame)).result.allclose(m, atol=1e-12)

    @given(st.data())
    def test_result_is_valid_mass(self, data):
        frame = data.draw(frames(max_atoms=5))
        m1 = data.draw(mass_on(frame, with_ignorance=True))
        m2 = data.draw(mass_on(frame, with_ignorance=True))
        result = combine(m1, m2).result
        total = math.fsum(w for _, w in result.focals())
        assert total == pytest.approx(1.0, abs=1e-9)
        assert all(not p.is_empty and w > 0 for p, w in result.focals())


class TestClosedForms:
    @given(
        st.lists(st.floats(0.0, 0.99, allow_nan=False), min_size=1, max_size=10),
    )
    def test_agreeing_supports_coproduct(self, degrees):
        frame = Frame(["lake", "tower", "ridge"])
        focus = frame.proposition(["lake"])
        report = combine_all([simple_support(frame, focus, d) for d in degrees])
        expected = 1.0 - math.prod(1.0 - d for d in degrees)
        assert report.result.belief(focus) == pytest.approx(expected, abs=1e-12)
        # still a simple support: at most the focus and the whole frame
        assert {p.bits for p, _ in report.result.focals()} <= {
            focus.bits,
            frame.full().bits,
        }

    @given(st.data())
    def test_bayesian_closure(self, data):
        frame = data.draw(frames(min_atoms=2, max_atoms=5))
        n = len(frame)
        w1 = data.draw(
            st.lists(st.floats(0.05, 1.0, allow_nan=False), min_size=n, max_size=n)
        )
        w2 = data.draw(
            st.lists(st.floats(0.05, 1.0, allow_nan=False), min_size=n, max_size=n)
        )
        p1 = [w / math.fsum(w1) for w in w1]
        p2 = [w / math.fsum(w2) for w in w2]
        m1 = mass_new(frame, [(frame.singleton(a), p) for a, p in zip(frame.atoms, p1)])
        m2 = mass_new(frame, [(frame.singleton(a), p) for a, p in zip(frame.atoms, p2)])
        result = combine(m1, m2).result
        pointwise = [a * b for a, b in zip(p1, p2)]
        norm = math.fsum(pointwise)
        for atom, expected in zip(frame.atoms, pointwise):
            assert result.mass(frame.singleton(atom)) == pytest.approx(
                expected / norm, abs=1e-12
            )
        assert all(len(p) == 1 for p, _ in result.focals())


class TestCombineAll:
    def test_single_element(self, lt_frame):
        m, _ = lake_tower_pair(lt_frame)
        report = combine_all([m])
        assert report.result == m
        assert report.conflict == 0.0

    def test_three_agreeing_halves(self, lt_frame):
        lake = lt_frame.proposition(["lake"])
        halves = [simple_support(lt_frame, lake, 0.5) for _ in range(3)]
        report = combine_all(halves)
        assert report.result.mass(lake) == pytest.approx(0.875, abs=1e-15)

    def test_empty_list_rejected(self):
        with pytest.raises(Exception):
            combine_all([])

    @given(st.data())
    def test_permutation_stable(self, data):
        frame = data.draw(frames(max_atoms=4))
        trio = [
            data.draw(mass_on(frame, max_focals=4, with_ignorance=True))
            for _ in range(3)
        ]
        base = combine_all(trio).result
        permutation = data.draw(st.permutations(trio))
        assert combine_all(list(permutation)).result.allclose(base, atol=1e-9)

    def test_cumulative_conflict_formula(self, ltr_frame):
        lake = ltr_frame.proposition(["lake"])
        tower = ltr_frame.proposition(["tower"])
        ridge = ltr_frame.proposition(["ridge"])
        chain = [
            simple_support(ltr_frame, lake, 0.7),
            simple_support(ltr_frame, tower, 0.6),
            simple_support(ltr_frame, ridge, 0.5),
        ]
        # fold by hand through the pairwise oracle
        step1, k1 = combine_oracle(focal_map(chain[0]), focal_map(chain[1]))
        _, k2 = combine_oracle(step1, focal_map(chain[2]))
        expected = 1.0 - (1.0 - k1) * (1.0 - k2)
        assert combine_all(chain).conflict == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(2, 8),
        st.integers(200, 400),
        st.integers(0, 2**32 - 1),
    )
    def test_long_fold_stays_normalized(self, n_atoms, length, seed):
        # rounding must not compound along the fold: 200+ supports once
        # drifted past NORMALIZATION_TOL and raised NotNormalized
        rng = random.Random(seed)
        frame = Frame([f"a{i}" for i in range(n_atoms)])
        chain = [
            simple_support(
                frame,
                frame.proposition(
                    rng.sample(frame.atoms, rng.randint(1, max(1, n_atoms // 2)))
                ),
                rng.uniform(0.05, 0.6),
            )
            for _ in range(length)
        ]
        report = combine_all(chain)
        got = focal_map(report.result)
        assert math.fsum(got.values()) == pytest.approx(1.0, abs=1e-12)
        expected, expected_conflict = fold_oracle([focal_map(m) for m in chain])
        assert report.conflict == pytest.approx(expected_conflict, abs=1e-9)
        for h in set(got) | set(expected):
            assert got.get(h, 0.0) == pytest.approx(expected.get(h, 0.0), abs=1e-9)
        for atom in frame.atoms:
            a = frozenset((atom,))
            bel, pl = report.result.interval(frame.singleton(atom))
            assert 0.0 <= bel <= pl <= 1.0
            assert bel == pytest.approx(bel_oracle(expected, a), abs=1e-9)
            assert pl == pytest.approx(pl_oracle(expected, a), abs=1e-9)

    def test_total_conflict_reports_index(self, lt_frame):
        lake = lt_frame.proposition(["lake"])
        tower = lt_frame.proposition(["tower"])
        chain = [
            simple_support(lt_frame, lake, 0.5),
            simple_support(lt_frame, lake, 1.0),
            simple_support(lt_frame, tower, 1.0),
        ]
        with pytest.raises(TotalConflict) as err:
            combine_all(chain)
        assert err.value.index == 2


class TestDiscount:
    def test_identity(self, lt_frame):
        m, _ = lake_tower_pair(lt_frame)
        assert discount(m, 1.0) == m

    def test_scales_toward_ignorance(self, lt_frame):
        lake = lt_frame.proposition(["lake"])
        eroded = discount(simple_support(lt_frame, lake, 0.6), 0.81)
        assert eroded.mass(lake) == 0.81 * 0.6
        assert eroded.allclose(simple_support(lt_frame, lake, 0.486), atol=1e-12)

    @given(masses())
    def test_zero_factor_is_vacuous(self, frame_and_mass):
        frame, m = frame_and_mass
        assert discount(m, 0.0) == vacuous(frame)

    def test_factor_out_of_range(self, lt_frame):
        m, _ = lake_tower_pair(lt_frame)
        for bad in (-0.1, 1.0001, float("nan")):
            with pytest.raises(FactorOutOfRange):
                discount(m, bad)

    @given(st.data())
    def test_whole_frame_absorbs_erosion(self, data):
        frame = data.draw(frames(max_atoms=4))
        m = data.draw(mass_on(frame))
        factor = data.draw(st.floats(0.0, 1.0, allow_nan=False))
        eroded = discount(m, factor)
        full = frame.full()
        for p, w in m.focals():
            if p != full:
                assert eroded.mass(p) == pytest.approx(factor * w, abs=1e-15)
        assert eroded.mass(full) == pytest.approx(
            1.0 - factor * (1.0 - m.mass(full)), abs=1e-12
        )


class TestExactSum:
    """Only products that are exactly 0.0 are dropped, and total conflict
    means that nothing survives, so a fold does not depend on its grouping."""

    def test_only_products_that_underflow_are_dropped(self, lt_frame, ltr_frame):
        lake = lt_frame.proposition(["lake"])
        nearly_one = 1.0 - 1e-16
        report = combine(
            simple_support(lt_frame, lake, nearly_one),
            simple_support(lt_frame, lake, nearly_one),
        )
        # the whole frame keeps the product of the two complements, 1.2e-32
        assert report.result.mass(lt_frame.full()) == (1.0 - nearly_one) ** 2
        # {lake, tower} x {tower, ridge} meet on {tower} with 1e-400, which
        # underflows to 0.0, so {tower} is no focal of the sum
        frame = ltr_frame
        m1 = mass_new(frame, [(frame.proposition(["lake", "tower"]), 1e-200), (frame.full(), 1.0)])
        m2 = mass_new(frame, [(frame.proposition(["tower", "ridge"]), 1e-200), (frame.full(), 1.0)])
        assert set(focal_map(combine(m1, m2).result)) == {
            frozenset({"lake", "tower"}), frozenset({"tower", "ridge"}), frozenset(frame.atoms)
        }

    def test_sum_whose_surviving_products_all_underflow_is_total_conflict(self, ltr_frame):
        frame = ltr_frame
        tower = frame.proposition(["tower"])
        # the only non-empty intersection is {tower}, with 1e-200 squared
        m1 = mass_new(frame, [(frame.proposition(["lake"]), 1.0), (tower, 1e-200)])
        m2 = mass_new(frame, [(frame.proposition(["ridge"]), 1.0), (tower, 1e-200)])
        with pytest.raises(TotalConflict):
            combine(m1, m2)
        with pytest.raises(TotalConflict):
            combine_all([m1, m2])

    def test_conflict_just_short_of_total_fuses(self, lt_frame):
        lake, tower = lt_frame.proposition(["lake"]), lt_frame.proposition(["tower"])
        report = combine(
            simple_support(lt_frame, lake, 1.0), simple_support(lt_frame, tower, 1.0 - 1e-13)
        )
        assert focal_map(report.result) == {frozenset({"lake"}): 1.0}
        assert report.conflict == 1.0 - 1e-13

    def test_conflict_of_accepted_totals_is_clamped_at_one(self, lt_frame):
        # both totals are 1 within NORMALIZATION_TOL, and the raw conflict
        # is (1 - 1e-12 + 5e-10) * (1 + 5e-10), above 1
        m1 = mass_new(
            lt_frame,
            [(lt_frame.proposition(["lake"]), 1.0 - 1e-12 + 5e-10), (lt_frame.full(), 1e-12)],
        )
        m2 = mass_new(lt_frame, [(lt_frame.proposition(["tower"]), 1.0 + 5e-10)])
        report = combine(m1, m2)
        assert focal_map(report.result) == {frozenset({"tower"}): 1.0}
        assert report.conflict == 1.0
        assert conflict_mass(m1, m2) == 1.0

    def test_lockstep_conflict_that_rounds_above_one_is_clamped(self):
        # one accumulator on three atoms whose rows total an ulp above 1, as
        # rows scaled by their own total can; a certain support on the middle
        # atom meets only the whole frame, 1e-20, and conflicts with the rest
        masses = np.array([0.5, 0.5000000000000002, 1e-20])
        assert masses[0] + masses[1] > 1.0
        step, bits, scaled, conflict = combine_module._sum_supports(
            np.zeros(3, np.int16), np.array([0b001, 0b100, 0b111], np.uint64), masses,
            np.array([0b010], np.uint64), np.array([1.0]), 3,
        )
        assert conflict.tolist() == [1.0]
        assert (step.tolist(), bits.tolist(), scaled.tolist()) == ([0], [0b010], [1.0])


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


@st.composite
def lockstep_blocks(draw):
    """A frame of 1 to 64 atoms, accumulators on it, and a support for each.

    An accumulator is contradicted (no rows), a simple support (so some are
    the support they are summed with), or up to six random focals, and most
    hold one or two; foci and masks favour the top atom and the whole frame,
    and degrees 0 and 1.
    """
    n_atoms = draw(st.integers(1, 64))
    frame = Frame([f"a{i:02d}" for i in range(n_atoms)])
    full = (1 << n_atoms) - 1
    top = 1 << (n_atoms - 1)
    masks = st.sampled_from([full, top, top | 1]) | st.integers(1, full)
    # two-decimal degrees round their products, so their order shows
    degrees = (
        st.sampled_from([0.0, 1.0, 0.5])
        | st.integers(1, 99).map(lambda k: k / 100)
        | st.floats(0.0, 1.0)
    )
    accumulators, focus, degree = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        focus.append(draw(masks))
        degree.append(draw(degrees))
        kind = draw(st.sampled_from(["contradicted", "support", "random"]))
        if kind == "contradicted":
            accumulators.append(None)
        elif kind == "support":
            # on the support's own focus, three products meet on it, and
            # their order shows in the last bit
            mask = draw(st.just(focus[-1]) | masks)
            accumulators.append(simple_support(frame, frame.from_bits(mask), draw(degrees)))
        else:
            bits = draw(st.lists(masks, min_size=1, max_size=6, unique=True))
            weights = [draw(st.floats(0.01, 1.0)) for _ in bits]
            total = math.fsum(weights)
            accumulators.append(
                mass_new(frame, [(frame.from_bits(b), w / total) for b, w in zip(bits, weights)])
            )
    if draw(st.booleans()):
        # the same support for every accumulator, as a block's round never has
        focus, degree = focus[:1] * len(focus), degree[:1] * len(degree)
    return frame, accumulators, focus, degree


class TestLockstepSum:
    """``_sum_supports`` is ``combine`` with a simple support, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(lockstep_blocks())
    @example(
        # the accumulator leads, and its support meets it on {lake} three times
        (Frame(["lake", "tower"]), [simple_support(Frame(["lake", "tower"]),
         Frame(["lake", "tower"]).proposition(["lake"]), 0.01)], [0b01], [0.04])
    )
    def test_each_sum_is_combine_with_the_support(self, block):
        frame, accumulators, focus, degree = block
        live = [m for m in accumulators if m is not None]
        step = np.repeat(
            np.arange(len(accumulators), dtype=np.int16),
            [0 if m is None else len(m) for m in accumulators],
        )
        bits = np.concatenate([m._bits for m in live] or [np.zeros(0, np.uint64)])
        masses = np.concatenate([m._masses for m in live] or [np.zeros(0)])
        got_step, got_bits, got_masses, got_conflict = combine_module._sum_supports(
            step, bits, masses, np.array(focus, np.uint64), np.array(degree), len(frame)
        )
        for k, acc in enumerate(accumulators):
            mine = got_step == k
            if acc is None:
                want = (0.0, [], [])
            else:
                support = simple_support(frame, frame.from_bits(focus[k]), degree[k])
                conflict, want_bits, want_masses = combine_module._summed(acc, support)
                want = (conflict, want_bits.tolist(), _hex(want_masses))
            got = (float(got_conflict[k]), got_bits[mine].tolist(), _hex(got_masses[mine]))
            assert got[0].hex() == want[0].hex()
            assert got[1:] == want[1:]

    def test_cases_cover_the_two_focal_orders(self):
        # a two-focal accumulator leads its support when its bytes order
        # first, and follows it otherwise; both orders must occur
        frame = Frame(["lake", "tower", "ridge"])
        lake, tower = frame.proposition(["lake"]), frame.proposition(["tower"])
        acc = simple_support(frame, lake, 0.4)
        def first(m1, m2):
            return combine_module._leads((m1._bits, m1._masses), (m2._bits, m2._masses))

        for support in (simple_support(frame, tower, 0.3), simple_support(frame, lake, 0.9)):
            leads = combine_module._accumulator_leads(
                np.array([2]), np.array([2]), acc._bits, acc._masses,
                np.array([support._bits[0]]), np.array([support._masses[0]]),
                np.uint64(frame._full_bits),
            )
            assert first(acc, support) == (leads.tolist() == [0])
        supports = [simple_support(frame, f, 0.3) for f in (lake, tower)]
        assert {first(acc, m) for m in supports} == {True, False}

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 64).flatmap(
            lambda n: st.tuples(
                st.just(n), st.just((1 << n) - 1) | st.integers(1, (1 << n) - 1)
            )
        ),
        st.sampled_from(
            [0.0, 1.0, 5e-324, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)]
        ) | st.floats(0.0, 1.0),
    )
    def test_a_vacuous_row_summed_with_a_support_is_the_support(self, frame_focus, degree):
        # the replay's chains start from the vacuous row: its sum with a
        # support must be the support's own rows, because fl(d + fl(1 - d))
        # is 1.0 for every d in [0, 1], so the sum divides by exactly 1
        n_atoms, focus = frame_focus
        full = (1 << n_atoms) - 1
        want_bits, want_masses = combine_module._support_rows(focus, degree, full)
        # one accumulator takes the pairwise sum, two the grouped one
        for count in (1, 2):
            step, bits, masses, conflict = combine_module._sum_supports(
                np.arange(count, dtype=np.int16), np.full(count, full, np.uint64),
                np.ones(count), np.full(count, focus, np.uint64), np.full(count, degree),
                n_atoms,
            )
            assert _hex(conflict) == [0.0.hex()] * count
            for k in range(count):
                assert bits[step == k].tolist() == want_bits.tolist()
                assert _hex(masses[step == k]) == _hex(want_masses)


combine_module = importlib.import_module("evident.combine")


def probe_foci(count: int, seed: int = 1):
    """A 32-atom frame and ``count`` random 29-atom foci on it.

    Simple supports on such foci share no focal when folded, so the focal
    set of their fold doubles with every support.
    """
    rng = random.Random(seed)
    frame = Frame([f"a{i:02d}" for i in range(32)])
    return frame, [frame.proposition(rng.sample(frame.atoms, 29)) for _ in range(count)]


class TestPairCap:
    CAP = 1 << 12

    def test_probe_fold_is_refused(self, monkeypatch):
        monkeypatch.setattr(combine_module, "MAX_PAIRS", self.CAP)
        frame, foci = probe_foci(40)
        supports = [simple_support(frame, focus, 0.3) for focus in foci]
        acc = supports[0]
        with pytest.raises(CombinationTooLarge, match=f"above the cap of {self.CAP}"):
            for m in supports[1:]:
                acc = combine(acc, m).result
                assert len(acc) <= self.CAP
        assert len(acc) * 2 > self.CAP
        with pytest.raises(CombinationTooLarge):
            combine_all(supports)
        with pytest.raises(CombinationTooLarge):
            conflict_mass(acc, acc)

    @pytest.mark.parametrize("rate", [1.0, 0.9])
    def test_probe_replay_is_refused(self, monkeypatch, rate):
        monkeypatch.setattr(combine_module, "MAX_PAIRS", self.CAP)
        frame, foci = probe_foci(40)
        reports = tuple(
            SensorReport(f"s{i:02d}", float(i), focus, 0.3) for i, focus in enumerate(foci)
        )
        scenario = Scenario(frame, reports, window=100.0, discount_rate=rate)
        with pytest.raises(CombinationTooLarge):
            run_scenario(scenario)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_fold_finishes_or_is_refused(self, data):
        frame = data.draw(frames(min_atoms=2, max_atoms=6))
        masses = data.draw(
            st.lists(mass_on(frame, max_focals=8, with_ignorance=True), min_size=2, max_size=6)
        )
        cap = data.draw(st.integers(1, 64))
        # the step at which a fold under the cap must stop, found by hand
        acc, refused_at = masses[0], None
        for i, m in enumerate(masses[1:], start=1):
            if len(acc) * len(m) > cap:
                refused_at = i
                break
            acc = combine(acc, m).result
            assert len(acc) <= cap
        with mock.patch.object(combine_module, "MAX_PAIRS", cap):
            try:
                report = combine_all(masses)
            except CombinationTooLarge:
                assert refused_at is not None
            else:
                assert refused_at is None
                assert len(report.result) <= cap
