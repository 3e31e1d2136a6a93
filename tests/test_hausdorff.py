"""Dimensions of closed subgroups and the spectrum of attainable values."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as hst

import oracles
from pstrata.catalog import build_Gm_lattice, get_bundle, random_block_action
from pstrata.errors import EnumerationTooLarge, PrecisionExhausted, RankDeficient
from pstrata.gmodule import SeriesTrace, lower_p_series
from pstrata import hausdorff
from pstrata.lattice import Lattice
from pstrata.hausdorff import (
    SubgroupSpec,
    dimension_report,
    echelon_pivots,
    hdim_exact,
    hdim_numeric,
    spectrum,
)
from pstrata.strata import RateVector, Stratification, run_stratification

F = Fraction


def unit_rows(d, idx):
    return tuple(tuple(1 if j == i else 0 for j in range(d)) for i in idx)


@pytest.fixture(scope="module")
def gm2():
    b = get_bundle("Gm2")
    tr = lower_p_series(b.lattice, b.action, 40)
    st, _ = run_stratification(tr, denom_bound=8)
    return b, tr, st


@pytest.fixture(scope="module")
def eis2():
    b = get_bundle("eisenstein2")
    tr = lower_p_series(b.lattice, b.action, 16)
    st, _ = run_stratification(tr, denom_bound=8)
    return b, tr, st


class TestPivots:
    def test_frozen_cases(self):
        assert echelon_pivots(SubgroupSpec(2, 8, ((1, 2), (0, 4)))) == (0, 1)
        assert echelon_pivots(SubgroupSpec(2, 8, ((2, 1),))) == (1,)
        assert echelon_pivots(SubgroupSpec(2, 8, ((1, 1), (0, 2)))) == (0, 1)
        assert echelon_pivots(SubgroupSpec(2, 8, ())) == ()

    def test_dependent_rows_rejected(self):
        with pytest.raises(RankDeficient):
            echelon_pivots(SubgroupSpec(2, 8, ((2, 4), (1, 2))))

    def test_scaling_a_row_keeps_the_pivot(self):
        a = echelon_pivots(SubgroupSpec(2, 8, ((1, 0),)))
        b = echelon_pivots(SubgroupSpec(2, 8, ((4, 0),)))
        assert a == b == (0,)


class TestExact:
    def test_boundary_values(self, eis2):
        b, tr, st = eis2
        assert hdim_exact(SubgroupSpec(2, tr.precision, ()), st) == 0
        assert hdim_exact(SubgroupSpec(2, tr.precision, unit_rows(2, (0, 1))), st) == 1

    def test_single_pivot(self, eis2):
        b, tr, st = eis2
        assert hdim_exact(SubgroupSpec(2, tr.precision, ((1, 0),)), st) == F(1, 2)

    def test_weighted_instance(self, gm2):
        # one pivot in the fast block, two in the slow block; the extra
        # weight of 1 accounts for the coordinate outside the lattice
        b, tr, st = gm2
        H = SubgroupSpec(2, tr.precision, unit_rows(5, (0, 1, 3)))
        assert hdim_exact(H, st, b.extra_weights) == F(7, 18)
        full = SubgroupSpec(2, tr.precision, unit_rows(5, range(5)))
        assert hdim_exact(full, st, b.extra_weights) == F(2, 3)

    def test_rows_wider_than_frame_rejected(self, eis2):
        b, tr, st = eis2
        with pytest.raises(ValueError):
            hdim_exact(SubgroupSpec(2, tr.precision, ((0, 0, 1),)), st)


class TestNumeric:
    def test_full_subgroup_quotients_are_one(self, eis2):
        b, tr, st = eis2
        q, strong = hdim_numeric(SubgroupSpec(2, tr.precision, unit_rows(2, (0, 1))), tr, st)
        assert set(q) == {F(1)} and strong

    def test_single_pivot_converges(self, eis2):
        b, tr, st = eis2
        H = SubgroupSpec(2, tr.precision, ((1, 0),))
        q, strong = hdim_numeric(H, tr, st, tolerance=F(1, 25))
        assert abs(q[-1] - F(1, 2)) <= F(1, 25)
        assert strong

    def test_report_combines_both(self, gm2):
        b, tr, st = gm2
        H = SubgroupSpec(2, tr.precision, unit_rows(5, (0, 1, 3)))
        rep = dimension_report(H, tr, st, b.extra_weights)
        assert rep.exact == F(7, 18)
        assert rep.pivots == (0, 1, 3)
        # quotients measure the lattice part only, so with an extra weight
        # they approach sigma-normalised mass 7/12, not 7/18
        assert abs(rep.quotients[-1] - F(7, 12)) < F(1, 20)
        assert len(rep.quotients) == tr.i_max


@lru_cache(maxsize=None)
def _random_instance(sizes, seed, p):
    b = random_block_action(sizes, seed, p=p, N=26)
    tr = lower_p_series(b.lattice, b.action, 24)
    st, _ = run_stratification(tr, denom_bound=max(sizes + (2,)))
    return tr, st


block_sizes = hst.lists(hst.integers(1, 3), min_size=1, max_size=3).map(tuple).filter(
    lambda s: sum(s) <= 6)


class TestNumericAgainstJoinReference:
    """hdim_numeric returns what the from_rows + log_index loop returns."""

    @settings(max_examples=60, deadline=None)
    @given(block_sizes, hst.integers(0, 9), hst.sampled_from([2, 3]), hst.data())
    def test_random_actions_and_subgroups(self, sizes, seed, p, data):
        tr, st = _random_instance(sizes, seed, p)
        d, pN = sum(sizes), p**tr.precision
        entry = hst.one_of(hst.integers(0, p**2), hst.integers(0, pN - 1))
        rows = data.draw(hst.lists(hst.lists(entry, min_size=d, max_size=d), max_size=d + 1))
        H = SubgroupSpec(p, tr.precision, tuple(map(tuple, rows)))
        tol = data.draw(hst.sampled_from([F(0), F(1, 100), F(1, 3)]))
        assert hdim_numeric(H, tr, st, tol) == oracles.join_quotients(H, tr, st, tol)

    @pytest.mark.parametrize("sizes,seed", [((2, 1), 0), ((3, 2), 4), ((1, 1, 2), 7)])
    def test_subgroup_inside_every_term(self, sizes, seed):
        tr, st = _random_instance(sizes, seed, 2)
        d, deep = sum(sizes), 2 ** tr.terms[-1].lower_level
        rows = [[deep if j == k else 0 for j in range(d)] for k in range(d)]
        H = SubgroupSpec.from_ambient(2, tr.precision, rows, st)
        q, strong = hdim_numeric(H, tr, st)
        assert set(q) == {F(0)} and strong
        assert (q, strong) == oracles.join_quotients(H, tr, st)

    @pytest.mark.parametrize("sizes,seed", [((2, 1), 0), ((3, 2), 4), ((1, 1, 2), 7)])
    def test_full_lattice(self, sizes, seed):
        tr, st = _random_instance(sizes, seed, 2)
        rows = [list(r) for r in tr.ambient.basis]
        H = SubgroupSpec.from_ambient(2, tr.precision, rows, st)
        q, strong = hdim_numeric(H, tr, st)
        assert set(q) == {F(1)} and strong
        assert (q, strong) == oracles.join_quotients(H, tr, st)

    def test_no_lattice_is_built_when_every_term_has_a_level(self, monkeypatch):
        # lower_p_series caches each term's level, so no join is guarded:
        # hdim_numeric builds no Lattice, its only way to reach hermite_rows
        tr, st = _random_instance((2, 1), 0, 2)
        H = SubgroupSpec(2, tr.precision, ((1, 0, 0), (0, 2, 1)))
        expected = oracles.join_quotients(H, tr, st)
        monkeypatch.setattr(hausdorff, "Lattice", None)
        assert hdim_numeric(H, tr, st) == expected

    def test_guard_still_fires_on_a_hand_built_trace(self):
        # the term's level 5 exceeds N - 2 = 4 and nothing cached it, so the
        # join is guarded as Lattice.from_rows guards it
        L = Lattice.standard(2, 6, 2)
        deep = Lattice(2, 6, 2, ((1, 0), (0, 32)))
        tr = SeriesTrace(L, None, (L, deep), ((0, 0), (0, 5)), 1)
        st = Stratification(((1, 0), (0, 1)), RateVector((F(1), F(1))), 0, (1, 1), "")
        for rows in [(), ((2, 0),)]:
            H = SubgroupSpec(2, 6, rows)
            with pytest.raises(PrecisionExhausted):
                oracles.join_quotients(H, tr, st)
            with pytest.raises(PrecisionExhausted):
                hdim_numeric(H, tr, st)
        H = SubgroupSpec(2, 6, ((0, 1),))
        assert hdim_numeric(H, tr, st) == oracles.join_quotients(H, tr, st) == ([F(1)], True)


class TestSpectrum:
    def test_uniform_rates(self):
        rv = RateVector((F(1),) * 3)
        assert spectrum(rv) == (F(0), F(1, 3), F(2, 3), F(1))

    def test_remark27_grid(self):
        b = get_bundle("remark27")
        tr = lower_p_series(b.lattice, b.action, 24)
        st, _ = run_stratification(tr, denom_bound=8)
        assert spectrum(st.rates) == tuple(F(k, 24) for k in range(25))

    def test_weighted_spectrum_size(self, gm2):
        b, tr, st = gm2
        sp = spectrum(st.rates, b.extra_weights)
        assert len(sp) == 17
        assert sp[0] == 0 and sp[-1] == 1
        assert all(a < b for a, b in zip(sp, sp[1:]))

    def test_exact_dim_is_always_in_spectrum(self, gm2):
        b, tr, st = gm2
        sp = set(spectrum(st.rates, b.extra_weights))
        d = 5
        for idx in [(0,), (4,), (0, 3), (1, 2, 4), (0, 1, 2, 3, 4)]:
            H = SubgroupSpec(2, tr.precision, unit_rows(d, idx))
            assert hdim_exact(H, st, b.extra_weights) in sp

    def test_too_many_weights(self):
        rv = RateVector((F(1),) * 3)
        with pytest.raises(EnumerationTooLarge):
            spectrum(rv, extra_weights=tuple(F(1, k) for k in range(1, 42)))

    def test_meet_in_the_middle_band(self):
        # 30 equal weights are 31 multiplicity choices, not 2^30 subsets
        rv = RateVector((F(1),) * 30)
        assert spectrum(rv) == tuple(F(k, 30) for k in range(31))

    def test_gm6_counts(self):
        # 41 rates over 6 distinct values, 42 weights with the extra one;
        # both counts agree with an uncapped subset-sum enumeration
        b = build_Gm_lattice(6)
        rv = RateVector(b.expected_rates)
        lattice_only = spectrum(rv)
        assert len(lattice_only) == 70_391
        weighted = spectrum(rv, b.extra_weights)
        assert len(weighted) == 100_421
        assert weighted[0] == 0 and weighted[-1] == 1
        # total mass 7: six blocks of mass 1 plus the extra weight alone
        assert F(1, 7) in weighted


class TestCoordinates:
    def test_ambient_round_trip(self, gm2):
        b, tr, st = gm2
        H = SubgroupSpec(2, tr.precision, unit_rows(5, (0, 2, 4)))
        amb = H.ambient_rows(st)
        back = SubgroupSpec.from_ambient(2, tr.precision, amb, st)
        assert back.rows == H.rows

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            SubgroupSpec(2, 8, ((1, 0), (1, 0, 0)))

    def test_float_rows_rejected(self):
        # a float entry used to be truncated: 1.5 became 1
        with pytest.raises(ValueError):
            SubgroupSpec(2, 8, ((1.5, 0),))


def test_sampled_subgroups_convergence():
    # generic saturated subgroups on a seeded instance: the quotient after a
    # long window sits near the exact value (loose tolerance; the acceptance
    # battery pins the tight one)
    bundle = random_block_action((2, 1), seed=11)
    tr = lower_p_series(bundle.lattice, bundle.action, 48)
    st, _ = run_stratification(tr, denom_bound=4)
    rng = random.Random(7)
    d = 3
    for _ in range(5):
        r = rng.randint(1, d)
        cols = sorted(rng.sample(range(d), r))
        rows = tuple(
            tuple(1 if j == c else 0 for j in range(d)) for c in cols
        )
        H = SubgroupSpec(2, tr.precision, rows)
        q, _ = hdim_numeric(H, tr, st)
        assert abs(q[-1] - hdim_exact(H, st)) <= F(1, 20)
