"""Dimensions of closed subgroups and the spectrum of attainable values."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as hst

import oracles
from pstrata.catalog import build_Gm_lattice, get_bundle, random_block_action
from pstrata.errors import EnumerationTooLarge, PrecisionExhausted, RankDeficient
from pstrata.gmodule import SeriesTrace, lower_p_series
from pstrata import hausdorff, lattice
from pstrata.lattice import Lattice
from pstrata.padic import hermite_rows, int_valuation, mat_mul, smith_rows
from pstrata.hausdorff import (
    SubgroupSpec,
    dimension_report,
    echelon_pivots,
    hdim_exact,
    hdim_numeric,
    spectrum,
)
from pstrata.strata import CycleCertificate, RateVector, Stratification, run_stratification

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


def _rank_by_fractions(rows) -> int:
    """Gaussian elimination over Q with Fraction entries."""
    a = [[F(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        r = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if r is None:
            continue
        a[rank], a[r] = a[r], a[rank]
        for r in range(rank + 1, len(a)):
            f = a[r][c] / a[rank][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


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

    def test_order_dependent_rows_are_refused(self):
        # at N = 4 these rows admit pivots (1, 2, 3, 4) as well as
        # (0, 2, 3, 4), depending on the order they are eliminated in; the
        # pivot exponents sum to 7, so every order is refused below N = 8,
        # as short of precision: the rows are independent over Q, though at
        # N = 4 their Smith exponents (0, 1, 1, 4) lose the last one mod 2^4
        rows = [(4, 0, 0, 2, 2), (1, -15, 4, 1, -9), (0, 0, 0, 2, 2), (0, 2, 0, -10, 2)]
        assert smith_rows(rows, 2, 4)[0] == [0, 1, 1]
        assert hausdorff._rank_over_q(rows) == 4
        for order in itertools.permutations(rows):
            for N in (4, 5, 6, 7):
                with pytest.raises(PrecisionExhausted):
                    echelon_pivots(SubgroupSpec(2, N, order))
            assert echelon_pivots(SubgroupSpec(2, 8, order)) == (0, 2, 3, 4)

    @pytest.mark.parametrize("p", [2, 3])
    def test_rows_dependent_over_q_are_rank_deficient_in_every_order(self, p):
        # a repeated row, and a row that is the sum of two others: no
        # precision certifies them, so every order at every N says dependent
        a, b, c = (4, 0, 0, 2, 2), (1, -15, 4, 1, -9), (0, 2, 0, -10, 2)
        total = tuple(x + y for x, y in zip(a, c))
        for rows in ([a, b, a], [a, b, c, total]):
            for order in itertools.permutations(rows):
                for N in range(1, 13):
                    with pytest.raises(RankDeficient):
                        echelon_pivots(SubgroupSpec(p, N, order))

    @settings(max_examples=200, deadline=None)
    @given(hst.integers(1, 5), hst.integers(1, 5), hst.data())
    def test_rank_over_q_matches_elimination_over_fractions(self, n, d, data):
        entry = hst.one_of(hst.sampled_from([0, 1, -1, 2]), hst.integers(-50, 50))
        rows = data.draw(hst.lists(hst.tuples(*[entry] * d), min_size=n, max_size=n))
        # some draws get a row that is a combination of two earlier ones
        if n >= 3 and data.draw(hst.booleans()):
            u, v = data.draw(hst.integers(-3, 3)), data.draw(hst.integers(-3, 3))
            rows[-1] = tuple(u * x + v * y for x, y in zip(rows[0], rows[1]))
        assert hausdorff._rank_over_q(rows) == _rank_by_fractions(rows)

    def test_an_order_with_a_small_exponent_sum_is_certified(self):
        # the Hermite form from the right has pivots (1, 3, 4), exponents
        # (1, 2, 0), in three orders, and (2, 3, 4), exponents (1, 2, 5),
        # in the other three; each of those three has a cyclic rotation
        # that certifies, so every order gives (1, 3, 4)
        rows = [(3, 4, -2, 4, 12), (0, 1, 0, 0, 2), (2, 4, 4, -8, 2)]
        for N in (6, 9, 12, 30):
            refused = 0
            for order in itertools.permutations(rows):
                red, piv, _ = hermite_rows([row[::-1] for row in order], 2, N)
                refused += sum(int_valuation(red[k][c], 2, N) for k, c in enumerate(piv)) >= N
                assert echelon_pivots(SubgroupSpec(2, N, order)) == (1, 3, 4)
            assert refused == 3  # the given order alone is refused in three of the six

    def test_dependent_rows_are_rank_deficient_in_every_order(self):
        # three of the six orders give 2 Hermite pivots, the others 3 with
        # exponents reaching N; the third row is 3 times the first plus the
        # second, so every order is refused as dependent over Q, not as
        # short of precision
        rows = [(-2, 2, 1), (4, -2, 1), (-2, 4, 4)]
        assert len(smith_rows(rows, 2, 3)[0]) == 2
        assert hausdorff._rank_over_q(rows) == 2
        for order in itertools.permutations(rows):
            with pytest.raises(RankDeficient):
                echelon_pivots(SubgroupSpec(2, 3, order))

    def test_no_rotation_certifies_at_too_low_a_precision(self):
        # the pinned rows' exponents sum to 3 in every order, so N = 3 refuses
        # all six orders after trying each rotation
        rows = [(3, 4, -2, 4, 12), (0, 1, 0, 0, 2), (2, 4, 4, -8, 2)]
        for order in itertools.permutations(rows):
            with pytest.raises(PrecisionExhausted, match="reach the precision 3"):
                echelon_pivots(SubgroupSpec(2, 3, order))

    @settings(max_examples=200, deadline=None)
    @given(hst.sampled_from([2, 3, 5]), hst.integers(3, 10), hst.integers(2, 5), hst.data())
    def test_certified_pivots_do_not_depend_on_the_row_order(self, p, N, d, data):
        def entry(pN=p**N):
            return hst.one_of(hst.sampled_from([0, 1, p, p**2, p**3, -p]), hst.integers(0, pN - 1))

        rows = data.draw(hst.lists(hst.tuples(*[entry()] * d), min_size=1, max_size=d))
        outcomes = set()
        for _ in range(3):
            order = data.draw(hst.permutations(rows))
            try:
                outcomes.add(echelon_pivots(SubgroupSpec(p, N, order)))
            except (PrecisionExhausted, RankDeficient):
                pass
        assert len(outcomes) <= 1


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
        expected = oracles.join_quotients(H, tr, st, tol)
        assert hdim_numeric(H, tr, st, tol) == expected
        # the strong flag at its boundary: the tail's spread itself is
        # strong, anything below it is not
        tail = expected[0][-max(1, len(expected[0]) // 3):]
        spread = max(tail) - min(tail)
        for tol, strong in ((spread, True), (spread - F(1, 10**6), False)):
            expected = oracles.join_quotients(H, tr, st, tol)
            assert expected[1] is strong
            assert hdim_numeric(H, tr, st, tol) == expected

    @settings(max_examples=60, deadline=None)
    @given(block_sizes, hst.integers(0, 9), hst.sampled_from([2, 3]), hst.data())
    def test_full_rank_subgroups(self, sizes, seed, p, data):
        # full-rank H, whose joins stop moving once they reach H + p^N Z_p^d:
        # Z_p^d, p^k Z_p^d, or a late term, each under a random basis; the
        # joins reach the late term only at its own index
        tr, st = _random_instance(sizes, seed, p)
        d, N = sum(sizes), tr.precision
        pN = p**N
        entry = hst.integers(0, pN - 1)
        lower = [[data.draw(entry) if j < i else int(j == i) for j in range(d)] for i in range(d)]
        upper = [[data.draw(entry) if j > i else int(j == i) for j in range(d)] for i in range(d)]
        unimodular = mat_mul(lower, upper, pN)
        kind = data.draw(hst.sampled_from(["saturated", "scaled", "late term"]))
        if kind == "saturated":
            base = unit_rows(d, range(d))
        elif kind == "scaled":
            k = data.draw(hst.integers(1, 4))
            base = [[p**k * x for x in row] for row in unit_rows(d, range(d))]
        else:
            base = tr.terms[data.draw(hst.integers(tr.i_max // 2, tr.i_max))].basis
        H = SubgroupSpec.from_ambient(p, N, mat_mul(unimodular, base, pN), st)
        assert hdim_numeric(H, tr, st) == oracles.join_quotients(H, tr, st)

    def test_insertions_stop_at_the_stationary_join(self, monkeypatch):
        # this trace has the cycle (0, 1, 1), so a saturated H, full rank or
        # not, takes every numerator from the cycle and inserts nothing; the
        # late term is not saturated and still stops at its own index
        tr, st = _random_instance((2, 1), 0, 2)
        assert tr.cycle == CycleCertificate(0, 1, 1)
        calls = _count_inserts(monkeypatch)
        late = tr.i_max // 2
        cases = [
            (unit_rows(3, range(3)), 0),
            (unit_rows(3, (0, 2)), 0),
            ([list(r) for r in tr.terms[late].basis], late),
        ]
        for rows, inserts in cases:
            calls.clear()
            H = SubgroupSpec.from_ambient(2, tr.precision, rows, st)
            assert hdim_numeric(H, tr, st) == oracles.join_quotients(H, tr, st)
            assert len(calls) == inserts

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
        # lower_p_series caches each term's level, so the term guard reads
        # it and takes no divisor profile; no join lattice is built either
        tr, st = _random_instance((2, 1), 0, 2)
        H = SubgroupSpec(2, tr.precision, ((1, 0, 0), (0, 2, 1)))
        expected = oracles.join_quotients(H, tr, st)
        monkeypatch.setattr(lattice, "divisor_profile", None)
        monkeypatch.setattr(Lattice, "_canonical", None)
        assert hdim_numeric(H, tr, st) == expected

    def test_guard_still_fires_on_a_hand_built_trace(self):
        # the term's level 5 exceeds N - 2 = 4, so the Nakayama argument
        # does not cover its joins: the term guard refuses every H
        L = Lattice.standard(2, 6, 2)
        deep = Lattice(2, 6, 2, ((1, 0), (0, 32)))
        tr = SeriesTrace(L, None, (L, deep), ((0, 0), (0, 5)), 1)
        st = Stratification(((1, 0), (0, 1)), RateVector((F(1), F(1))), 0, (1, 1), "")
        for rows in [(), ((2, 0),), ((0, 1),)]:
            with pytest.raises(PrecisionExhausted):
                hdim_numeric(SubgroupSpec(2, 6, rows), tr, st)
        # the reference guards each join instead: it refuses the first two
        # and accepts (0, 1), whose join with the term is all of Z_p^2
        for rows in [(), ((2, 0),)]:
            with pytest.raises(PrecisionExhausted):
                oracles.join_quotients(SubgroupSpec(2, 6, rows), tr, st)
        assert oracles.join_quotients(SubgroupSpec(2, 6, ((0, 1),)), tr, st) == ([F(1)], True)


def _count_inserts(monkeypatch) -> list:
    """Route hausdorff's hermite_insert through a counter; returns the call list."""
    insert = hausdorff.hermite_insert
    calls = []

    def counted(*args):
        calls.append(args)
        return insert(*args)

    monkeypatch.setattr(hausdorff, "hermite_insert", counted)
    return calls


def _unimodular(rng, d, pN, upper_only=False):
    """A random lower times upper unitriangular matrix mod p^N, or the upper factor alone."""
    lower = [[rng.randrange(pN) if j < i and not upper_only else int(j == i) for j in range(d)]
             for i in range(d)]
    upper = [[rng.randrange(pN) if j > i else int(j == i) for j in range(d)] for i in range(d)]
    return mat_mul(lower, upper, pN)


class TestNumericCycle:
    """A saturated H on a cycled series: numerators from the cycle, not insertions.

    A scalar cycle is the one-class case of the graded period.
    """

    @settings(max_examples=80, deadline=None)
    @given(block_sizes, hst.integers(0, 9), hst.sampled_from([2, 3, 5]),
           hst.sampled_from(["saturated", "scaled"]), hst.randoms(use_true_random=False))
    # cycles starting late: (1, 2, 1), (2, 1, 1), (1, 1, 1)
    @example((2, 3), 0, 3, "saturated", random.Random(0))
    @example((2, 1, 1), 4, 2, "saturated", random.Random(1))
    @example((2,), 0, 5, "saturated", random.Random(2))
    @example((2, 3), 0, 3, "scaled", random.Random(3))
    def test_matches_the_join_reference(self, sizes, seed, p, kind, rng):
        # saturated: a coordinate subset rotated by a unimodular matrix;
        # scaled: the same rows times p^k, which is not saturated
        tr, st = _random_instance(sizes, seed, p)
        d, N = sum(sizes), tr.precision
        pN = p**N
        rows = unit_rows(d, sorted(rng.sample(range(d), rng.randint(0, d))))
        if kind == "scaled":
            k = rng.randint(1, 3)
            rows = [[p**k * x for x in row] for row in rows]
        rows = mat_mul(rows, _unimodular(rng, d, pN), pN)
        H = SubgroupSpec.from_ambient(p, N, rows, st)
        assert hdim_numeric(H, tr, st) == oracles.join_quotients(H, tr, st)

    def test_examples_start_late(self):
        # the explicit examples above keep a cycle with j > 0
        late = {(sizes, seed, p): _random_instance(sizes, seed, p)[0].cycle
                for sizes, seed, p in [((2, 3), 0, 3), ((2, 1, 1), 4, 2), ((2,), 0, 5)]}
        assert [(c.j, c.m, c.n) for c in late.values()] == [(1, 2, 1), (2, 1, 1), (1, 1, 1)]

    def test_insertion_counts(self, monkeypatch):
        calls = _count_inserts(monkeypatch)
        no_hit, st0 = _random_instance((2, 1), 8, 2)
        assert no_hit.graded is None  # its one block has no hit by i_max
        graded, st1 = _random_instance((2, 1), 1, 2)
        assert graded.graded == (0, 2, (2, 1, 1))
        late, st2 = _random_instance((2, 3), 0, 3)
        saturated = [[1, 1, 0, 0, 0], [0, 0, 1, 0, 0]]
        for tr, st, rows, inserts in [
            (no_hit, st0, unit_rows(3, (0, 2)), no_hit.i_max),
            (graded, st1, [[0, 1, 1], [0, 0, 1]], 1),  # inside the class of shift 1: term 1
            (graded, st1, [[1, 1, 0]], graded.i_max),  # across the classes of shifts 2 and 1
            (late, st2, saturated, 2),  # terms 1 and 2 of the cycle (1, 2, 1)
            (late, st2, [[3 * x for x in row] for row in saturated], late.i_max),
        ]:
            calls.clear()
            p = tr.ambient.p
            H = SubgroupSpec.from_ambient(p, tr.precision, rows, st)
            assert hdim_numeric(H, tr, st) == oracles.join_quotients(H, tr, st)
            assert len(calls) == inserts

    def test_no_copy_past_the_cycle_is_built(self):
        # a saturated H reads terms 1 .. j + m - 1 only, so hdim builds no
        # copy past j + m
        b = get_bundle("eisenstein2", p=2, N=42)
        st, _ = run_stratification(lower_p_series(b.lattice, b.action, 40), denom_bound=4)
        tr = lower_p_series(b.lattice, b.action, 40)
        j, m = tr.cycle.j, tr.cycle.m
        H = SubgroupSpec.from_ambient(2, 42, unit_rows(2, (0,)), st)
        quotients = hdim_numeric(H, tr, st)
        assert [i for i, t in enumerate(tr.terms._terms) if i > j + m and t is not None] == []
        assert quotients == oracles.join_quotients(H, tr, st)

    def test_a_cycle_on_a_hand_built_trace_skips_no_guard(self):
        # terms 2 and 3 repeat term 1 times 2 and 4, but only lower_p_series
        # sets a cycle, and term 3's level 3 exceeds N - 2 = 2: it is
        # inserted and guarded, as on any trace without a cycle
        L = Lattice.standard(2, 4, 2)
        terms = [L] + [Lattice(2, 4, 2, ((2**k, 0), (0, 2 ** (k + 1)))) for k in range(3)]
        tr = SeriesTrace(L, None, tuple(terms), ((0, 0), (0, 1), (1, 2), (2, 3)), 3)
        st = Stratification(((1, 0), (0, 1)), RateVector((F(1), F(1))), 0, (1, 3), "")
        assert tr.cycle is None
        assert oracles.detect_cycle_by_coordinates(tr) == CycleCertificate(1, 1, 1)
        H = SubgroupSpec(2, 4, ((1, 0),))
        with pytest.raises(PrecisionExhausted):
            oracles.join_quotients(H, tr, st)
        with pytest.raises(PrecisionExhausted):
            hdim_numeric(H, tr, st)


# random block actions whose graded period is not scalar: (sizes, seed, p)
GRADED = [((1, 2), 2, 3), ((1, 3), 0, 2), ((1, 3), 9, 5), ((2, 1), 1, 2), ((2, 2), 9, 3),
          ((2, 3), 1, 2), ((2, 1, 3), 2, 5), ((3, 1, 2), 1, 3), ((3, 2), 8, 2),
          ((3, 2), 5, 3), ((2, 4), 9, 2), ((4, 2), 5, 5)]


def _no_copy_past_the_period(name, imax, rows):
    """Frame rows on a catalog entry at p 2: hdim's quotients, and the copies built past j + m."""
    b = get_bundle(name, p=2, N=imax + 2)
    st, _ = run_stratification(lower_p_series(b.lattice, b.action, imax), denom_bound=4)
    tr = lower_p_series(b.lattice, b.action, imax)
    j, m, _ = tr.graded
    H = SubgroupSpec(2, imax + 2, rows)
    quotients = hdim_numeric(H, tr, st)
    built = [i for i, t in enumerate(tr.terms._terms) if i > j + m and t is not None]
    return tr, st, H, quotients, built


class TestNumericGraded:
    """A saturated H whose span splits along the shift classes: numerators off the period."""

    def test_instances_have_a_graded_period_that_is_not_scalar(self):
        for key in GRADED:
            tr = _random_instance(*key)[0]
            assert tr.cycle is None and len(set(tr.graded[2])) > 1

    @settings(max_examples=60, deadline=None)
    @given(hst.sampled_from(GRADED), hst.randoms(use_true_random=False))
    @example(((2, 1, 3), 2, 5), random.Random(0))  # two blocks share the shift 2
    @example(((2, 2), 9, 3), random.Random(1))  # j = 1
    def test_matches_the_join_reference(self, key, rng):
        # a subset of each class's coordinates, rotated within the class and
        # the rows then mixed: the span is D-stable.  An upper unitriangular
        # rotation keeps unit pivots, so at most terms 1 .. j + m - 1 are
        # inserted; a unimodular one can leave a pivot on a non-unit entry,
        # and then H is taken as not saturated and inserted into every term
        tr, st = _random_instance(*key)
        j, m, shifts = tr.graded
        p, N = key[2], tr.precision
        pN = p**N
        for upper in (True, False):
            rows = []
            for t in set(shifts):
                cls = [k for k, s in enumerate(shifts) if s == t]
                rot = _unimodular(rng, len(cls), pN, upper)
                for a in rng.sample(range(len(cls)), rng.randint(0, len(cls))):
                    row = [0] * len(shifts)
                    for k, x in zip(cls, rot[a]):
                        row[k] = x
                    rows.append(row)
            if rows:
                rows = mat_mul(_unimodular(rng, len(rows), pN), rows, pN)
            H = SubgroupSpec.from_ambient(p, N, rows, st)
            with pytest.MonkeyPatch.context() as mp:
                calls = _count_inserts(mp)
                assert hdim_numeric(H, tr, st) == oracles.join_quotients(H, tr, st)
            assert len(calls) <= j + m - 1 or not upper

    @pytest.mark.parametrize("name,imax,graded", [
        ("Gm2", 64, (0, 6, (3, 3, 2, 2, 2))),
        ("remark27", 40, (1, 4, (1,) * 8 + (2,) * 8)),
    ])
    def test_no_copy_past_the_period_is_built(self, name, imax, graded):
        # frame rows 0 and 1 (the lowest rates) lie in one shift class, so
        # hdim reads terms 1 .. j + m - 1 only and builds no copy past j + m
        d = len(graded[2])
        tr, st, H, quotients, built = _no_copy_past_the_period(name, imax, unit_rows(d, (0, 1)))
        assert tr.graded == graded
        assert built == []
        assert quotients == oracles.join_quotients(H, tr, st)

    def test_rows_across_the_classes_are_inserted(self, monkeypatch):
        # on Gm2, frame coordinates 0 and 4 have rates 1/3 and 1/2, so the
        # row (1, 0, 0, 0, 1) crosses the classes of shifts 2 and 3: every
        # term is inserted
        calls = _count_inserts(monkeypatch)
        tr, st, H, quotients, _ = _no_copy_past_the_period(
            "Gm2", 64, ((1, 0, 0, 0, 1), (0, 1, 0, 0, 0)))
        assert len(calls) == tr.i_max
        assert quotients == oracles.join_quotients(H, tr, st)


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

    @pytest.mark.parametrize("seed", range(40))
    def test_against_every_subset(self, seed):
        # seeded multisets of up to 12 weights: d <= 9 rates in [1/d, 1]
        # drawn from a short pool, so that they repeat, and up to 3 extra
        # weights off the rates' denominators, a zero one in every fourth
        rng = random.Random(seed)
        d = rng.randint(1, 9)
        pool = [F(n, m) for m in range(1, 7) for n in range(1, m + 1) if F(n, m) >= F(1, d)]
        pool = rng.sample(pool, rng.randint(1, 4))
        rates = sorted(rng.choice(pool) for _ in range(d))
        extras = [F(rng.randint(0, 5), rng.randint(1, 9)) for _ in range(rng.randint(0, 2))]
        if seed % 4 == 0:
            extras.append(F(0))
        rv = RateVector(tuple(rates))
        expected = oracles.subset_spectrum(list(rv.rates) + extras)
        assert spectrum(rv, extras) == expected

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
