"""Group actions and the descending series they generate."""

import json
import random
from argparse import Namespace

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pstrata import gmodule, lattice
from pstrata.catalog import catalog_names, get_bundle, random_block_action, random_sizes
from pstrata.cli import _instance_block, _load_instance
from pstrata.errors import NotInvariant, PrecisionExhausted, PstrataError
from pstrata.gmodule import (
    CycleCertificate,
    GroupAction,
    SeriesTrace,
    _block_series,
    _step,
    check_invariance,
    lower_p_series,
    restrict_action,
)
from pstrata.lattice import Lattice, divisor_profile
from pstrata.padic import identity, smith_rows
from pstrata.strata import run_stratification


def test_build_validates_generators():
    with pytest.raises(ValueError):
        GroupAction.build(2, 8, [[[2, 0], [0, 1]]])  # not invertible
    with pytest.raises(ValueError):
        GroupAction.build(3, 8, [[[0, 1], [1, 0]]])  # eigenvalue -1, not pro-p
    with pytest.raises(ValueError):
        GroupAction.build(4, 8, [[[1, 0], [0, 1]]])  # p must be prime
    a = GroupAction.build(2, 8, [[[1, 1], [0, 1]]])
    assert a.d == 2


def test_plain_constructor_validates_and_derives_deltas():
    # the plain constructor used to skip validation and leave deltas empty,
    # so the series silently became p^i L, with log indices (0, 2, 4, ...)
    direct = GroupAction(2, 10, 2, (((1, 1), (2, 1)),))
    built = GroupAction.build(2, 10, [[[1, 1], [2, 1]]])
    assert direct == built and direct.deltas == built.deltas
    assert direct.deltas == (((0, 1), (2, 0)),)
    tr = lower_p_series(Lattice.standard(2, 10, 2), direct, 8)
    assert tr.log_indices == tuple(range(9))
    # generators are stored reduced mod p^N
    assert GroupAction(2, 4, 1, (((17,),),)).generators == (((1,),),)


@pytest.mark.parametrize("p,N,d,gens", [
    (2, 10, 2, (((0, 0), (0, 0)),)),  # all zero: not invertible
    (2, 10, 3, (((1, 1), (0, 1)),)),  # d disagrees with the grid
    (2, 10, 2, (((1, 1), (0,)),)),  # ragged
    (2, 10, 2, (((1, 1.5), (0, 1)),)),  # float entry
    (2, 10, 2, 5),  # not a list of matrices
    (2, 10, 2, ()),  # no generator
    (4, 10, 2, (((1, 0), (0, 1)),)),  # p not prime
    (2, 0, 2, (((1, 0), (0, 1)),)),  # no digits
])
def test_plain_constructor_rejects(p, N, d, gens):
    with pytest.raises(ValueError):
        GroupAction(p, N, d, gens)


def test_generators_of_a_non_pro_p_group_stall():
    # each generator is unipotent mod 2, but together they generate
    # SL_2(F_2), of order 6: the first step gives back L, and the growth
    # check is what refuses the action
    act = GroupAction.build(2, 12, [[[1, 1], [0, 1]], [[1, 0], [1, 1]]])
    with pytest.raises(PstrataError, match="grew too slowly at step 1"):
        lower_p_series(Lattice.standard(2, 12, 2), act, 10)


def test_trivial_action_series():
    L = Lattice.standard(2, 12, 3)
    act = GroupAction.build(2, 12, [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    tr = lower_p_series(L, act, 10)
    for i in range(11):
        assert tr.profiles[i] == (i, i, i)
        assert oracles.is_scaled_copy(L, i, tr.terms[i])


def test_unipotent_shear_profiles():
    # one Jordan block of size 2: lambda_i = span(p^(i-1) x1, p^(i-1)(p x2... ))
    # worked out by hand: profile (i-1, i) for i >= 1
    L = Lattice.standard(2, 14, 2)
    act = GroupAction.build(2, 14, [[[1, 1], [0, 1]]])
    tr = lower_p_series(L, act, 12)
    for i in range(1, 13):
        assert tr.profiles[i] == (i - 1, i)


def test_pi_multiplication_step():
    # multiplication by pi on Z_p[pi], pi^2 = p: one step multiplies by pi
    L = Lattice.standard(2, 12, 2)
    g = [[1, 1], [2, 1]]  # 1 + pi in the basis (1, pi)
    act = GroupAction.build(2, 12, [g])
    assert check_invariance(L, act)
    lam1 = _step(L, act)
    assert lam1.basis == ((2, 0), (0, 1))  # = pi * L up to basis order
    assert check_invariance(lam1, act)
    lam2 = _step(lam1, act)
    assert oracles.is_scaled_copy(L, 1, lam2)


def test_series_descends_and_is_invariant():
    L = Lattice.standard(2, 20, 2)
    act = GroupAction.build(2, 20, [[[1, 1], [2, 1]]])
    tr = lower_p_series(L, act, 16)
    for i in range(1, 17):
        assert tr.terms[i - 1].contains(tr.terms[i])
        assert check_invariance(tr.terms[i], act)
        assert sum(tr.profiles[i]) >= i  # index grows at least one digit a step
        # p * previous term sits inside the next term (elementary sections)
        nxt, cur = tr.terms[i], tr.terms[i - 1]
        assert all(nxt.solve([2 * x for x in row]) is not None for row in cur.basis)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(lambda s: sum(s) <= 8),
       st.integers(0, 10**6), st.sampled_from([2, 3, 5]), st.integers(2, 16),
       st.integers(0, 2))
def test_step_matches_the_full_stack(sizes, seed, p, i_max, start):
    # the inserted step gives the canonical basis that the full stack spans,
    # from the standard start and from a series restarted at term 1 or 2 in
    # that term's coordinates; the cached pivots, levels and profiles are
    # those of a fresh lattice
    b = random_block_action(tuple(sizes), seed, p=p, N=i_max + 2)
    full = lower_p_series(b.lattice, b.action, i_max)
    L = full.terms[start]
    act = restrict_action(L, b.action)
    assert act.N == b.action.N - L.lower_level
    tr = lower_p_series(Lattice.standard(p, act.N, act.d), act, i_max - start)
    # the restart is the tail of the full series: its indexes are counted from L
    assert tr.log_indices == tuple(x - full.log_indices[start] for x in full.log_indices[start:])
    for i, (term, prof) in enumerate(zip(tr.terms, tr.profiles)):
        fresh = Lattice(p, term.N, term.d, term.basis)
        if i:
            assert "diag_exponents" in vars(term) and "lower_level" in vars(term)
        assert term.diag_exponents == fresh.diag_exponents
        assert term.lower_level == fresh.lower_level
        assert prof == divisor_profile(fresh)
    for term in tr.terms[:-1]:
        assert _step(term, act) == oracles.step_by_full_stack(term, act)


def _direct_sum(first: GroupAction, second: GroupAction) -> GroupAction:
    """The action on Z_p^(d1 + d2) of each generator of either summand, the identity on the other."""
    d1, d2 = first.d, second.d
    one1, one2 = (tuple(map(tuple, identity(d))) for d in (d1, d2))
    gens = [tuple(row + (0,) * d2 for row in g) + tuple((0,) * d1 + row for row in one2)
            for g in first.generators]
    gens += [tuple(row + (0,) * d2 for row in one1) + tuple((0,) * d1 + row for row in g)
             for g in second.generators]
    return GroupAction(first.p, first.N, d1 + d2, tuple(gens))


@st.composite
def action_draws(draw, p, i_max):
    """The action of a catalog entry or of a random block action at p, precision i_max + 2."""
    if draw(st.booleans()):
        return get_bundle(draw(st.sampled_from(catalog_names())), p=p, N=i_max + 2).action
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)
                 .filter(lambda s: sum(s) <= 8))
    return random_block_action(tuple(sizes), draw(st.integers(0, 10**6)), p=p, N=i_max + 2).action


@st.composite
def series_instances(draw):
    """An action drawn at p 2, 3 or 5, or the direct sum of two draws, with its i_max."""
    p = draw(st.sampled_from([2, 3, 5]))
    i_max = draw(st.integers(1, 64))
    action = draw(action_draws(p, i_max))
    if draw(st.booleans()):
        action = _direct_sum(action, draw(action_draws(p, i_max)))
    return action, i_max


@settings(max_examples=80, deadline=None)
@given(series_instances())
def test_tail_copies_match_the_stepwise_series(instance):
    # past its cycle the series copies p^n term(i - m) instead of stepping;
    # every term, pivot, level, profile and index is that of the series
    # that runs every step, and the cycle read off the blocks is the first
    # repetition of those terms found by coordinates
    act, i_max = instance
    tr = lower_p_series(Lattice.standard(act.p, act.N, act.d), act, i_max)
    ref = oracles.lower_p_series_stepwise(Lattice.standard(act.p, act.N, act.d), act, i_max)
    assert [t.basis for t in tr.terms] == [t.basis for t in ref.terms]
    assert tr.profiles == ref.profiles
    assert [t.diag_exponents for t in tr.terms] == [t.diag_exponents for t in ref.terms]
    assert [t.lower_level for t in tr.terms] == [t.lower_level for t in ref.terms]
    assert tr.log_indices == ref.log_indices
    assert tr.cycle == ref.cycle
    for term in tr.terms[1:]:
        # cached, and equal to what a validated lattice on the same basis reads
        assert "diag_exponents" in vars(term) and "lower_level" in vars(term)
        fresh = Lattice(term.p, term.N, term.d, term.basis)
        assert (term.diag_exponents, term.lower_level) == (fresh.diag_exponents, fresh.lower_level)


def _count_steps(monkeypatch):
    calls = []
    monkeypatch.setattr(gmodule, "_step", lambda M, act: calls.append(1) or _step(M, act))
    return calls


def test_a_cycled_series_makes_j_plus_m_steps(monkeypatch):
    calls = _count_steps(monkeypatch)
    b = get_bundle("eisenstein1", p=2, N=42)
    tr = lower_p_series(b.lattice, b.action, 40)
    assert tr.cycle == CycleCertificate(0, 1, 1)
    assert len(calls) == 1
    assert all(oracles.is_scaled_copy(tr.terms[i - 1], 1, tr.terms[i]) for i in range(1, 41))


@pytest.mark.parametrize("name,p,steps", [
    # remark27's blocks 0-7 and 8-15 cycle at (1, 4, 1) and (1, 2, 1);
    # Gm3's blocks of sizes 2, 3 and 5 at (0, 2, 1), (0, 3, 1) and (0, 5, 1)
    ("remark27", 2, 5 + 3), ("remark27", 3, 5 + 3), ("Gm3", 2, 2 + 3 + 5), ("Gm3", 3, 2 + 3 + 5),
])
def test_a_split_series_steps_each_block_until_its_own_cycle(monkeypatch, name, p, steps):
    calls = _count_steps(monkeypatch)
    b = get_bundle(name, p=p, N=42)
    tr = lower_p_series(b.lattice, b.action, 40)
    assert tr.cycle is None  # the blocks' rates differ: the whole series has no cycle
    assert len(calls) == steps


def test_a_one_block_series_without_a_cycle_steps_every_term(monkeypatch):
    calls = _count_steps(monkeypatch)
    b = random_block_action((2, 2), 0, p=2, N=42)
    assert b.action._blocks == ((0, b.action),)  # one block: the action itself
    tr = lower_p_series(b.lattice, b.action, 40)
    assert tr.cycle is None
    assert len(calls) == 40


_SL2_F2 = ([[1, 1], [0, 1]], [[1, 0], [1, 1]])  # generate SL_2(F_2) mod 2: the series stalls


def test_the_index_check_reads_the_whole_profile():
    # a stalled block next to a trivial one: the block alone is refused
    # (test_generators_of_a_non_pro_p_group_stall), the sum grows a digit
    # per step and equals the series that runs every step
    stalled = GroupAction.build(2, 12, _SL2_F2)
    act = _direct_sum(stalled, GroupAction.build(2, 12, [[[1]]]))
    assert len(act._blocks) == 2
    tr = lower_p_series(Lattice.standard(2, 12, 3), act, 10)
    ref = oracles.lower_p_series_stepwise(Lattice.standard(2, 12, 3), act, 10)
    assert [t.basis for t in tr.terms] == [t.basis for t in ref.terms]
    assert tr.profiles == ref.profiles == tuple((0, 0, i) for i in range(11))
    # two stalled blocks stall together
    act = _direct_sum(stalled, stalled)
    assert len(act._blocks) == 2
    with pytest.raises(PstrataError, match="grew too slowly at step 1"):
        lower_p_series(Lattice.standard(2, 12, 4), act, 10)


@pytest.mark.parametrize("name", ["eisenstein1", "eisenstein3", "Gm1", "Gm2", "remark27"])
def test_the_preset_cycle_is_the_lazy_search(name):
    # the cycle the series sets from its blocks' hits is the one a search
    # over the finished terms finds
    b = get_bundle(name, p=3, N=42)
    tr = lower_p_series(b.lattice, b.action, 40)
    assert tr.cycle == oracles.detect_cycle_by_coordinates(tr)
    expected = b.expected_cycle
    assert tr.cycle == (None if expected is None else CycleCertificate(*expected))
    # the cycle and the graded period are read off the block records that
    # lower_p_series keeps: a trace built by hand has none, so neither
    hand = SeriesTrace(tr.ambient, tr.action, tr.terms, tr.profiles, tr.i_max)
    assert (hand.blocks, hand.cycle, hand.graded) == ((), None, None)


@pytest.mark.parametrize("p,blocks,whole", [
    (3, [(0, 1, 1), (0, 1, 1), (2, 1, 1)], (2, 1, 1)),
    (2, [(0, 1, 1), (0, 1, 1), (1, 1, 1)], (1, 1, 1)),
])
def test_blocks_that_cycle_from_different_j(p, blocks, whole):
    # the whole series cycles from the latest block's j
    b = random_block_action((1, 4, 1), 6, p=p, N=42)
    hits = [_block_series(act, 40)[2] for _, act in b.action._blocks]
    assert hits == [CycleCertificate(*h) for h in blocks]
    tr = lower_p_series(b.lattice, b.action, 40)
    assert tr.cycle == CycleCertificate(*whole) == oracles.detect_cycle_by_coordinates(tr)


@pytest.mark.parametrize("hits,i_max,joint", [
    ([(1, 2, 1), (0, 4, 2)], 40, (1, 4, 2)),  # equal rates 1/2: max j, lcm m, rate times lcm
    ([(0, 4, 2), (1, 6, 3)], 40, (1, 12, 6)),  # the lcm of 4 and 6 is not their max
    ([(0, 2, 1), (0, 3, 1)], 40, None),  # rates 1/2 and 1/3
    ([(1, 2, 1), (0, 4, 2)], 4, None),  # j + m = 5 > i_max
    ([(1, 2, 1), (0, 4, 2)], 5, (1, 4, 2)),
    ([(0, 1, 1), None], 40, None),  # a block without a hit
])
def test_the_joint_cycle_of_block_hits(hits, i_max, joint):
    # the scalar cycle is the graded period when all its shifts are equal;
    # each record is a block of one coordinate
    one = Lattice.standard(2, 8, 1)
    blocks = tuple((k, (one,), ((0,),), None if h is None else CycleCertificate(*h))
                   for k, h in enumerate(hits))
    assert SeriesTrace(None, None, (), (), i_max, blocks).cycle == (
        None if joint is None else CycleCertificate(*joint))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_graded_period_scales_each_column(p):
    # from j on, term i + m is term i with column r scaled by p^shifts[r],
    # entry by entry; a scalar cycle is the period with equal shifts
    graded = scalar = 0
    for seed in range(40):
        b = random_block_action(random_sizes(random.Random(seed)), seed, p=p, N=42)
        tr = lower_p_series(b.lattice, b.action, 40)
        if tr.graded is None:
            assert tr.cycle is None
            continue
        j, m, shifts = tr.graded
        assert tr.cycle == (CycleCertificate(j, m, shifts[0]) if len(set(shifts)) == 1 else None)
        assert len(shifts) == tr.ambient.d and j + m <= tr.i_max and max(shifts) <= m
        for i in range(j, tr.i_max - m + 1):
            scaled = [tuple(x * p**s for x, s in zip(row, shifts)) for row in tr.terms[i].basis]
            assert tr.terms[i + m].basis == tuple(scaled)
        graded += 1
        scalar += tr.cycle is not None
    assert graded > scalar > 0


@pytest.mark.parametrize("case,period", [
    # blocks 0-7 and 8-15 hit at (1, 4, 1) and (1, 2, 1)
    (("remark27", 2, 128), (1, 4, (1,) * 8 + (2,) * 8)),
    # blocks of sizes 2, 3 and 5 hit at (0, 2, 1), (0, 3, 1) and (0, 5, 1)
    (("Gm3", 2, 64), (0, 30, (15, 15, 10, 10, 10) + (6,) * 5)),
    # perfbench's battery slot 3: blocks of sizes 1 and 4
    (("battery slot 3", 2, 64), (0, 2, (2, 1, 1, 1, 1))),
])
def test_pinned_graded_periods(case, period):
    name, p, i_max = case
    if name == "battery slot 3":
        b = random_block_action((4, 1), seed=3, p=p, N=i_max + 2)
    else:
        b = get_bundle(name, p=p, N=i_max + 2)
    tr = lower_p_series(b.lattice, b.action, i_max)
    assert (tr.graded, tr.cycle) == (period, None)


def _built_past(tr) -> list:
    """The indices past the base period j + m whose term the trace has built."""
    j, m, _ = tr.graded
    return [i for i, term in enumerate(tr.terms._terms) if i > j + m and term is not None]


def _non_scalar_periods(p: int) -> list:
    """Random split actions at p whose graded period is not a scalar cycle."""
    found = []
    for seed in range(40):
        b = random_block_action(random_sizes(random.Random(seed)), seed, p=p, N=42)
        tr = lower_p_series(b.lattice, b.action, 40)
        if tr.graded is not None and tr.cycle is None:
            found.append(b)
    return found


@pytest.mark.parametrize("case", [
    ("remark27", 2, 40), ("Gm3", 2, 64), ("eisenstein2", 2, 40),
    ("random", 2, 40), ("random", 3, 40), ("random", 5, 40),
])
def test_the_deferred_tail_reads_in_any_order(case):
    # past j + m each term is a copy whose rows are built on first read; read
    # last to first, or shuffled, every term equals the series that runs
    # every step, and so do the pivots, levels and profiles set at once
    name, p, i_max = case
    bundles = _non_scalar_periods(p)[:3] if name == "random" else [
        get_bundle(name, p=p, N=i_max + 2)]
    assert bundles
    for seed, b in enumerate(bundles):
        L = b.lattice
        ref = oracles.lower_p_series_stepwise(L, b.action, i_max)
        first = lower_p_series(L, b.action, i_max)
        j, m, _ = first.graded
        assert j + m < i_max and _built_past(first) == []
        assert first.profiles == ref.profiles
        assert [t.diag_exponents for t in first.terms] == [t.diag_exponents for t in ref.terms]
        assert [t.lower_level for t in first.terms] == [t.lower_level for t in ref.terms]
        order = list(range(i_max + 1))
        random.Random(seed).shuffle(order)
        for tr, reads in [(first, reversed(range(i_max + 1))),
                          (lower_p_series(L, b.action, i_max), order)]:
            for i in reads:
                assert tr.terms[i].basis == ref.terms[i].basis
            assert _built_past(tr) == list(range(j + m + 1, i_max + 1))


def test_a_tail_term_is_an_ordinary_lattice():
    # a copy is a Lattice like any other, its basis in its own dict: == and
    # hash read the basis, and repr shows it
    b = get_bundle("remark27", p=2, N=42)
    tr, again = (lower_p_series(b.lattice, b.action, 40) for _ in range(2))
    fresh = [Lattice.from_rows(2, 42, 16, t.basis) for t in again.terms]
    assert _built_past(tr) == []
    assert all(type(t) is Lattice and "basis" in vars(t) for t in tr.terms[38:])
    assert tr.terms[40] == fresh[40]
    assert hash(tr.terms[39]) == hash(fresh[39])
    shown = repr(tr.terms[38])
    assert shown == f"Lattice(p=2, N=42, d=16, basis={fresh[38].basis!r})"
    for term, ref in zip(tr.terms[38:], fresh[38:]):
        assert (term.diag_exponents, term.lower_level) == (ref.diag_exponents, ref.lower_level)


def test_the_terms_index_and_slice_as_a_tuple():
    # negative indices and slices read the same terms as the series that
    # runs every step, build only the copies they hand out, and every term
    # handed out holds its basis in its own dict
    b = get_bundle("remark27", p=2, N=42)
    ref = [t.basis for t in oracles.lower_p_series_stepwise(b.lattice, b.action, 40).terms]
    tr = lower_p_series(b.lattice, b.action, 40)
    assert len(tr.terms) == 41 and tr.graded[:2] == (1, 4)
    for i in (-1, -3, -36, -41):
        assert tr.terms[i].basis == ref[i]
    assert _built_past(tr) == [38, 40]
    for cut in [slice(None, None, -3), slice(-5, -1), slice(2, 30, 7), slice(38, None),
                slice(50, 60), slice(None)]:
        got = tr.terms[cut]
        assert type(got) is tuple and [t.basis for t in got] == ref[cut]
    for i in (41, -42):
        with pytest.raises(IndexError):
            tr.terms[i]
    assert [t.basis for t in reversed(tr.terms)] == ref[::-1]
    assert all("basis" in vars(t) for t in tr.terms)
    # ==, hash and repr read the terms, so a trace is a value as its terms are
    again = lower_p_series(b.lattice, b.action, 40)
    assert again == tr and hash(again) == hash(tr) and again.terms == tuple(tr.terms)
    assert repr(again) == repr(tr) and repr(again.terms) == repr(tuple(tr.terms))
    assert "terms=(Lattice(" in repr(again) and " at 0x" not in repr(again)


def test_the_cycle_is_read_off_the_graded_period():
    # graded is read off the block records' hits and cycle is graded with
    # equal shifts, on any trace, built by hand or not, each computed once
    b = get_bundle("remark27", p=2, N=42)
    tr = lower_p_series(b.lattice, b.action, 40)
    first, second = tr.blocks
    assert (first[3], second[3]) == (CycleCertificate(1, 4, 1), CycleCertificate(1, 2, 1))
    for hit, shifts, cycle in [(second[3], (1,) * 8 + (2,) * 8, None),
                               (first[3], (1,) * 16, CycleCertificate(1, 4, 1))]:
        hand = SeriesTrace(tr.ambient, tr.action, tr.terms, tr.profiles, tr.i_max,
                           (first, second[:3] + (hit,)))
        assert (hand.graded, hand.cycle) == ((1, 4, shifts), cycle)
        assert hand.graded is hand.graded and hand.cycle is hand.cycle


@pytest.mark.parametrize("p", [2, 3])
def test_stratify_builds_no_term(p):
    # remark27 and Gm3 at imax 128 split into blocks, so the series holds
    # no term of its own, and stratify reads its rates, frame and c off the
    # blocks' hits and profiles: every term stays unbuilt
    for name in ("remark27", "Gm3"):
        b = get_bundle(name, p=p, N=130)
        tr = lower_p_series(b.lattice, b.action, 128)
        assert len(tr.blocks) > 1
        run_stratification(tr, 63)
        assert tr.terms._terms == [None] * 129


def test_split_terms_need_no_smith_form(monkeypatch):
    # every term of remark27's series splits as D U in its canonical basis,
    # so its profile is read off the diagonal
    calls = []
    monkeypatch.setattr(lattice, "smith_rows", lambda *a: calls.append(1) or smith_rows(*a))
    b = get_bundle("remark27", p=2, N=42)
    tr = lower_p_series(b.lattice, b.action, 40)
    assert tr.profiles[-1] == (9,) + (10,) * 7 + (19, 19) + (20,) * 6
    assert calls == []


def test_start_beyond_the_precision_guard_is_refused():
    # lower level 9 > N - 2 = 8: p*M would lose the pivot 2^9, so the step
    # must refuse instead of returning a term with pivot 2^N
    L = Lattice(2, 10, 2, ((1, 0), (0, 512)))
    act = GroupAction.build(2, 10, [[[1, 0], [0, 1]]])
    with pytest.raises(PrecisionExhausted, match="lower level 9"):
        _step(L, act)
    # level 8 = N - 2 passes the step's guard on its input
    M = Lattice(2, 10, 2, ((1, 0), (0, 256)))
    assert _step(M, act).basis == ((2, 0), (0, 512))
    # the series itself starts at Z_p^d only
    for start in (L, M):
        with pytest.raises(ValueError, match="restrict_action"):
            lower_p_series(start, act, 0)


def test_series_needs_precision_margin():
    L = Lattice.standard(2, 10, 2)
    act = GroupAction.build(2, 10, [[[1, 1], [0, 1]]])
    with pytest.raises(PrecisionExhausted):
        lower_p_series(L, act, 9)


def test_restrict_action_frozen_example():
    # span(x1, p x2) is invariant under x1 -> x1 + p x2; conjugating divides
    # the off-diagonal entry by p
    p, N = 2, 12
    act = GroupAction.build(p, N, [[[1, p], [0, 1]]])
    sub = Lattice.from_rows(p, N, 2, [[1, 0], [0, p]])
    res = restrict_action(sub, act)
    assert res.N == N - 1
    assert [list(r) for r in res.generators[0]] == [[1, 1], [0, 1]]


def test_restrict_action_requires_invariance():
    p, N = 2, 12
    act = GroupAction.build(p, N, [[[1, 1], [0, 1]]])
    bad = Lattice.from_rows(p, N, 2, [[1, 0], [0, p]])
    with pytest.raises(NotInvariant):
        restrict_action(bad, act)


def test_restricted_series_is_commensurable():
    # the series of an invariant finite-index sublattice interleaves the
    # ambient series: indexes per step agree up to a bounded constant
    p, N, imax = 2, 34, 24
    L = Lattice.standard(p, N, 2)
    act = GroupAction.build(p, N, [[[1, 1], [2, 1]]])
    tr = lower_p_series(L, act, imax)
    sub = tr.terms[2]
    res = restrict_action(sub, act)
    subL = Lattice.standard(p, res.N, 2)
    tr2 = lower_p_series(subL, res, imax)
    devs = {tr.log_indices[i] - tr2.log_indices[i] for i in range(1, imax + 1)}
    assert max(devs) - min(devs) <= 2


def test_action_json_round_trip(tmp_path):
    # the instance block, the one JSON form, carries the generators exactly
    act = GroupAction.build(3, 9, [[[1, 3], [0, 1]], [[1, 0], [3, 1]]])
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(_instance_block(Lattice.standard(3, 9, 2), act, ())))
    args = Namespace(input=str(path), catalog=None, p=2, precision=None, imax=0)
    again = _load_instance(args)[1]
    assert again.p == act.p and again.N == act.N
    assert again.generators == act.generators


def test_check_invariance_examples():
    act = GroupAction.build(2, 10, [[[1, 2], [0, 1]]])
    assert check_invariance(Lattice.from_rows(2, 10, 2, [[2, 0], [0, 1]]), act)
    assert not check_invariance(Lattice.from_rows(2, 10, 2, [[1, 0], [0, 4]]), act)
