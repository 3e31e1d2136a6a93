"""Group actions and the descending series they generate."""

import json
from argparse import Namespace

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pstrata import lattice
from pstrata.catalog import get_bundle, random_block_action
from pstrata.cli import _instance_block, _load_instance
from pstrata.errors import NotInvariant, PrecisionExhausted, PstrataError
from pstrata.gmodule import (
    GroupAction,
    _step,
    check_invariance,
    lower_p_series,
    restrict_action,
)
from pstrata.lattice import Lattice, divisor_profile
from pstrata.padic import smith_rows


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
