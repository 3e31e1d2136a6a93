"""Lattice arithmetic: canonical bases, levels, solves, indexes, profiles."""

import json
import random
from argparse import Namespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pstrata import lattice
from pstrata.catalog import get_bundle
from pstrata.cli import _instance_block, _load_instance
from pstrata.errors import NotContained, PrecisionExhausted
from pstrata.gmodule import GroupAction, lower_p_series, restrict_action
from pstrata.padic import hermite_rows, mat_mul, smith_rows, unimodular_inverse
from pstrata.lattice import (
    Lattice,
    divisor_profile,
    log_index,
)


def test_standard_basis():
    L = Lattice.standard(2, 6, 3)
    assert L.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert L.lower_level == 0
    assert L.log_det == 0


def test_from_rows_canonicalises():
    # redundant presentation of the same lattice
    A = Lattice.from_rows(2, 6, 2, [[2, 2], [2, 6], [0, 4]])
    B = Lattice.from_rows(2, 6, 2, [[2, 6], [2, 2]])
    assert A.basis == B.basis == ((2, 2), (0, 4))


def test_from_rows_rank_deficient():
    with pytest.raises(PrecisionExhausted):
        Lattice.from_rows(2, 6, 2, [[2, 4], [1, 2]])


@pytest.mark.parametrize("p", [0, 1])
def test_from_rows_checks_p_first(p):
    # p 0 used to divide by zero in the Hermite reduction, p 1 to report
    # a misleading PrecisionExhausted
    with pytest.raises(ValueError, match="p must be prime"):
        Lattice.from_rows(p, 8, 2, [[1, 0], [0, 1]])


@pytest.mark.parametrize("basis", [((1.5, 0), (0, 1)), ((1, 0.5), (0, 1))])
def test_non_integer_basis_refused(basis):
    # a float pivot ended in a TypeError, a float above the pivot was accepted
    with pytest.raises(ValueError, match="non-integer"):
        Lattice(2, 8, 2, basis)


@pytest.mark.parametrize("p", [2, 3])
def test_from_rows_refuses_non_integer_rows(p):
    # the reduction carries 0.5 along; the basis is not re-validated
    with pytest.raises(ValueError, match="non-integer"):
        Lattice.from_rows(p, 8, 2, [[1, 0.5], [0, 1]])


@st.composite
def generating_sets(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    N = draw(st.integers(1, 8))
    d = draw(st.integers(1, 5))
    n = draw(st.integers(d, 2 * d))
    entry = st.integers(-(p**N) * 3, p**N * 3) | st.sampled_from([0, 1, p, p * p])
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=n, max_size=n))
    return p, N, d, rows


@settings(max_examples=300, deadline=None)
@given(generating_sets())
def test_full_rank_hermite_output_passes_validation(case):
    # Lattice.unguarded skips __post_init__ on a full-rank Hermite form;
    # this is the claim that lets it
    p, N, d, rows = case
    red, piv, _ = hermite_rows(rows, p, N)
    if piv != list(range(d)):
        return
    basis = tuple(tuple(red[i]) for i in range(d))
    assert Lattice(p, N, d, basis) == Lattice.unguarded(p, N, d, rows)


def test_lower_level_is_not_the_diagonal():
    # basis (p,1),(0,p): triangular diagonal says 1 everywhere, but the
    # quotient is cyclic of order p^2, so p^1 Z^2 is not contained yet
    M = Lattice.from_rows(3, 8, 2, [[3, 1], [0, 3]])
    assert M.diag_exponents == (1, 1)
    assert M.lower_level == 2
    assert M.solve([3, 0]) is None
    assert M.solve([9, 0]) is not None


def test_from_rows_depth_guard():
    with pytest.raises(PrecisionExhausted):
        Lattice.from_rows(2, 6, 2, [[2**5, 0], [0, 1]])
    # the same lattice is fine at higher precision
    L = Lattice.from_rows(2, 8, 2, [[2**5, 0], [0, 1]])
    assert L.lower_level == 5


def _smith_lower_level(L):
    """Reference: the largest Smith exponent of the basis mod p^N."""
    exps, _, _ = smith_rows([list(r) for r in L.basis], L.p, L.N)
    if len(exps) != L.d:
        raise PrecisionExhausted("lower level not certifiable at this precision")
    return max(exps)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.data())
def test_lower_level_matches_smith(p, d, data):
    # draw a lattice at precision 8, then re-read its canonical basis at
    # every precision N its diagonal allows: the level matches the Smith
    # reference from N = level + 1 on, and both raise at N = level and below
    entry = st.integers(0, p**4)
    rows = data.draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d + 2))
    try:
        M = Lattice.from_rows(p, 8, d, rows)
    except PrecisionExhausted:
        return
    top = max(M.diag_exponents)
    for N in range(top + 1, 9):
        L = Lattice(p, N, d, M.basis)
        if N > M.lower_level:
            assert L.lower_level == _smith_lower_level(L) == M.lower_level
        else:
            with pytest.raises(PrecisionExhausted):
                _smith_lower_level(L)
            with pytest.raises(PrecisionExhausted):
                L.lower_level


def test_solve_and_contains():
    M = Lattice.from_rows(2, 6, 2, [[2, 2], [0, 4]])
    assert M.solve([2, 6]) == [1, 1]
    assert M.solve([1, 1]) is None
    pM = Lattice.from_rows(2, 6, 2, [[2 * x for x in row] for row in M.basis])
    assert oracles.is_scaled_copy(M, 1, pM)
    assert M.contains(pM)
    assert not pM.contains(M)


def test_log_index_and_profile():
    L = Lattice.standard(2, 8, 2)
    M = Lattice.from_rows(2, 8, 2, [[2, 2], [0, 4]])
    assert log_index(L, M) == 3
    assert divisor_profile(M) == (1, 2)
    with pytest.raises(NotContained):
        log_index(M, L)


def _smith_profile(M):
    """Reference: the Smith exponents of M's basis."""
    return tuple(smith_rows(M.basis, M.p, M.N)[0])


@st.composite
def triangular_lattices(draw):
    """(M, split): M spanned by upper-triangular rows with a p-power diagonal.

    With split, the rows are D U, row k a multiple of its pivot p^(e_k).
    """
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 4))
    entry = st.integers(-(p**4), p**4)
    split = draw(st.booleans())
    rows = []
    for k, e in enumerate(draw(st.lists(st.integers(0, 4), min_size=d, max_size=d))):
        f = p**e if split else 1
        rows.append([0] * k + [p**e] + [f * draw(entry) for _ in range(k + 1, d)])
    return Lattice.from_rows(p, 32, d, rows), split


@settings(max_examples=300, deadline=None)
@given(triangular_lattices())
def test_divisor_profile_matches_smith_rows(case):
    # the profile read off a D U split must be what the Smith form gives;
    # over Z_p^d a D U basis stays D U when canonicalized (reducing row k
    # by row j subtracts a multiple of p^max(e_j, e_k)), so it is read off
    # the diagonal, even where entries above the pivots are not 0
    M, split = case
    with mock.patch.object(lattice, "smith_rows", wraps=smith_rows) as smith:
        assert divisor_profile(M) == _smith_profile(M)
    if split:
        assert smith.call_count == 0


def _conjugated(name, p, N, seed):
    """(bundle, action): the bundle's generators conjugated to U^-1 g U.

    U has entries in [-3, 3] and a unit determinant mod p, so Z_p^d U is
    Z_p^d and the conjugated series has the bundle's profiles; many of its
    terms are not D U splits.
    """
    b = get_bundle(name, p=p, N=N)
    d, pN = b.action.d, p**N
    rng = random.Random(seed)
    while True:
        U = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        try:
            U_inv = unimodular_inverse(U, p, N)
            break
        except ValueError:
            continue
    gens = [mat_mul(mat_mul(U_inv, g, pN), U, pN) for g in b.action.generators]
    return b, GroupAction.build(p, N, gens)


@settings(max_examples=16, deadline=None)
@given(st.sampled_from([("Gm2", 24), ("remark27", 20)]), st.sampled_from([2, 3]),
       st.integers(0, 10**6), st.integers(0, 2))
def test_divisor_profile_on_conjugated_series(case, p, seed, start):
    # conjugated terms from Z_p^d, and series restarted at term 1 or 2 in
    # that term's coordinates, against the Smith reference
    name, i_max = case
    N = i_max + 2
    _, act = _conjugated(name, p, N, seed)
    full = lower_p_series(Lattice.standard(p, N, act.d), act, i_max)
    L = full.terms[start]
    inner = restrict_action(L, act)
    assert inner.N == N - L.lower_level
    tr = lower_p_series(Lattice.standard(p, inner.N, act.d), inner, i_max - start)
    # the restart is the tail of the full series, read in L's coordinates
    assert len(tr.terms) == i_max - start + 1
    for term, prof, outer in zip(tr.terms, tr.profiles, full.terms[start:]):
        assert prof == _smith_profile(term)
        assert prof == tuple(smith_rows([L.solve(row) for row in outer.basis], p, N)[0])


@pytest.mark.parametrize("name,p,seed", [("Gm2", 2, 1), ("remark27", 2, 0), ("remark27", 3, 3)])
def test_conjugated_series_take_both_sides_of_the_split(name, p, seed):
    # some terms split as D U and some go to the Smith form, and both give
    # the profiles of the series before conjugation
    b, act = _conjugated(name, p, 26, seed)
    with mock.patch.object(lattice, "smith_rows", wraps=smith_rows) as smith:
        tr = lower_p_series(b.lattice, act, 24)
    assert 0 < smith.call_count < len(tr.terms)
    assert tr.profiles == lower_p_series(b.lattice, b.action, 24).profiles


def test_serialization_round_trip(tmp_path):
    # the instance block, the one JSON form, carries a lattice exactly
    M = Lattice.from_rows(3, 6, 2, [[3, 2], [0, 9]])
    act = GroupAction.build(3, 6, [[[1, 0], [0, 1]]])
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(_instance_block(M, act, ())))
    args = Namespace(input=str(path), catalog=None, p=2, precision=None, imax=0)
    assert _load_instance(args)[0] == M


def test_incompatible_ambients_rejected():
    A = Lattice.standard(2, 6, 2)
    B = Lattice.standard(3, 6, 2)
    with pytest.raises(ValueError):
        log_index(A, B)
