"""Lattice arithmetic: canonical bases, sums, intersections, levels, indexes."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pstrata.errors import NotContained, PrecisionExhausted
from pstrata.padic import hermite_rows, smith_rows
from pstrata.lattice import (
    Lattice,
    coords_in,
    divisor_profile,
    lattice_from_json,
    lattice_intersect,
    lattice_sum,
    lattice_to_json,
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
    exps, _, _, _ = smith_rows([list(r) for r in L.basis], L.p, L.N)
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
    assert M.contains(M.scale(1))
    assert not M.scale(1).contains(M)


def test_scale():
    L = Lattice.standard(2, 8, 2)
    M = L.scale(3)
    assert M.basis == ((8, 0), (0, 8))
    with pytest.raises(PrecisionExhausted):
        L.scale(7)


def test_intersect_frozen_example():
    A = Lattice.from_rows(2, 6, 2, [[2, 0], [0, 1]])
    B = Lattice.from_rows(2, 6, 2, [[1, 0], [0, 2]])
    got = lattice_intersect(A, B)
    assert got.basis == ((2, 0), (0, 2))


def test_sum_and_intersect_against_bruteforce():
    N = 4
    A = Lattice.from_rows(2, N, 2, [[2, 1], [0, 2]])
    B = Lattice.from_rows(2, N, 2, [[4, 1], [0, 1]])
    S = lattice_sum(A, B)
    I = lattice_intersect(A, B)
    sa = oracles.span_set([list(r) for r in A.basis], 2, N)
    sb = oracles.span_set([list(r) for r in B.basis], 2, N)
    assert oracles.span_set([list(r) for r in S.basis], 2, N) == oracles.brute_sum(
        [list(r) for r in A.basis], [list(r) for r in B.basis], 2, N
    )
    assert oracles.span_set([list(r) for r in I.basis], 2, N) == (sa & sb)


small_exps = st.tuples(
    st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)
)


@settings(max_examples=40)
@given(small_exps, small_exps, st.integers(min_value=0, max_value=7))
def test_second_isomorphism_indexes(ea, eb, mix):
    # log |A+B : B| == log |A : A cap B| for arbitrary pairs
    p, N = 2, 8
    A = Lattice.from_rows(p, N, 2, [[p ** ea[0], mix], [0, p ** ea[1]]])
    B = Lattice.from_rows(p, N, 2, [[p ** eb[0], 0], [0, p ** eb[1]]])
    S = lattice_sum(A, B)
    I = lattice_intersect(A, B)
    assert log_index(S, B) == log_index(A, I)
    assert S.contains(A) and S.contains(B)
    assert A.contains(I) and B.contains(I)


def test_log_index_and_profile():
    L = Lattice.standard(2, 8, 2)
    M = Lattice.from_rows(2, 8, 2, [[2, 2], [0, 4]])
    assert log_index(L, M) == 3
    assert divisor_profile(M, L) == (1, 2)
    with pytest.raises(NotContained):
        log_index(M, L)


def test_coords_in_round_trip():
    L = Lattice.from_rows(2, 8, 2, [[2, 1], [0, 1]])
    M = Lattice.from_rows(2, 8, 2, [[4, 2], [0, 2]])
    C = coords_in(M, L)
    pN = 2**8
    for crow, mrow in zip(C, M.basis):
        rebuilt = [
            sum(crow[k] * L.basis[k][j] for k in range(2)) % pN for j in range(2)
        ]
        assert rebuilt == [x % pN for x in mrow]


@settings(max_examples=100, deadline=None)
@given(generating_sets())
def test_coords_in_the_standard_lattice_are_the_basis(case):
    # coords_in returns M's basis when L is Z_p^d instead of solving it
    p, N, d, rows = case
    red, piv, _ = hermite_rows(rows, p, N)
    if piv != list(range(d)):
        return
    M = Lattice.unguarded(p, N, d, rows)
    L = Lattice.standard(p, N, d)
    assert coords_in(M, L) == [L.solve(row) for row in M.basis]


def test_serialization_round_trip():
    M = Lattice.from_rows(3, 6, 2, [[3, 2], [0, 9]])
    again = lattice_from_json(lattice_to_json(M))
    assert again == M


def test_lattice_from_json_refuses_a_non_object():
    # a top-level array ended in TypeError
    with pytest.raises(ValueError):
        lattice_from_json("[1]")


def test_incompatible_ambients_rejected():
    A = Lattice.standard(2, 6, 2)
    B = Lattice.standard(3, 6, 2)
    with pytest.raises(ValueError):
        lattice_sum(A, B)
