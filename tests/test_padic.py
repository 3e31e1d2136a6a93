"""Normal forms and matrix kernels against hand computations and oracles."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pstrata import padic
from pstrata.errors import PrecisionExhausted
from pstrata.lattice import Lattice
from pstrata.padic import (
    hermite_insert,
    hermite_rows,
    int_valuation,
    mat_mul,
    mul_entries,
    row_entries,
    smith_rows,
    unimodular_inverse,
)


def test_int_valuation():
    assert int_valuation(12, 2, 10) == 2
    assert int_valuation(12, 3, 10) == 1
    assert int_valuation(1, 2, 10) == 0
    # anything indistinguishable from zero at the working precision caps out
    assert int_valuation(0, 2, 10) == 10
    assert int_valuation(1024, 2, 5) == 5


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.booleans(), st.data())
def test_int_valuation_matches_the_division_loop(p, rising, data):
    # the odd-p power table starts empty and grows as caps are asked for,
    # in rising or falling order; x covers 0, units, negatives and exact
    # multiples of p^cap and beyond
    padic._POWERS.pop(p, None)
    drawn = data.draw(st.lists(st.integers(0, 300), min_size=1, max_size=6))
    caps = sorted({c + e for c in drawn for e in (0, 1)}, reverse=not rising)
    for cap in caps:
        k = data.draw(st.integers(0, cap + 3))
        u = data.draw(st.integers(-(10**40), 10**40))
        for x in (0, u, p**k * u, p**cap, -(p**cap) * (u * p + 1), p ** (cap + k)):
            assert int_valuation(x, p, cap) == oracles.valuation(x, p, cap)


def test_hermite_frozen_example():
    # worked out by hand: row2 - row1 = (0, 4), then pivots normalised
    R, piv, _ = hermite_rows([[2, 2], [2, 6]], 2, 4)
    assert R == [[2, 2], [0, 4]]
    assert piv == [0, 1]


def test_smith_frozen_example():
    # quotient is Z/2 x Z/4: size 8, exponent 4
    exps, origin, _ = smith_rows([[2, 2], [2, 6]], 2, 4)
    assert exps == [1, 2]
    assert oracles.brute_smith_2x2([[2, 2], [2, 6]], 2, 4) == (1, 2)


def test_hermite_pivot_normalisation():
    # pivot entries are exact p-powers and entries above are reduced
    R, piv, _ = hermite_rows([[6, 1], [2, 3]], 2, 5)
    for k, j in enumerate(piv):
        v = int_valuation(R[k][j], 2, 5)
        assert R[k][j] == 2**v
        for i in range(k):
            assert 0 <= R[i][j] < R[k][j]


grids_2x2 = st.lists(
    st.lists(st.integers(min_value=0, max_value=15), min_size=2, max_size=2),
    min_size=2,
    max_size=2,
)


@settings(max_examples=60)
@given(grids_2x2)
def test_hermite_idempotent(rows):
    R1, piv1, _ = hermite_rows(rows, 2, 4)
    R2, piv2, _ = hermite_rows(R1, 2, 4)
    assert R1 == R2
    assert piv1 == piv2


@settings(max_examples=60)
@given(grids_2x2, st.integers(min_value=-3, max_value=3))
def test_hermite_unimodular_invariance(rows, t):
    # adding a multiple of one row to the other does not change the span,
    # so the canonical form must be identical.  Uniqueness of the reduced
    # form is only certified while the determinant valuation stays below
    # N - 1; deeper spans wrap around p^N and admit several reduced bases.
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if det % 8 == 0:
        return
    sheared = [
        [rows[0][0] + t * rows[1][0], rows[0][1] + t * rows[1][1]],
        list(rows[1]),
    ]
    a, pa, _ = hermite_rows(rows, 2, 4)
    b, pb, _ = hermite_rows(sheared, 2, 4)
    assert a == b and pa == pb
    c, pc, _ = hermite_rows([rows[1], rows[0]], 2, 4)
    assert a == c and pa == pc


@settings(max_examples=60)
@given(grids_2x2)
def test_hermite_transform_identity(rows):
    R, piv, T = hermite_rows(rows, 2, 4, want_transform=True)
    for i in range(2):
        for j in range(2):
            got = sum(T[i][k] * rows[k][j] for k in range(2)) % 16
            assert got == R[i][j] % 16


@settings(max_examples=60)
@given(grids_2x2)
def test_hermite_span_matches_bruteforce(rows):
    S = oracles.span_set(rows, 2, 4)
    R, piv, _ = hermite_rows(rows, 2, 4)
    kept = [R[k] for k in range(len(piv))]
    got = oracles.span_set(kept, 2, 4) if kept else {(0, 0)}
    assert got == S


@settings(max_examples=60)
@given(grids_2x2)
def test_smith_matches_bruteforce(rows):
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if det % 8 == 0:
        return  # determinant valuation 3+ is out of the certified range
    exps, _, _ = smith_rows(rows, 2, 4)
    assert tuple(exps) == oracles.brute_smith_2x2(rows, 2, 4)
    assert exps[0] <= exps[1]
    assert sum(exps) == int_valuation(det, 2, 4)


@settings(max_examples=60)
@given(grids_2x2)
def test_smith_left_right_transforms(rows):
    exps, origin, W = smith_rows(rows, 2, 4, want_right_inv=True)
    # the rows p^e_k W_k span what the input rows span, and W is a Z_p-basis
    scaled = [[(2 ** e * x) % 16 for x in W[k]] for k, e in enumerate(exps)]
    got = oracles.span_set(scaled, 2, 4) if scaled else {(0, 0)}
    assert got == oracles.span_set(rows, 2, 4)
    assert (W[0][0] * W[1][1] - W[0][1] * W[1][0]) % 2 == 1


def test_det_valuation_is_zero():
    assert oracles.det_valuation_is_zero([[1, 0], [0, 1]], 2)
    assert oracles.det_valuation_is_zero([[3, 2], [2, 3]], 2)
    assert not oracles.det_valuation_is_zero([[2, 0], [0, 1]], 2)
    assert not oracles.det_valuation_is_zero([[1, 1], [1, 1]], 5)


grids_3x3 = st.lists(
    st.lists(st.integers(min_value=-20, max_value=20), min_size=3, max_size=3),
    min_size=3,
    max_size=3,
)


@settings(max_examples=100)
@given(grids_3x3, st.sampled_from([2, 3, 5]))
def test_det_valuation_is_zero_matches_determinant(rows, p):
    (a, b, c), (d, e, f), (g, h, i) = rows
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    assert oracles.det_valuation_is_zero(rows, p) == (det % p != 0)


@st.composite
def unimodular(draw):
    """(A, p): P @ Lo @ Up mod p^6, Lo unitriangular and Up with a unit diagonal."""
    p = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(min_value=1, max_value=4))
    entry = st.integers(min_value=-30, max_value=30)
    unit = entry.filter(lambda x: x % p != 0)
    lo = [[1 if i == j else (draw(entry) if j < i else 0) for j in range(d)] for i in range(d)]
    up = [[draw(unit) if i == j else (draw(entry) if j > i else 0) for j in range(d)]
          for i in range(d)]
    perm = draw(st.permutations(range(d)))
    P = [[1 if j == perm[i] else 0 for j in range(d)] for i in range(d)]
    pN = p**6
    return mat_mul(P, mat_mul(lo, up, pN), pN), p


@settings(max_examples=100)
@given(unimodular())
def test_unimodular_inverse_is_the_inverse(case):
    A, p = case
    N = 6
    d = len(A)
    inv = unimodular_inverse(A, p, N)
    identity = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    assert mat_mul(inv, A, p**N) == identity
    assert mat_mul(A, inv, p**N) == identity


def test_unimodular_inverse_rejects_non_units():
    with pytest.raises(ValueError):
        unimodular_inverse([[2, 0], [0, 1]], 2, 6)
    with pytest.raises(ValueError):
        unimodular_inverse([[1, 1], [1, 1]], 3, 6)
    with pytest.raises(ValueError):
        unimodular_inverse([[1, 0, 0], [0, 1, 0]], 2, 6)


def test_mat_mul_rejects_mismatched_shapes():
    assert mat_mul([[1, 2]], [[3], [4]], 5) == [[1]]
    with pytest.raises(ValueError):
        mat_mul([[1, 2, 3]], [[3], [4]], 5)
    with pytest.raises(ValueError):
        mat_mul([[1]], [[3], [4]], 5)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 5), st.integers(0, 5), st.integers(2, 10**6), st.data())
def test_mat_mul_matches_the_dense_loop(n_rows, inner, width, m, data):
    # non-square shapes, width 0, and rows and columns of zeros in both factors
    entry = st.one_of(st.just(0), st.integers(-(10**9), 10**9))
    a = data.draw(st.lists(st.lists(entry, min_size=inner, max_size=inner),
                           min_size=n_rows, max_size=n_rows))
    b = data.draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                           min_size=inner, max_size=inner))
    if a and data.draw(st.booleans()):
        a[data.draw(st.integers(0, n_rows - 1))] = [0] * inner
    if width and data.draw(st.booleans()):
        j = data.draw(st.integers(0, width - 1))
        for row in b:
            row[j] = 0
    want = oracles.mat_mul_dense(a, b, m)
    assert mat_mul(a, b, m) == want
    assert mul_entries(a, row_entries(b), m) == want
    for length in {inner + 1, max(inner - 1, 0)} - {inner}:
        with pytest.raises(ValueError):
            mat_mul(a + [[1] * length], b, m)


def test_hermite_insert_frozen_example():
    # (1, 0) has the smaller valuation in column 0 and takes the place of
    # (2, 2); the displaced row, carried on as (0, 2), displaces (0, 4) in
    # turn, which then reduces to zero
    tri, exps = hermite_insert(((2, 2), (0, 4)), [[1, 0]], 2, 4)
    assert tri == [[1, 0], [0, 2]]
    assert exps == [0, 1]
    # a row of larger valuation is eliminated and leaves the basis alone
    tri, exps = hermite_insert(((2, 2), (0, 4)), [[4, 0], [0, 0]], 2, 4)
    assert [list(r) for r in tri] == [[2, 2], [0, 4]]
    assert exps == [1, 2]
    # 8 is divisible by the pivot 2 but has the higher valuation 3: it is
    # eliminated in column 0, not swapped in; the remainder (0, 9) then
    # takes column 1's pivot as (0, 1), and (0, 4) reduces to zero
    tri, exps = hermite_insert(((2, 2), (0, 4)), [[8, 1]], 2, 4)
    assert [list(r) for r in tri] == [[2, 2], [0, 1]]
    assert exps == [1, 0]
    # the cached exponents of the basis give the same result
    assert hermite_insert(((2, 2), (0, 4)), [[8, 1]], 2, 4, (1, 2)) == (tri, exps)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 6), st.data())
def test_hermite_insert_matches_hermite_rows(p, d, data):
    # insertion into the basis of a guarded lattice spans what the stacked
    # rows span: the same pivot exponents and the same canonical lattice.
    # Scaling column j of the generators by p^c_j gives deep pivots, so new
    # rows of smaller valuation swap in and displace basis rows.
    N = 8
    pN = p**N
    entry = st.one_of(
        st.integers(0, p**2),
        st.integers(pN - p**2, pN - 1),
        st.builds(lambda k, u: p**k * u % pN, st.integers(0, 4), st.integers(0, pN - 1)),
    )
    vec = st.lists(entry, min_size=d, max_size=d)
    cols = data.draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))
    gens = [[p**c * x % pN for c, x in zip(cols, row)]
            for row in data.draw(st.lists(vec, min_size=d, max_size=d + 2))]
    try:
        lam = Lattice.from_rows(p, N, d, gens)
    except PrecisionExhausted:
        return
    extra = data.draw(st.lists(st.one_of(st.just([0] * d), vec), max_size=d + 1))
    stack = [list(r) for r in lam.basis] + extra
    tri, exps = hermite_insert(lam.basis, extra, p, N)
    R, piv, _ = hermite_rows(stack, p, N)
    assert piv == list(range(d))
    assert all(tri[k][j] == 0 for k in range(d) for j in range(k))
    assert all(tri[k][k] == p ** exps[k] for k in range(d))
    assert exps == [int_valuation(R[k][k], p, N) for k in range(d)]
    assert Lattice.unguarded(p, N, d, tri) == Lattice.unguarded(p, N, d, stack)
