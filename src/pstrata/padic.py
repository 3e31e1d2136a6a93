"""Exact arithmetic over Z/p^N and canonical triangular forms.

Scalars are residues mod p^N with p prime; a residue of 0 means "zero at
this precision" and its valuation is reported as N.  Matrices are plain
integer rows.  All reductions below use only three row operations, each
invertible over Z_p: swapping rows, scaling a row by a unit, and adding
an integer multiple of one row to another.  Consequently the row span mod
p^N is preserved exactly, which is what the lattice layer relies on.
`mat_mul` is the one row-times-matrix product.  Its loop walks only the
nonzero (column, value) entries of each row of the right factor, so a
sparse factor such as a generator's g - 1 costs its nonzeros, not its
size; a right factor fixed for a whole loop is prepared once with
`row_entries` and multiplied by `mul_entries`.  The mod-p rank test and
the inverse of a unimodular matrix are read off `hermite_rows`.

The triangularization (`hermite_rows`) picks, per column, the entry of
minimal valuation among the remaining rows (ties: lowest row index), makes
it an exact power of p by a unit scaling, clears below, and finally reduces
entries above each pivot modulo that pivot's p-power.  When every column
gets a pivot (a full-rank span), the resulting form is the unique
canonical basis of the row span plus p^N times the ambient.  Below full
rank it is not unique: mod 2^10 the rows (2, 1) and (-2, -1) span the same
line but reduce to (2, 1) and (2, 513), since a pivot p^a leaves the rest
of its row free modulo p^(N-a).
`hermite_insert` adds rows to a triangular basis that is already there,
eliminating only the new rows and skipping the reduction above the pivots.
Its pivots are exact powers of p, so "the new row has the smaller valuation
and takes the pivot" is the divisibility test x[k] % p^e_k != 0; a
valuation is computed only for a row that does take the pivot.  It serves
two callers: `hausdorff.hdim_numeric` joins a subgroup to each series
term, and the series step inserts a term's images into the canonical
basis of p times the term, then runs the reduction above the pivots that
ends `hermite_rows` (`_reduce_above`) to reach the canonical form.
The diagonalization (`smith_rows`) repeats the same idea with a global
pivot search and column operations, yielding ascending elementary-divisor
exponents.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

__all__ = [
    "identity",
    "mat_mul",
    "row_entries",
    "mul_entries",
    "hermite_rows",
    "hermite_insert",
    "smith_rows",
    "unimodular_inverse",
]


@lru_cache(maxsize=None)
def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


# odd p -> ([p^0, ..., p^cap], {p^k: k}) for the largest cap asked so far
_POWERS: dict = {}


def int_valuation(x: int, p: int, cap: int) -> int:
    """Valuation of the residue x, capped at cap (used for x == 0).

    For odd p a multiple of p has v = log_p gcd(x, p^cap), capped already:
    one gcd and a table lookup instead of a division per digit.
    """
    if x == 0:
        return cap
    if p == 2:
        v = (x & -x).bit_length() - 1
        return v if v < cap else cap
    if x % p:
        return 0
    table = _POWERS.get(p)
    if table is None or cap >= len(table[0]):
        # a larger cap replaces the table whole, so a reader never sees it half built
        pows = [p**k for k in range(cap + 1)]
        table = _POWERS[p] = pows, {q: k for k, q in enumerate(pows)}
    pows, logs = table
    return logs[math.gcd(x, pows[cap])]


def _freeze(rows) -> tuple:
    """Rows of integers as tuples; a float entry such as 1.5 is refused, not truncated."""
    try:
        return tuple(tuple(operator.index(e) for e in row) for row in rows)
    except TypeError:
        raise ValueError("a matrix must be a list of rows of integers") from None


def _integer(value, name: str) -> int:
    """An integer field of a JSON document; 2.5 or "2" is refused, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def identity(d: int) -> list[list[int]]:
    """The d x d identity matrix as fresh rows the caller may modify."""
    return [[int(i == j) for j in range(d)] for i in range(d)]


def row_entries(b) -> tuple:
    """b prepared as a right factor: its width and each row's nonzero (column, value) entries."""
    return len(b[0]) if b else 0, [[(j, x) for j, x in enumerate(row) if x] for row in b]


def mul_entries(a, prepared, m: int) -> list[list[int]]:
    """The rows of a @ b reduced mod m, for b prepared by `row_entries`."""
    width, entries = prepared
    n = len(entries)
    out = []
    for arow in a:
        if len(arow) != n:
            raise ValueError(f"row of length {len(arow)} cannot multiply {n} rows")
        acc = [0] * width
        for x, brow in zip(arow, entries):
            if x:
                for j, y in brow:
                    acc[j] += x * y
        out.append([v % m for v in acc])
    return out


def mat_mul(a, b, m: int) -> list[list[int]]:
    """The rows of a @ b reduced mod m: the images of the rows of a under b."""
    return mul_entries(a, row_entries(b), m)


def hermite_rows(rows, p: int, N: int, want_transform: bool = False):
    """Canonical upper-triangular reduction of integer rows mod p^N.

    Returns (reduced_rows, pivot_columns, transform).  transform is None
    unless requested; when present it satisfies transform @ input == output
    mod p^N and is invertible over Z_p.  Columns without any unit-certifiable
    entry (all residues 0 mod p^N) simply receive no pivot; callers that
    need full rank must check pivot_columns themselves.  Only a full-rank
    result is canonical, one per span: span{(2, 1)} mod 2^10 reduces to
    (2, 1) from (2, 1) and to (2, 513) from (-2, -1).
    """
    pN = p**N
    R = [[e % pN for e in row] for row in rows]
    nr = len(R)
    nc = len(R[0]) if nr else 0
    T = identity(nr) if want_transform else None
    piv_rows: list[int] = []
    piv_cols: list[int] = []
    pr = 0
    for col in range(nc):
        if pr >= nr:
            break
        best = -1
        best_v = N
        for i in range(pr, nr):
            x = R[i][col]
            if x:
                v = int_valuation(x, p, N)
                if v < best_v:
                    best_v = v
                    best = i
                    if v == 0:
                        break
        if best < 0:
            continue
        if best != pr:
            R[pr], R[best] = R[best], R[pr]
            if T is not None:
                T[pr], T[best] = T[best], T[pr]
        a = best_v
        pa = p**a
        u = R[pr][col] // pa
        if u != 1:
            inv = pow(u, -1, pN)
            R[pr] = [(inv * x) % pN for x in R[pr]]
            if T is not None:
                T[pr] = [(inv * x) % pN for x in T[pr]]
        # pivot is now exactly p^a; everything below has valuation >= a
        prow = R[pr]
        for i in range(pr + 1, nr):
            x = R[i][col]
            if x:
                t = x // pa
                ri = R[i]
                R[i] = [(xi - t * pi) % pN for xi, pi in zip(ri, prow)]
                if T is not None:
                    ti = T[i]
                    tp = T[pr]
                    T[i] = [(xi - t * pi) % pN for xi, pi in zip(ti, tp)]
        piv_rows.append(pr)
        piv_cols.append(col)
        pr += 1
    _reduce_above(R, piv_rows, piv_cols, pN, T)
    return R, piv_cols, T


def _reduce_above(R, piv_rows, piv_cols, pN: int, T=None) -> None:
    """Reduce the entries above each pivot modulo its p-power, left to right, in place.

    R holds exact p-power pivots R[piv_rows[k]][piv_cols[k]] with zeros
    below and left of each; the same row operations are applied to T when
    it is given.  A later pivot row is zero in every earlier pivot column,
    so an entry once reduced stays reduced.
    """
    for r, col in zip(piv_rows, piv_cols):
        prow = R[r]
        pa = prow[col]
        for i in range(r):
            q = R[i][col] // pa
            if q:
                R[i] = [(xi - q * pi) % pN for xi, pi in zip(R[i], prow)]
                if T is not None:
                    T[i] = [(xi - q * pi) % pN for xi, pi in zip(T[i], T[r])]


def hermite_insert(basis, rows, p: int, N: int, exps):
    """Eliminate new rows against an upper-triangular basis mod p^N.

    basis is d x d, upper triangular, with exact p-power pivots p^e_k,
    e_k < N, and entries in [0, p^N) (a Lattice basis); exps are the e_k
    (a Lattice's cached `diag_exponents`).  The new rows are residues in
    [0, p^N) too.  Returns (triangular_rows, diag_exponents):
    an upper-triangular basis with p-power pivots whose span plus p^N Z^d
    is that of basis and rows together.  Each new row is reduced column by
    column; where it has the smaller valuation it is scaled to an exact
    p-power and swapped with the basis row, and the displaced row is
    reduced and carried on.  A row reduced to zero is dropped.  Entries
    above the pivots are left unreduced, so the rows are not the canonical
    form of `hermite_rows`.  At column k the carried row and the pivot row
    are zero left of k, so only columns k..d-1 are updated, and only where
    the pivot row is not 0.
    """
    pN = p**N
    d = len(basis)
    tri = list(basis)
    exps = list(exps)
    for row in rows:
        x = list(row)
        for k in range(d):
            xk = x[k]
            if not xk:
                continue
            piv = tri[k]
            if xk % piv[k]:
                # the pivot p^e_k does not divide x[k], so v(x[k]) < e_k
                v = int_valuation(xk, p, N)
                u = xk // p**v
                if u != 1:
                    inv = pow(u, -1, pN)
                    x[k:] = [(inv * e) % pN for e in x[k:]]
                tri[k], x = x, list(piv)
                exps[k] = v
                piv = tri[k]
            # exact: the pivot's p-power divides x[k]
            q = x[k] // piv[k]
            for j in range(k, d):
                t = piv[j]
                if t:
                    x[j] = (x[j] - q * t) % pN
    return tri, exps


def smith_rows(rows, p: int, N: int, want_right_inv: bool = False):
    """Diagonalize integer rows mod p^N by unimodular row and column ops.

    Returns (exponents, origin_cols, W) where the exponents are the
    ascending elementary-divisor exponents of the certifiable pivots,
    origin_cols[k] is the input column the k-th pivot came from, and W is
    the inverse of the accumulated column transform, so the input rows span
    the same lattice mod p^N as the rows p^exponents[k] * W[k].  W is None
    unless requested.
    """
    pN = p**N
    A = [[e % pN for e in row] for row in rows]
    nr = len(A)
    nc = len(A[0]) if nr else 0
    W = identity(nc) if want_right_inv else None
    colmap = list(range(nc))
    exps: list[int] = []
    origin: list[int] = []
    for k in range(min(nr, nc)):
        bi = bj = -1
        bv = N
        for i in range(k, nr):
            arow = A[i]
            for j in range(k, nc):
                x = arow[j]
                if x:
                    v = int_valuation(x, p, N)
                    if v < bv:
                        bv, bi, bj = v, i, j
                        if v == 0:
                            break
            if bv == 0:
                break
        if bi < 0:
            break
        if bi != k:
            A[k], A[bi] = A[bi], A[k]
        if bj != k:
            for row in A:
                row[k], row[bj] = row[bj], row[k]
            if W is not None:
                W[k], W[bj] = W[bj], W[k]
            colmap[k], colmap[bj] = colmap[bj], colmap[k]
        a = bv
        pa = p**a
        u = A[k][k] // pa
        if u != 1:
            inv = pow(u, -1, pN)
            A[k] = [(inv * x) % pN for x in A[k]]
        prow = A[k]
        for i in range(k + 1, nr):
            x = A[i][k]
            if x:
                t = x // pa
                ai = A[i]
                A[i] = [(xi - t * pi) % pN for xi, pi in zip(ai, prow)]
        # row k right of the pivot: plain column clears; only row k is
        # affected because the pivot column is zero elsewhere by now
        ak = A[k]
        for j in range(k + 1, nc):
            x = ak[j]
            if x:
                t = x // pa
                ak[j] = 0
                if W is not None:
                    wk = W[k]
                    wj = W[j]
                    W[k] = [(a0 + t * b0) % pN for a0, b0 in zip(wk, wj)]
        exps.append(a)
        origin.append(colmap[k])
    return exps, origin, W


def unimodular_inverse(grid, p: int, N: int) -> list[list[int]]:
    """The inverse mod p^N of a square matrix invertible over Z_p.

    Its Hermite form is the identity, so the transform is the inverse.
    Raises ValueError unless all d pivots are 1 (det(grid) is a unit).
    """
    d = len(grid)
    if any(len(r) != d for r in grid):
        raise ValueError("only a square matrix can be inverted")
    R, piv, T = hermite_rows(grid, p, N, want_transform=True)
    if len(piv) != d or any(R[k][k] != 1 for k in range(d)):
        raise ValueError("matrix is not invertible over Z_p")
    return T
