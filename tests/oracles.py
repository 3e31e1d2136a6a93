"""Independent brute-force reference implementations for small cases.

Everything here works by explicit enumeration over (Z/p^N)^d, or over
every candidate period and start, so it is slow and only usable for small cases,
but it shares no code with the library and serves as ground truth.  The
exceptions are `join_quotients` and `window_constant_by_lattices`, the
former implementations of hdim_numeric and of the window constant on top
of the public lattice layer (itself checked against the enumerations
here), and `approximate_term`, the model lattice the latter builds; and
the former library code kept to pin its faster replacement:
`det_valuation_is_zero` (a Hermite rank mod p), `detect_cycle_by_coordinates`
(the cycle key by a Hermite form), `run_stratification_eager` (the
anchor pipeline, which also ran on a trace whose blocks all hit),
`step_by_full_stack` (the series step on every image, zero or not) and
`lower_p_series_stepwise` (the series with every step run, no tail copied).  The
definitions `valuation` and `mat_mul_dense` pin the kernels.
"""

import math
from fractions import Fraction
from functools import lru_cache


def span_set(rows, p, N):
    """All Z-combinations of the rows inside (Z/p^N)^d, as a frozenset of tuples.

    The span is the sum of the cyclic subgroups <r> of the rows; both the
    subgroups and their sums are memoized, since many matrices share them.
    """
    pN = p**N
    return _sum_of_subgroups(tuple(_cyclic_subgroup(tuple(r), pN) for r in rows), pN)


@lru_cache(maxsize=None)
def _cyclic_subgroup(row, pN):
    """<row> inside (Z/pN)^d: every multiple a*row for a in [0, pN)."""
    return frozenset(tuple(a * x % pN for x in row) for a in range(pN))


@lru_cache(maxsize=None)
def _sum_of_subgroups(subgroups, pN):
    """H_1 + ... + H_k inside (Z/pN)^d, element by element."""
    out = subgroups[0]
    for H in subgroups[1:]:
        out = frozenset(tuple((x + y) % pN for x, y in zip(u, v)) for u in out for v in H)
    return out


def valuation(x, p, N):
    """v_p(x) capped at N, by dividing out one p at a time from x mod p^N."""
    if x % p**N == 0:
        return N
    v = 0
    x = x % p**N
    while x % p == 0:
        x //= p
        v += 1
    return v


def mat_mul_dense(a, b, m):
    """The rows of a @ b mod m by the dense triple loop over every entry."""
    width = len(b[0]) if b else 0
    return [[sum(arow[t] * b[t][j] for t in range(len(b))) % m for j in range(width)]
            for arow in a]


def brute_smith_2x2(rows, p, N, span=None):
    """Elementary-divisor exponents (a1 <= a2) of a full-rank 2x2 matrix.

    a1+a2 comes from the size of the quotient group, a2 from its exponent
    (the least k with p^k * e_j in the span for both unit vectors).  Only
    valid when the quotient is finite, i.e. the span has full rank.  Pass a
    precomputed span to avoid enumerating the same matrix twice.
    """
    pN = p**N
    S = span_set(rows, p, N) if span is None else span
    size = len(S)
    total = 0
    q = (pN * pN) // size
    while q > 1:
        q //= p
        total += 1
    for k in range(N + 1):
        f = p**k
        if (f % pN, 0) in S and (0, f % pN) in S:
            a2 = k
            break
    else:
        raise AssertionError("span does not have full rank")
    return (total - a2, a2)


def brute_period(samples, denom_bound):
    """Reference for strata.fit_rational, with its messages.

    For each m <= denom_bound, reads the shift n at the window's end and
    tries every start j in turn, checking the shift at every i from j to
    i_hi - m; the least such j gives the tail i_hi - j.  The first m whose
    tail reaches max(2m, L // 2) gives (Fraction(n, m), j).  Otherwise
    raises NoStableFit naming the longest tail, least m first.
    """
    from pstrata.errors import NoStableFit

    idx = [i for i, _ in samples]
    if idx and idx != list(range(idx[0], idx[0] + len(idx))):
        raise ValueError("sample indices must be consecutive")
    if denom_bound < 1:
        raise ValueError(f"denominator bound {denom_bound} is below 1")
    P, L = dict(samples), len(samples)
    tails = []
    for m in range(1, min(denom_bound, L - 1) + 1):
        i_lo, i_hi = idx[0], idx[-1]
        n = P[i_hi] - P[i_hi - m]
        j = next(j for j in range(i_lo, i_hi - m + 1)
                 if all(P[i + m] - P[i] == n for i in range(j, i_hi - m + 1)))
        if i_hi - j >= max(2 * m, L // 2):
            return Fraction(n, m), j
        tails.append((i_hi - j, -m))
    tail, m = max(tails, default=(0, 0))
    held = f"m = {-m} over {tail}" if tails else "none"
    raise NoStableFit(f"no period m <= {denom_bound} holds over the last {L // 2} "
                      f"of {L} samples (best: {held})")


def join_quotients(H, trace, strat, tolerance=Fraction(1, 100)):
    """Reference for hausdorff.hdim_numeric: (quotients, strong).

    Builds every join H + term_i with Lattice.from_rows, precision guard
    included, and takes both indexes from log_index, which re-solves both
    containments.
    """
    from pstrata.lattice import Lattice, log_index

    L = trace.ambient
    amb = H.ambient_rows(strat)
    quotients = []
    for i in range(1, trace.i_max + 1):
        lam = trace.terms[i]
        joined = Lattice.from_rows(L.p, L.N, L.d, amb + [list(r) for r in lam.basis])
        quotients.append(Fraction(log_index(joined, lam), log_index(L, lam)))
    tail = quotients[-max(1, len(quotients) // 3):]
    return quotients, (max(tail) - min(tail)) <= Fraction(tolerance)


def subset_spectrum(weights):
    """Reference for hausdorff.spectrum: every 0/1 choice over the weight list.

    Sums the chosen weights of each of the 2^len(weights) subsets as
    fractions, one subset at a time, and divides by the total.
    """
    weights = [Fraction(w) for w in weights]
    total = sum(weights, Fraction(0))
    sums = set()
    for mask in range(2 ** len(weights)):
        sums.add(sum((w for k, w in enumerate(weights) if mask >> k & 1), Fraction(0)))
    return tuple(sorted(s / total for s in sums))


def approximate_term(frame, rates, i, p, N):
    """The split-model lattice at index i: span of p^floor(i*rate_k) x_k."""
    from pstrata.lattice import Lattice

    rows = []
    for xi, x in zip(rates.rates, frame):
        f = p ** math.floor(i * xi)
        rows.append([f * t for t in x])
    return Lattice.from_rows(p, N, len(frame), rows)


def _scale_exponent_into(rows, M):
    """Least c >= 0 with p^c * row in M for every row."""
    ell = M.lower_level
    f = M.p**ell
    worst = 0
    for row in rows:
        coords = M.solve([f * x for x in row])  # never None: p^ell Z_p^d lies in M
        least = min(valuation(c, M.p, M.N + ell) for c in coords)
        worst = max(worst, ell - least)
    return worst


def window_constant_by_lattices(trace, frame, rates):
    """Reference for strata._window_constant: build model_i, solve both ways.

    For every i >= 1 the model term is a full Lattice.from_rows, and each
    basis row of either lattice is solved in the other; c is the largest
    scale exponent needed.
    """
    p, N = trace.ambient.p, trace.ambient.N
    c = 0
    for i in range(1, trace.i_max + 1):
        model = approximate_term(frame, rates, i, p, N)
        lam = trace.terms[i]
        c = max(c, _scale_exponent_into(model.basis, lam),
                _scale_exponent_into(lam.basis, model))
    return c


def det_valuation_is_zero(grid, p):
    """True iff det(grid) is a p-adic unit: full rank of the reduction mod p."""
    from pstrata.padic import hermite_rows

    n = len(grid)
    if any(len(r) != n for r in grid):
        return False
    return n == 0 or len(hermite_rows(grid, p, 1)[1]) == n


def is_scaled_copy(A, n, B):
    """True iff B's canonical basis is p^n times A's, entry by entry."""
    f = A.p**n
    return all(
        f * a == b for arow, brow in zip(A.basis, B.basis) for a, b in zip(arow, brow)
    )


def detect_cycle_by_coordinates(trace):
    """Reference for strata.detect_cycle: key each term by its own basis.

    Divides the term's basis by its least p-power and keys by the Hermite
    form of the result; a hit is verified exactly as in the library.
    """
    from pstrata.padic import hermite_rows, int_valuation
    from pstrata.strata import CycleCertificate

    p, N, d = trace.ambient.p, trace.ambient.N, trace.ambient.d
    seen = {}
    depths = []
    for i, term in enumerate(trace.terms):
        C = term.basis
        u = min(int_valuation(abs(x), p, N) if x else N for row in C for x in row)
        depths.append(u)
        shape = [[x // p**u for x in row] for row in C]
        red, piv, _ = hermite_rows(shape, p, N)
        if len(piv) != d:
            continue
        key = tuple(tuple(r) for r in red)
        j = seen.get(key)
        if j is None:
            seen[key] = i
            continue
        m, n = i - j, depths[i] - depths[j]
        if 0 <= n <= m and is_scaled_copy(trace.terms[j], n, trace.terms[i]):
            return CycleCertificate(j=j, m=m, n=n)
    return None


def run_stratification_eager(trace, denom_bound=64):
    """Reference for strata.run_stratification: the anchor pipeline on every trace.

    Checks the trace length and the bound, then takes the cycle by
    coordinates (`detect_cycle_by_coordinates`): with a cycle its rates
    are the candidate, otherwise the rate fit's, graded period or not.
    Only then is a frame tried from the Smith basis of an anchor term
    (`strata.extract_frame`), and every error is raised as is.
    """
    from dataclasses import replace

    from pstrata import strata

    if trace.i_max < 2:
        raise ValueError(f"i_max must be at least 2 to read a rate, got {trace.i_max}")
    if denom_bound < 1:
        raise ValueError(f"denominator bound {denom_bound} is below 1")
    cert = detect_cycle_by_coordinates(trace)
    if cert is None:
        return strata.extract_frame(trace, strata.estimate_rates(trace, denom_bound)), None
    strat = strata.extract_frame(trace, strata.RateVector((cert.rate,) * trace.ambient.d))
    return replace(strat, status="exact-cycle"), cert


def step_by_full_stack(M, action):
    """Reference for gmodule._step: the canonical span of p*M and every M*(g - 1)."""
    from pstrata.lattice import Lattice

    p, N = M.p, M.N
    rows = [[p * x for x in row] for row in M.basis]
    for delta in action.deltas:
        rows.extend(mat_mul_dense(M.basis, delta, p**N))
    return Lattice.from_rows(p, N, M.d, rows)


def lower_p_series_stepwise(L, action, i_max):
    """Reference for gmodule.lower_p_series: every term by a step, none copied.

    Checks the index growth and caches each term's level from its profile,
    as the library does.  The trace holds one block record, the whole
    series with the first repetition found by coordinates
    (`detect_cycle_by_coordinates`) as its hit, so its graded period has
    every shift n and its cycle is that repetition.
    """
    from dataclasses import replace

    from pstrata.errors import PstrataError
    from pstrata.gmodule import SeriesTrace, _step
    from pstrata.lattice import divisor_profile

    terms, profiles = [], []
    cur = L
    for i in range(i_max + 1):
        if i:
            cur = _step(cur, action)
        prof = divisor_profile(cur)
        cur.__dict__["lower_level"] = prof[-1]
        if sum(prof) < i:
            raise PstrataError(f"series index grew too slowly at step {i}")
        terms.append(cur)
        profiles.append(prof)
    trace = SeriesTrace(L, action, tuple(terms), tuple(profiles), i_max)
    hit = detect_cycle_by_coordinates(trace)
    return replace(trace, blocks=((0, trace.terms, trace.profiles, hit),))
