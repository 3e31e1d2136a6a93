"""Rates, cycle certificates, frames and equivalence certification.

Given a computed series trace, this module recovers the stratification
data: a rational growth rate per coordinate, a frame (a basis of the
ambient lattice adapted to the strata), and the certified constant c such
that the series and the split model series p^floor(i*rate_k) * x_k contain
each other up to p^c across the whole window.

Everything here is exact.  Rates are fractions, the frame is an integer
matrix invertible over Z_p, and c is read off in frame coordinates, with
no model lattice built (tests/oracles.py keeps the definition by model
lattices).  run_stratification takes one of two paths.

- Off the blocks' hits.  A trace whose coordinate blocks all hit their
  first cycle (`SeriesTrace.blocks`) already states its stratification:
  every coordinate of block s grows at the exact rate n_s/m_s, and the
  coordinate unit vectors, ordered by rate, are a frame whose every
  rate-boundary prefix is invariant.  Nothing is fitted, searched or
  repaired, and c is read off the blocks' profiles in integers, with no
  term read (_block_stratification).
- Off the profile periods.  Any other trace, one with a block that does
  not repeat within the window or a hand-built one, reads a rate off the exact
  period of each profile column (fit_rational): the invariants are
  rational and the series descends regularly in strata, so each column
  eventually repeats with a shift, P[i + m][k] - P[i][k] = n, and its rate
  is n/m.  Only integers are compared.  The least period m within the
  bound wins whose shift, read at the window's end, holds back over at
  least 2m steps and half the window; without the half-window floor,
  m = 1 would pass on any two equal steps.  A frame is then taken from
  the Smith basis of an anchor term (extract_frame).  Each rate-boundary
  prefix P_e of the frame F is checked: P_e is invariant iff every block
  (F (g - 1) F^-1)[:e, e:] is 0 mod p^N, and a prefix that is not is
  deformed by _graph_repair.  The choice of rates and anchors is the only
  non-rigorous ingredient; every candidate must pass the invariance checks
  and the window-wide equivalence test, and failures fall back to other
  anchors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    FrameRejected,
    NoStableFit,
    NotABoundary,
    NotInvariant,
    RateOutOfRange,
)
from .gmodule import CycleCertificate, GroupAction, SeriesTrace
from .padic import (
    _integer, hermite_rows, int_valuation, mat_mul, mul_entries, row_entries, smith_rows,
    unimodular_inverse,
)

__all__ = [
    "RateVector",
    "CycleCertificate",
    "Stratification",
    "StrataSplit",
    "fit_rational",
    "estimate_rates",
    "detect_cycle",
    "extract_frame",
    "certify_equivalence",
    "strata_split",
    "run_stratification",
]


@dataclass(frozen=True)
class RateVector:
    """Ascending per-coordinate growth rates, each in [1/d, 1]."""

    rates: tuple

    def __post_init__(self):
        d = len(self.rates)
        if d == 0:
            raise ValueError("empty rate vector")
        rs = tuple(Fraction(r) for r in self.rates)
        object.__setattr__(self, "rates", rs)
        if any(rs[k] > rs[k + 1] for k in range(d - 1)):
            raise RateOutOfRange(f"rates must be ascending, got {rs}")
        if rs[0] < Fraction(1, d) or rs[-1] > 1:
            raise RateOutOfRange(f"rates must lie in [1/{d}, 1], got {rs}")

    @property
    def sigma(self) -> Fraction:
        return sum(self.rates, Fraction(0))

    @property
    def dimension(self) -> int:
        return len(self.rates)


@dataclass(frozen=True)
class Stratification:
    """A certified split model for a series window.

    frame holds d row vectors forming a Z_p-basis of the series' start
    Z_p^d (F B in an ambient where the start has basis B).  The model term
    at index i is the span of p^floor(i * rates[k]) * frame[k].  c is
    the certified two-sided containment constant over the window.  status
    is "certified-window" or "exact-cycle" (a cycle certificate extends
    the window to all later indices).
    """

    frame: tuple
    rates: RateVector
    c: int
    window: tuple
    status: str


@dataclass(frozen=True)
class StrataSplit:
    """An invariant prefix span with the two induced actions."""

    prefix_rows: tuple
    sub_action: GroupAction
    quotient_action: GroupAction


# -- rates from profile periods ------------------------------------------


def _check_bound(denom_bound: int) -> None:
    if denom_bound < 1:
        raise ValueError(f"denominator bound {denom_bound} is below 1")


def fit_rational(column, denom_bound: int):
    """The rate n/m of a column read off its exact period, and where the period starts.

    column holds the integers m_1..m_L.  For m = 1, 2, ..., denom_bound
    the shift n = m_L - m_(L - m) is followed back to the least j with
    m_(i + m) - m_i = n for every i in [j, L - m]; the first m with
    L - j >= max(2m, L // 2) gives (Fraction(n, m), j).  So the bound is a
    bound on the period, and the rate's reduced denominator divides the
    period.  Raises ValueError for a bound below 1 or a value that is not
    an integer (1.5 is refused, not truncated), and NoStableFit, naming the
    longest tail over which some m held, when no m passes.
    """
    _check_bound(denom_bound)
    col = [_integer(v, "a sample") for v in column]
    last, half = len(col) - 1, len(col) // 2
    best = (0, 0)  # (tail, -m) of the longest tail, least m first
    for m in range(1, min(denom_bound, last) + 1):
        n = col[last] - col[last - m]
        t = last - m
        while t and col[t - 1 + m] - col[t - 1] == n:
            t -= 1
        if last - t >= max(2 * m, half):
            return Fraction(n, m), t + 1
        best = max(best, (last - t, -m))
    tail, m = best
    held = f"m = {-m} over {tail}" if tail else "none"
    raise NoStableFit(f"no period m <= {denom_bound} holds over the last {half} of "
                      f"{len(col)} samples (best: {held})")


def estimate_rates(trace: SeriesTrace, denom_bound: int = 64) -> RateVector:
    """Read one rate per coordinate off the periods of the trace's divisor profiles.

    Each distinct profile column over the window 1..i_max is read once, by
    fit_rational with the period bound denom_bound.  Raises ValueError for
    a trace shorter than two steps or a bound below 1, RateOutOfRange when
    a rate escapes [1/d, 1] and NoStableFit (naming the coordinate) when a
    column has no period within the bound.
    """
    _check_length(trace)
    fits = {}  # equal profile columns have equal rates
    fitted = []
    for k, col in enumerate(zip(*trace.profiles[1:])):
        if col not in fits:
            try:
                fits[col], _ = fit_rational(col, denom_bound)
            except NoStableFit as err:
                raise NoStableFit(f"coordinate {k}: {err}") from err
        fitted.append(fits[col])
    fitted.sort()
    return RateVector(tuple(fitted))


def _check_length(trace: SeriesTrace) -> None:
    """ValueError unless the fit window 1..i_max holds at least two steps."""
    if trace.i_max < 2:
        raise ValueError(f"i_max must be at least 2 to read a rate, got {trace.i_max}")


# -- cycle detection ----------------------------------------------------


def detect_cycle(trace: SeriesTrace) -> CycleCertificate | None:
    """The first exact repetition term(j + m) == p^n term(j), 0 <= n <= m, or None.

    `SeriesTrace.cycle` reads it off the window period of the action's
    coordinate blocks when every block hit its first cycle
    (`SeriesTrace.blocks`, which `gmodule.lower_p_series` records): it is
    that period when every shift is n, and a hand-built trace has none.
    One hit extends to every i >= j: the step M -> pM + sum_t M(g_t - 1) is
    Z_p-linear, so it sends p^n M to p^n times its image, and term(i + m)
    == p^n term(i) for each i >= j by induction on i.  So every rate is
    n/m.  run_stratification reports it with the stratification it reads
    off the blocks (its status is "exact-cycle" then);
    `hausdorff.hdim_numeric` reads its quotients off the window period, of
    which the cycle is the one-class case.
    """
    return trace.cycle


# -- invariant prefixes -------------------------------------------------


def _prefix_invariant(frame, inv, e: int, action: GroupAction) -> bool:
    """Whether the first e frame rows span an invariant sublattice P_e.

    The frame F is a Z_p-basis and inv is F^-1 mod p^N, so v lies in P_e
    plus p^N Z_p^d iff the coordinates v F^-1 vanish mod p^N from position
    e on; x_k g lies in P_e iff x_k (g - 1) does.  So P_e is invariant iff
    every block (F (g - 1) F^-1)[:e, e:] is 0 mod p^N.  No basis of P_e
    alone is needed: a triangular one is not unique (`padic.hermite_rows`),
    so a membership test against it can miss a vector of the span.
    """
    pN = action.p**action.N
    d = action.d
    tail = row_entries([row[e:] for row in inv])
    blocks = [row[t:t + d] for row in mul_entries(frame[:e], action.delta_entries, pN)
              for t in range(0, len(action.deltas) * d, d)]
    return not any(map(any, mul_entries(blocks, tail, pN)))


def _solve_row_system(rows, target, p: int, N: int):
    """Solve u . rows = target mod p^N, allowing a p-power denominator.

    Returns (u, s) with u integral and (p^-s u) . rows = target mod p^N,
    for the smallest s <= 6 that admits an integral u, or None.  Free
    coordinates are set to zero, so among the solution coset this picks
    the one built purely from pivot rows.
    """
    R, piv, T = hermite_rows(rows, p, N, want_transform=True)
    pN = p**N
    m = len(target)
    for s in range(7):
        b = [(x * p**s) % pN for x in target]
        w = [0] * len(rows)
        ok = True
        for k, j in enumerate(piv):
            a = int_valuation(R[k][j], p, N)
            pa = p**a
            if b[j] % pa:
                ok = False
                break
            coef = b[j] // pa
            w[k] = coef
            if coef:
                rk = R[k]
                for c in range(m):
                    if rk[c]:
                        b[c] = (b[c] - coef * rk[c]) % pN
        if ok and not any(b):
            return mat_mul([w], T, pN)[0], s
    return None


def _graph_repair(frame, e: int, action: GroupAction):
    """Deform the prefix onto the nearby invariant graph, recompleting the frame.

    In frame coordinates the candidate prefix is the span of the first e
    unit rows and an invariant deformation has graph form [I | E].  The
    matching condition is T_t + E D_t - A_t E - E B_t E = 0 for the blocks
    of each conjugated generator; we solve its linearization in E exactly
    (p-power denominators allowed, absorbed by saturating [p^s I | u]) and
    iterate so the quadratic term dies off.  Returns a full replacement
    frame or None; the caller re-verifies invariance from scratch.
    """
    p, N = action.p, action.N
    pN = p**N
    d = len(frame)
    nf = e * (d - e)
    cur = [list(r) for r in frame]
    for _ in range(4):
        inv = unimodular_inverse(cur, p, N)  # never raises: cur is a Z_p-basis (_try_frame)
        n_eq = len(action.generators) * nf
        sys_rows = [[0] * n_eq for _ in range(nf)]
        rhs = [0] * n_eq
        defect = False
        for t, g in enumerate(action.generators):
            H = mat_mul(mat_mul(cur, g, pN), inv, pN)
            base = t * nf
            for r in range(e):
                for c in range(d - e):
                    col = base + r * (d - e) + c
                    tv = H[r][e + c]
                    if tv:
                        defect = True
                    rhs[col] = (-tv) % pN
                    for mm in range(d - e):
                        row = sys_rows[r * (d - e) + mm]
                        row[col] = (row[col] + H[e + mm][e + c]) % pN
                    for mm in range(e):
                        row = sys_rows[mm * (d - e) + c]
                        row[col] = (row[col] - H[r][mm]) % pN
        if not defect:
            return cur
        sol = _solve_row_system(sys_rows, rhs, p, N)
        if sol is None:
            return None
        u, s = sol
        ps = p**s
        graph = []
        for r in range(e):
            row = [0] * d
            row[r] = ps
            for c in range(d - e):
                row[e + c] = u[r * (d - e) + c]
            graph.append(row)
        exps, _, W = smith_rows(graph, p, N, want_right_inv=True)
        if len(exps) != e:
            return None
        # W[:e] spans the saturated graph, W[e:] completes it; both are
        # expressed in current frame coordinates.
        cur = mat_mul(W, cur, pN)
    return None


# -- frames and certification -------------------------------------------


def _window_constant(trace: SeriesTrace, frame, rates: RateVector, inv=None) -> int:
    """Least c >= 0 with p^c lambda_i in model_i and p^c model_i in lambda_i, all i >= 1.

    model_i spans the p^a_k x_k, x_k the frame rows and a_k = floor(i rate_k)
    <= i_max <= N - 2, computed as i n_k // m_k from the rate n_k / m_k in
    lowest terms; both lattices contain p^N Z_p^d.  The frame F is a
    Z_p-basis, so p^c v lies in model_i iff c + v_p(y_k) >= a_k for all k,
    y = v F^-1 mod p^N (capping v_p at N > a_k is harmless).  p^c model_i
    lies in lambda_i iff c >= e_k - a_k for the least e_k with p^e_k x_k in
    lambda_i: e_k = l - min v_p(z) <= l, z the coordinates of p^l x_k and l
    the term's lower level.  A least valuation is that of a gcd.
    tests/oracles.py keeps the lattice definition.  inv is F^-1 mod p^N,
    computed here unless the caller already has it.

    A term whose canonical basis is diagonal, diag(p^e_r), needs neither
    the product nor a solve.  Row r of lambda_i F^-1 is p^e_r times row r
    of F^-1, and the coordinates of p^l x_k are z_r = p^(l - e_r) F[k][r],
    so the two exponents are
        v_p(column k of lambda_i F^-1) = min(N, min_r e_r + v_p(F^-1[r][k])),
        e_k = max_r (e_r - v_p(F[k][r])),
    read off tables of the valuations of the nonzero entries in the columns
    of F^-1 and the rows of F, built once per frame.  F is a Z_p-basis, so
    each column of F^-1 and each row of F has a unit entry.  Hence the
    least e_r + v_p is at most e_r <= l <= N - 2 and the cap at N never
    binds, and a zero entry, whose v_p is at least N, never decides the
    minimum or the maximum.  Any other term, such as most terms of a
    conjugated series, takes the product and the solves.
    """
    p, N = trace.ambient.p, trace.ambient.N
    pN = p**N
    inv = inv if inv is not None else unimodular_inverse(frame, p, N)
    inv_cols = [[(r, int_valuation(x, p, N)) for r, x in enumerate(col) if x]
                for col in zip(*inv)]
    frame_rows = [[(r, int_valuation(x, p, N)) for r, x in enumerate(row) if x]
                  for row in frame]
    inv = row_entries(inv)
    pairs = [(xi.numerator, xi.denominator) for xi in rates.rates]
    c = 0
    for i in range(1, trace.i_max + 1):
        lam = trace.terms[i]
        a = [i * n // m for n, m in pairs]
        if not any(any(row[k + 1:]) for k, row in enumerate(lam.basis)):
            e = lam.diag_exponents
            for ak, col in zip(a, inv_cols):
                if ak > c:
                    c = max(c, ak - min(e[r] + v for r, v in col))
            ell = lam.lower_level
            for ak, row in zip(a, frame_rows):
                if ell - ak > c:
                    c = max(c, max(e[r] - v for r, v in row) - ak)
            continue
        for ak, col in zip(a, zip(*mul_entries(lam.basis, inv, pN))):
            if ak > c:
                c = max(c, ak - int_valuation(math.gcd(*col), p, N))
        ell = lam.lower_level
        f = p**ell
        for ak, x in zip(a, frame):
            if ell - ak > c:
                z = lam.solve([f * t for t in x])  # never None: p^ell Z_p^d lies in lambda_i
                c = max(c, ell - ak - int_valuation(math.gcd(*z), p, N + ell))
    return c


def _cap(trace: SeriesTrace) -> int:
    """The largest window constant certified: max(1, i_max // 4)."""
    return max(1, trace.i_max // 4)


def certify_equivalence(trace: SeriesTrace, strat: Stratification):
    """The window constant of a stratification's frame and rates; None above the cap.

    Computed in frame coordinates by _window_constant; the tests check it
    against the model-lattice definition in tests/oracles.py.  The frame must
    be a Z_p-basis (ValueError otherwise).  run_stratification's c is this.
    """
    c = _window_constant(trace, strat.frame, strat.rates)
    return None if c > _cap(trace) else c


def _boundaries(rates: RateVector):
    rs = rates.rates
    return [e for e in range(1, len(rs)) if rs[e - 1] < rs[e]]


def _try_frame(trace: SeriesTrace, rates: RateVector, i2: int, cap: int):
    """A certified frame from the Smith basis of the anchor term, or (None, reason).

    The frame is a Z_p-basis by construction: its rows are those of the
    Smith transform W, which `smith_rows` builds from I by row swaps and
    row additions, and a repair multiplies it by another such W.  Every
    rate-boundary prefix P_e of the frame is checked invariant; with
    ascending rates that makes each model term invariant, so none is
    checked.  If x_k's stratum ends at e(k), x_k g lies in P_e(k) (all of
    Z_p^d for the last stratum), and a_j <= a_k for j <= e(k), a_j =
    floor(i rate_j); so p^a_k x_k g lies in the span of the p^a_j x_j plus
    p^N Z_p^d, the model term at i.

    A prefix that is not invariant goes to _graph_repair, which deforms it
    onto a nearby invariant graph.  No other repair is tried: P_e is
    saturated (the frame is a Z_p-basis), so the action-stable closure of
    P_e has rank e only if it is P_e itself, and then P_e was invariant.
    A repair can break a prefix fixed earlier, hence the second pass; if
    that pass changed the frame as well, every prefix is checked once more.
    """
    p, N, d = trace.ambient.p, trace.ambient.N, trace.ambient.d
    exps, origin, W = smith_rows(trace.terms[i2].basis, p, N, want_right_inv=True)
    if len(exps) != d:
        return None, f"anchor {i2}: rank collapsed"
    targets = [i2 * xi.numerator // xi.denominator for xi in rates.rates]
    for k in range(d):
        if abs(exps[k] - targets[k]) > cap:
            return None, (
                f"anchor {i2}: divisor exponent {exps[k]} misses its stratum "
                f"target {targets[k]} by more than the cap {cap}"
            )
    order = sorted(range(d), key=lambda k: (rates.rates[k], origin[k]))
    frame = [W[k] for k in order]
    action = trace.action
    bounds = _boundaries(rates)
    inv = unimodular_inverse(frame, p, N)  # never raises: the frame is a Z_p-basis
    for _ in range(2):
        dirty = False
        for e in bounds:
            if _prefix_invariant(frame, inv, e, action):
                continue
            frame = _graph_repair(frame, e, action)
            if frame is None:
                return None, f"anchor {i2}: prefix of size {e} is not repairable"
            inv = unimodular_inverse(frame, p, N)  # the repair keeps a Z_p-basis
            dirty = True
        if not dirty:
            break
    else:
        for e in bounds:
            if not _prefix_invariant(frame, inv, e, action):
                return None, f"anchor {i2}: prefix of size {e} is not invariant"
    c = _window_constant(trace, frame, rates, inv)
    if c > cap:
        return None, f"anchor {i2}: window constant {c} exceeds cap {cap}"
    strat = Stratification(
        frame=tuple(tuple(r) for r in frame),
        rates=rates,
        c=c,
        window=(0, trace.i_max),
        status="certified-window",
    )
    return strat, None


def extract_frame(trace: SeriesTrace, rates) -> Stratification:
    """Build and certify a frame for the given rates.

    Anchor indices are chosen where the rate denominators align (multiples
    of their lcm near the window end), so the Smith exponents of the anchor
    term sit right on the stratum targets.  Candidates that fail any check
    are retried from earlier anchors before FrameRejected is raised.
    """
    rv = rates if isinstance(rates, RateVector) else RateVector(tuple(rates))
    d = trace.ambient.d
    if rv.dimension != d:
        raise ValueError(f"rate vector has {rv.dimension} entries for dimension {d}")
    cap = _cap(trace)
    lcm_den = math.lcm(*[xi.denominator for xi in rv.rates])
    aligned = (trace.i_max // lcm_den) * lcm_den
    near_end = (aligned, aligned - lcm_den, trace.i_max, trace.i_max - 1)
    attempt_list = [i2 for i2 in dict.fromkeys(near_end) if 1 <= i2 <= trace.i_max]
    reasons = []
    for i2 in attempt_list:
        strat, why = _try_frame(trace, rv, i2, cap)
        if strat is not None:
            return strat
        reasons.append(why)
    raise FrameRejected("; ".join(reasons))


def _block_stratification(trace: SeriesTrace) -> Stratification:
    """The stratification the blocks' hits state: exact rates, coordinate frame, c in integers.

    Every coordinate of block s, whose first hit is (j_s, m_s, n_s), has
    rate n_s/m_s, and the frame is the unit vectors ordered by (rate,
    coordinate), a permutation.  No check is needed:
    - Each block's span V_s is invariant (`gmodule` docstring), so every
      rate-boundary prefix of the frame is a sum of blocks' spans and is
      invariant, and so is every model term (_try_frame).
    - The rates are exact: block s repeats, term_s(i + m_s) = p^n_s
      term_s(i) from j_s on, so its terms lie within a bounded distance of
      p^floor(i n_s/m_s) Z_p^(V_s), as detect_cycle argues for a whole
      series' cycle.
    - c is exact.  Term and model term are direct sums over the blocks, and
      block s's model term is p^a Z_p^(V_s), a = floor(i n_s/m_s).  So
      p^c term_s(i) lies in it iff c >= a - u, u the content (the first
      profile exponent), and p^c of it lies in term_s(i) iff c >= l - a, l
      the lower level (the last).  Lemma: from j_s on, a step of m_s adds
      n_s to a, u and l alike, so this block's c at i + m_s is its c at i.
      Hence the window's c, and c at every index, is the largest over the
      blocks and i in 1 .. j_s + m_s - 1 (c_0 = 0).  Above the cap,
      FrameRejected.
    The status is "exact-cycle" when the series has a cycle (detect_cycle),
    "certified-window" otherwise.
    """
    blocks = trace.blocks
    coords = [hit.rate for _, terms, _, hit in blocks for _ in range(terms[0].d)]
    d = len(coords)
    order = sorted(range(d), key=coords.__getitem__)  # a stable sort: ties by coordinate
    c = 0
    for _, _, profiles, hit in blocks:
        for i in range(1, hit.j + hit.m):
            a = i * hit.n // hit.m
            c = max(c, a - profiles[i][0], profiles[i][-1] - a)
    cap = _cap(trace)
    if c > cap:
        hits = ", ".join(f"(j={h.j}, m={h.m}, n={h.n})" for *_, h in blocks)
        raise FrameRejected(f"block hits {hits}: window constant {c} of the "
                            f"coordinate frame exceeds cap {cap}")
    return Stratification(
        frame=tuple(tuple(int(r == k) for r in range(d)) for k in order),
        rates=RateVector(tuple(coords[k] for k in order)),
        c=c,
        window=(0, trace.i_max),
        status="certified-window" if trace.cycle is None else "exact-cycle",
    )


def run_stratification(trace: SeriesTrace, denom_bound: int = 64):
    """Full pipeline: rates, frame, certification, on one of two paths.

    Returns (stratification, cycle_certificate_or_None).
    - Off the blocks' hits.  When every coordinate block of the trace hit
      its first cycle (`SeriesTrace.blocks`), its rates, frame, c and
      status are read off them (_block_stratification); denom_bound is not
      read.  The cycle (detect_cycle) is returned with it, and is None
      unless the blocks give the whole series one.
    - Off the profile periods.  Otherwise the rates are read off the
      period of each profile column within denom_bound (estimate_rates),
      and extract_frame finds a frame and certifies c over the whole
      window, so the periods add no unsoundness.  The cycle is None.
    Errors, in this order: a trace shorter than two steps, then a period
    bound below 1, raise ValueError whatever the trace holds; then the
    rate error (NoStableFit, RateOutOfRange) or FrameRejected is raised as
    is.
    """
    _check_length(trace)
    _check_bound(denom_bound)
    if not trace.blocks or any(hit is None for *_, hit in trace.blocks):
        return extract_frame(trace, estimate_rates(trace, denom_bound)), None
    return _block_stratification(trace), detect_cycle(trace)


# -- splitting along a stratum boundary ---------------------------------


def strata_split(strat: Stratification, e: int, action: GroupAction) -> StrataSplit:
    """Split a certified stratification at a rate boundary.

    Returns the invariant span of the first e frame vectors together with
    the action conjugated into frame coordinates and cut into the e x e
    block (the sub-action) and the complementary block (the action induced
    on the quotient).  Raises NotABoundary when the rate does not jump at e.
    """
    rs = strat.rates.rates
    d = len(rs)
    if not 1 <= e < d or rs[e - 1] == rs[e]:
        raise NotABoundary(f"rates do not jump after position {e}")
    p, N = action.p, action.N
    pN = p**N
    frame = [list(r) for r in strat.frame]
    inv = unimodular_inverse(frame, p, N)
    if not _prefix_invariant(frame, inv, e, action):
        raise NotInvariant(f"the first {e} frame vectors do not span an invariant sublattice")
    sub_grids = []
    quo_grids = []
    for g in action.generators:
        conj = mat_mul(mat_mul(frame, g, pN), inv, pN)
        sub_grids.append([row[:e] for row in conj[:e]])
        quo_grids.append([row[e:] for row in conj[e:]])
    return StrataSplit(
        prefix_rows=tuple(tuple(r) for r in strat.frame[:e]),
        sub_action=GroupAction.build(p, N, sub_grids),
        quotient_action=GroupAction.build(p, N, quo_grids),
    )

