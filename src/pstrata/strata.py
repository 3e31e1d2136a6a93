"""Rate fitting, cycle certificates, frames and equivalence certification.

Given a computed series trace, this module recovers the stratification
data: a rational growth rate per coordinate, a frame (a basis of the
ambient lattice adapted to the strata), and the certified constant c such
that the series and the split model series p^floor(i*rate_k) * x_k contain
each other up to p^c across the whole window.

Everything here is exact.  Rates are fractions, the frame is an integer
matrix invertible over Z_p, and the certificate c is found by solving
containments in integer arithmetic.  The only non-rigorous ingredient is
the choice of candidate rates and frames; every candidate must then pass
invariance checks and the window-wide equivalence test, and failures fall
back to alternative anchors before giving up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    FrameRejected,
    NoStableFit,
    NotABoundary,
    NotInvariant,
    RateOutOfRange,
)
from .gmodule import GroupAction, SeriesTrace
from .lattice import Lattice, coords_in
from .padic import (det_valuation_is_zero, hermite_rows, int_valuation, mat_mul,
                    smith_rows, unimodular_inverse)

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
    "approximate_term",
    "fixed_space_rows",
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
class CycleCertificate:
    """Exact eventual self-similarity: term(j + m) == p^n * term(j).

    The step is functorial, so the identity propagates to every index at or
    beyond j and pins the growth rate of every coordinate to n/m.
    """

    j: int
    m: int
    n: int

    @property
    def rate(self) -> Fraction:
        return Fraction(self.n, self.m)


@dataclass(frozen=True)
class Stratification:
    """A certified split model for a series window.

    frame holds d ambient row vectors forming a basis of Z_p^d; the model
    term at index i is the span of p^floor(i * rates[k]) * frame[k].  c is
    the certified two-sided containment constant over the window.  status
    is "certified-window" or "exact-cycle" (a cycle certificate extends
    the window to all later indices).
    """

    frame: tuple
    rates: RateVector
    c: int
    window: tuple
    status: str

    @property
    def dimension(self) -> int:
        return len(self.frame)


@dataclass(frozen=True)
class StrataSplit:
    """An invariant prefix span with the two induced actions."""

    prefix_rows: tuple
    sub_action: GroupAction
    quotient_action: GroupAction


# -- rational fitting ---------------------------------------------------


def _floor_mul(i: int, q: Fraction) -> int:
    return (i * q.numerator) // q.denominator


def _fit_candidates(slope: Fraction, denom_bound: int, radius: Fraction) -> list:
    """Reduced pairs (n, m), m > 0, of the fractions n/m a fit tries.

    They are 0, 1, the slope when its denominator is within the bound, its
    convergents and semiconvergents, and every fraction in slope +- radius.
    Nearest the slope comes first, so the fitter's pruning bound tightens
    early; the order affects nothing else.
    """
    a, b = slope.numerator, slope.denominator
    cands = {(0, 1), (1, 1)}
    if b <= denom_bound:
        cands.add((a, b))
    # continued-fraction convergents and semiconvergents of the slope; each
    # pair is a column of a unimodular matrix, hence already reduced
    h0, k0, h1, k1 = 0, 1, 1, 0
    while b:
        q, r = divmod(a, b)
        for t in range(1, min(q, 4 * denom_bound + 4) + 1):
            den = k0 + t * k1
            if den > denom_bound:
                break
            cands.add((h0 + t * h1, den))
        h0, h1 = h1, q * h1 + h0
        k0, k1 = k1, q * k1 + k0
        a, b = b, r
    # every fraction with bounded denominator in a bracket around the slope
    lo, hi = slope - radius, slope + radius
    for m in range(1, denom_bound + 1):
        n0 = max(0, -(-lo.numerator * m // lo.denominator))
        for n in range(n0, hi.numerator * m // hi.denominator + 1):
            g = math.gcd(n, m)
            cands.add((n // g, m // g))
    a, b = slope.numerator, slope.denominator
    return sorted(cands, key=lambda c: abs(c[0] * b - a * c[1]) / c[1])


def _best_fit(pts, cands, half_spread: bool) -> tuple:
    """Least key (residual, m, n) over the candidate fractions n/m.

    The residual is max_i |m_i - floor(i*n/m)|, or with half_spread the
    half-spread ceil((max - min) / 2) of those deviations.  A candidate is
    dropped once its running residual strictly exceeds the best residual so
    far; that never drops the least key, so the scan order does not matter.
    """
    best = (math.inf,)
    for n, m in cands:
        lo, hi = math.inf, -math.inf
        for i, mi in pts:
            dv = mi - i * n // m
            if lo <= dv <= hi:
                continue
            lo, hi = min(lo, dv), max(hi, dv)
            r = (hi - lo + 1) // 2 if half_spread else max(hi, -lo)
            if r > best[0]:
                break
        else:
            best = min(best, (r, m, n))
    return best


def fit_rational(samples, denom_bound: int, residual_cap: int | None = None):
    """Best fraction q with bounded denominator for samples (i, m_i).

    Minimizes max_i |m_i - floor(i*q)|; ties prefer the smaller denominator,
    then the smaller value.  The result is the least (residual, denominator,
    value) over the candidate set, whatever the order the candidates are
    scanned in.  Requires at least 2*denom_bound + 2 samples so distinct
    candidates are actually distinguishable on the window.  Raises
    NoStableFit when the best residual exceeds the cap (default: a quarter
    of the window length).
    """
    pts = sorted((int(i), int(m)) for i, m in samples)
    if any(i <= 0 for i, _ in pts):
        raise ValueError("sample indices must be positive")
    if len(pts) < 2 * denom_bound + 2:
        raise ValueError(
            f"{len(pts)} samples cannot pin a denominator bound of {denom_bound}; "
            f"need at least {2 * denom_bound + 2}"
        )
    cap = residual_cap if residual_cap is not None else max(1, len(pts) // 4)
    i_last, m_last = pts[-1]
    slope = Fraction(m_last, i_last)
    radius = max(Fraction(cap + 2, i_last), Fraction(1, 8))
    r, m, n = _best_fit(pts, _fit_candidates(slope, denom_bound, radius), False)
    if r > cap:
        raise NoStableFit(
            f"best residual {r} exceeds cap {cap} on a window of {len(pts)} samples"
        )
    return Fraction(n, m), r


def estimate_rates(trace: SeriesTrace, denom_bound: int = 64, window=None) -> RateVector:
    """Fit one rate per coordinate from the trace's divisor profiles.

    The effective denominator bound is clamped so the window stays long
    enough for fit_rational's precondition.  Raises RateOutOfRange when a
    fit escapes [1/d, 1] and NoStableFit (with the coordinate) when no
    bounded fraction fits.
    """
    return _rates_from_profiles(trace, denom_bound, window, fit_rational)


def _fit_offset(samples, denom_bound: int, residual_cap: int | None = None):
    """Like fit_rational but tolerant of a constant integer displacement.

    Minimizes over fractions q the half-spread of m_i - floor(i*q); a
    series term displaced by a bounded shift still fits its true slope,
    where the anchored objective can prefer a wrong fraction that leans
    into the shift.  Slope candidates come from the endpoint difference,
    which cancels any constant offset.
    """
    pts = sorted((int(i), int(m)) for i, m in samples)
    if len(pts) < 2 * denom_bound + 2:
        raise ValueError(
            f"{len(pts)} samples cannot pin a denominator bound of {denom_bound}"
        )
    cap = residual_cap if residual_cap is not None else max(1, len(pts) // 4)
    (i0, m0), (i1, m1) = pts[0], pts[-1]
    slope = Fraction(max(0, m1 - m0), i1 - i0)
    radius = max(Fraction(cap + 2, i1 - i0), Fraction(1, 8))
    r, m, n = _best_fit(pts, _fit_candidates(slope, denom_bound, radius), True)
    if r > cap:
        raise NoStableFit(
            f"best offset-free residual {r} exceeds cap {cap}"
        )
    return Fraction(n, m), r


def _rates_from_profiles(trace: SeriesTrace, denom_bound: int, window, fitter) -> RateVector:
    i_lo, i_hi = window if window is not None else (1, trace.i_max)
    if not 1 <= i_lo < i_hi <= trace.i_max:
        raise ValueError(f"bad window ({i_lo}, {i_hi}) for a trace of length {trace.i_max}")
    n_samples = i_hi - i_lo + 1
    d_eff = min(denom_bound, (n_samples - 2) // 2)
    if d_eff < 1:
        raise NoStableFit(f"window of {n_samples} samples is too short to fit anything")
    idx = range(i_lo, i_hi + 1)
    fits = {}  # equal profile columns have equal fits
    fitted = []
    for k in range(trace.ambient.d):
        col = tuple(trace.profiles[i][k] for i in idx)
        if col not in fits:
            try:
                fits[col], _ = fitter(list(zip(idx, col)), d_eff)
            except NoStableFit as err:
                raise NoStableFit(f"coordinate {k}: {err}", coordinate=k) from err
        fitted.append(fits[col])
    fitted.sort()
    return RateVector(tuple(fitted))


# -- cycle detection ----------------------------------------------------


def detect_cycle(trace: SeriesTrace) -> CycleCertificate | None:
    """Search for an exact p-power repetition of normalized term shapes.

    Each term is divided by its depth p^u_i and canonicalized; a hash hit
    at indices j < j+m is only accepted after the exact verification
    term(j + m) == p^n term(j) with n = u_{j+m} - u_j <= m.
    """
    L0 = trace.ambient
    p, N = L0.p, L0.N
    d = L0.d
    seen: dict = {}
    depths: list[int] = []
    for i, term in enumerate(trace.terms):
        C = coords_in(term, L0)
        u = min(int_valuation(abs(x), p, N) if x else N for row in C for x in row)
        depths.append(u)
        pu = p**u
        shape = [[x // pu for x in row] for row in C]
        red, piv, _ = hermite_rows(shape, p, N)
        if len(piv) != d:
            continue
        key = tuple(tuple(r) for r in red)
        j = seen.get(key)
        if j is None:
            seen[key] = i
            continue
        m = i - j
        n = depths[i] - depths[j]
        if 0 <= n <= m and _is_scaled_copy(trace.terms[j], n, trace.terms[i]):
            return CycleCertificate(j=j, m=m, n=n)
    return None


def _is_scaled_copy(A: Lattice, n: int, B: Lattice) -> bool:
    f = A.p**n
    return all(
        f * a == b for arow, brow in zip(A.basis, B.basis) for a, b in zip(arow, brow)
    )


# -- row-span helpers (possibly non-full-rank) --------------------------


def _span_echelon(rows, p: int, N: int):
    red, piv, _ = hermite_rows(rows, p, N)
    return [list(red[k]) for k in range(len(piv))], piv


def _in_span(vec, ech, piv, p: int, N: int) -> bool:
    pN = p**N
    rem = [int(x) % pN for x in vec]
    nc = len(rem)
    for k, c in enumerate(piv):
        x = rem[c]
        if x:
            q, r = divmod(x, ech[k][c])
            if r:
                return False
            row = ech[k]
            for t in range(c, nc):
                rem[t] = (rem[t] - q * row[t]) % pN
    return not any(rem)


def _span_invariant(ech, piv, action: GroupAction) -> bool:
    pN = action.p**action.N
    return all(
        _in_span(img, ech, piv, action.p, action.N)
        for g in action.generators
        for img in mat_mul(ech, g, pN)
    )


def _g_closure(ech, piv, action: GroupAction, e: int):
    """Smallest action-stable span containing the rows, or None if its rank
    exceeds e (the deformation was not confined to the intended subspace)."""
    pN = action.p**action.N
    cur, cur_piv = ech, piv
    for _ in range(action.N * e + 2):
        stacked = [list(r) for r in cur]
        for g in action.generators:
            stacked.extend(mat_mul(cur, g, pN))
        new, new_piv = _span_echelon(stacked, action.p, action.N)
        if len(new_piv) > e:
            return None
        if new == cur:
            return cur
        cur, cur_piv = new, new_piv
    return None


def _isolator_rows(rows, p: int, N: int):
    """Basis of {x : p^k x in span(rows) for some k}, a saturated span."""
    exps, _, _, W = smith_rows(rows, p, N, want_right_inv=True)
    return [list(W[k]) for k in range(len(exps))]


def _solve_row_system(rows, target, p: int, N: int, s_max: int = 6):
    """Solve u . rows = target mod p^N, allowing a p-power denominator.

    Returns (u, s) with u integral and (p^-s u) . rows = target mod p^N,
    for the smallest s <= s_max that admits an integral u, or None.  Free
    coordinates are set to zero, so among the solution coset this picks
    the one built purely from pivot rows.
    """
    R, piv, T = hermite_rows(rows, p, N, want_transform=True)
    pN = p**N
    m = len(target)
    for s in range(s_max + 1):
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
        try:
            inv = unimodular_inverse(cur, p, N)
        except ValueError:
            return None
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
        exps, _, _, W = smith_rows(graph, p, N, want_right_inv=True)
        if len(exps) != e:
            return None
        # W[:e] spans the saturated graph, W[e:] completes it; both are
        # expressed in current frame coordinates.
        cur = mat_mul(W, cur, pN)
    return None


# -- frames and certification -------------------------------------------


def approximate_term(strat_frame, rates: RateVector, i: int, p: int, N: int) -> Lattice:
    """The split-model lattice at index i: span of p^floor(i*rate_k) x_k."""
    rows = []
    for k, xi in enumerate(rates.rates):
        f = p ** _floor_mul(i, xi)
        rows.append([f * x for x in strat_frame[k]])
    return Lattice.from_rows(p, N, len(strat_frame), rows)


def _scale_exponent_into(rows, M: Lattice) -> int:
    """Least c >= 0 with p^c * row in M for every row."""
    ell = M.lower_level
    f = M.p**ell
    worst = 0
    for row in rows:
        coords = M.solve([f * x for x in row])  # never None: p^ell Z_p^d lies in M
        deficit = ell - min(
            int_valuation(abs(c), M.p, M.N + ell) if c else M.N + ell for c in coords
        )
        if deficit > worst:
            worst = deficit
    return max(0, worst)


def _window_constant(trace: SeriesTrace, frame, rates: RateVector) -> int:
    """Minimal two-sided containment constant over the whole window."""
    p, N = trace.ambient.p, trace.ambient.N
    c = 0
    for i in range(1, trace.i_max + 1):
        model = approximate_term(frame, rates, i, p, N)
        lam = trace.terms[i]
        c_i = max(
            _scale_exponent_into(model.basis, lam),
            _scale_exponent_into(lam.basis, model),
        )
        if c_i > c:
            c = c_i
    return c


def certify_equivalence(trace: SeriesTrace, strat: Stratification, c_cap: int | None = None):
    """The window constant of a stratification's frame and rates; None above the cap.

    Every containment is solved afresh.  For a hand-built Stratification:
    run_stratification's c already is this constant, from extract_frame.
    """
    cap = c_cap if c_cap is not None else max(1, trace.i_max // 4)
    c = _window_constant(trace, strat.frame, strat.rates)
    return None if c > cap else c


def _boundaries(rates: RateVector):
    rs = rates.rates
    return [e for e in range(1, len(rs)) if rs[e - 1] < rs[e]]


def _try_frame(trace: SeriesTrace, rates: RateVector, i2: int, cap: int):
    """A certified frame from the Smith basis of the anchor term, or (None, reason).

    Every rate-boundary prefix P_e of the frame is checked invariant and the
    frame a Z_p-basis; with ascending rates that makes each model term
    invariant, so none is checked.  If x_k's stratum ends at e(k), x_k g
    lies in P_e(k) (all of Z_p^d for the last stratum), and a_j <= a_k for
    j <= e(k), a_j = floor(i rate_j); so p^a_k x_k g lies in the span of
    the p^a_j x_j plus p^N Z_p^d, the model term at i.
    """
    L0 = trace.ambient
    p, N, d = L0.p, L0.N, L0.d
    pN = p**N
    C = coords_in(trace.terms[i2], L0)
    exps, origin, _, W = smith_rows(C, p, N, want_right_inv=True)
    if len(exps) != d:
        return None, f"anchor {i2}: rank collapsed"
    targets = [_floor_mul(i2, xi) for xi in rates.rates]
    for k in range(d):
        if abs(exps[k] - targets[k]) > cap:
            return None, (
                f"anchor {i2}: divisor exponent {exps[k]} misses its stratum "
                f"target {targets[k]} by more than the cap {cap}"
            )
    order = sorted(range(d), key=lambda k: (rates.rates[k], origin[k]))
    frame_L = [list(W[k]) for k in order]
    # to ambient coordinates
    frame = mat_mul(frame_L, L0.basis, pN)
    action = trace.action
    bounds = _boundaries(rates)
    for _ in range(2):
        dirty = False
        for e in bounds:
            ech, piv = _span_echelon(frame[:e], p, N)
            if len(piv) != e:
                return None, f"anchor {i2}: prefix of size {e} lost rank"
            if _span_invariant(ech, piv, action):
                continue
            closed = _g_closure(ech, piv, action, e)
            if closed is not None:
                frame[:e] = _isolator_rows(closed, p, N)
                dirty = True
                continue
            repaired = _graph_repair(frame, e, action)
            if repaired is None:
                return None, f"anchor {i2}: prefix of size {e} is not repairable"
            frame = repaired
            dirty = True
        if not dirty:
            break
    else:
        # both passes changed the frame; a clean pass has checked every prefix
        for e in bounds:
            ech, piv = _span_echelon(frame[:e], p, N)
            if len(piv) != e or not _span_invariant(ech, piv, action):
                return None, f"anchor {i2}: prefix of size {e} is not invariant"
    if not det_valuation_is_zero(frame, p):
        return None, f"anchor {i2}: frame is not invertible over Z_p"
    c = _window_constant(trace, frame, rates)
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


def extract_frame(trace: SeriesTrace, rates, anchors=None, c_cap: int | None = None) -> Stratification:
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
    cap = c_cap if c_cap is not None else max(1, trace.i_max // 4)
    if anchors is not None:
        i1, i2 = anchors
        if not 0 < i1 < i2 <= trace.i_max:
            raise ValueError(f"bad anchor pair ({i1}, {i2})")
        attempt_list = [i2, i1]
    else:
        lcm_den = math.lcm(*[xi.denominator for xi in rv.rates])
        aligned = (trace.i_max // lcm_den) * lcm_den
        attempt_list = []
        for i2 in (aligned, aligned - lcm_den, trace.i_max, trace.i_max - 1):
            if i2 >= 1 and i2 <= trace.i_max and i2 not in attempt_list:
                attempt_list.append(i2)
    reasons = []
    for i2 in attempt_list:
        strat, why = _try_frame(trace, rv, i2, cap)
        if strat is not None:
            return strat
        reasons.append(why)
    raise FrameRejected("; ".join(reasons))


def run_stratification(trace: SeriesTrace, denom_bound: int = 64, window=None, c_cap=None):
    """Full pipeline: cycle detection, rate fitting, frame, certification.

    Returns (stratification, cycle_certificate_or_None).  Candidate rate
    vectors are tried in order of trustworthiness: a verified cycle pins
    every rate to n/m exactly and goes first; then the anchored fit; then
    an offset-tolerant refit, which rescues series whose terms are shifted
    against the model by a constant.  Whatever candidate wins must still
    pass frame extraction, which certifies c over the whole window, so the
    fallbacks add no unsoundness.  A cycle upgrades the status, since the
    exact self-similarity extends the window to every later index.
    """
    cert = detect_cycle(trace)
    d = trace.ambient.d
    candidates = []
    if cert is not None:
        candidates.append(RateVector((cert.rate,) * d))
    fit_error = None
    for fitter in (fit_rational, _fit_offset):
        try:
            rv = _rates_from_profiles(trace, denom_bound, window, fitter)
        except (NoStableFit, RateOutOfRange) as err:
            if fit_error is None:
                fit_error = err
            continue
        if rv not in candidates:
            candidates.append(rv)
    if not candidates:
        raise fit_error
    reject_reasons = []
    for rv in candidates:
        try:
            strat = extract_frame(trace, rv, c_cap=c_cap)
        except FrameRejected as err:
            reject_reasons.append(str(err))
            continue
        if cert is not None and rv.rates == (cert.rate,) * d:
            strat = replace(strat, status="exact-cycle")
        return strat, cert
    raise FrameRejected(" | ".join(reject_reasons))


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
    sub_grids = []
    quo_grids = []
    for g in action.generators:
        conj = mat_mul(mat_mul(frame, g, pN), inv, pN)
        for k in range(e):
            if any(conj[k][j] for j in range(e, d)):
                raise NotInvariant(
                    f"the first {e} frame vectors do not span an invariant sublattice"
                )
        sub_grids.append([row[:e] for row in conj[:e]])
        quo_grids.append([row[e:] for row in conj[e:]])
    return StrataSplit(
        prefix_rows=tuple(tuple(r) for r in strat.frame[:e]),
        sub_action=GroupAction.build(p, N, sub_grids),
        quotient_action=GroupAction.build(p, N, quo_grids),
    )


# -- heuristic helpers ---------------------------------------------------


def fixed_space_rows(action: GroupAction):
    """Saturated span of the common fixed vectors of all generators.

    Best-effort: the kernel is certified only modulo p^N.  Useful as a
    seed for invariant chains; a stratification built from it still has
    to pass certification.
    """
    d = action.d
    wide = [[x for delta in action.deltas for x in delta[i]] for i in range(d)]
    exps, _, U, _ = smith_rows(wide, action.p, action.N, want_left=True)
    rank = len(exps)
    rows = [U[k] for k in range(rank, d)]
    ech, _ = _span_echelon(rows, action.p, action.N) if rows else ([], [])
    return [tuple(r) for r in ech]
