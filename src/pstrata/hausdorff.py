"""Hausdorff dimensions of closed subgroups against a stratification.

In the split model the metric is controlled by the rate vector: the
coordinate along the k-th frame vector shrinks like p^(-i*rate_k) at
filtration depth i.  A closed subgroup generated by finitely many rows has
a well defined box dimension read off from the rightmost nonzero
coordinate of each row of an echelon basis (rates ascend left to right, so
the rightmost coordinate is the one that dominates the depth at which a
row enters the filtration).

hdim_exact evaluates the closed formula sum of pivot rates over the total
mass.  hdim_numeric forgets the model and measures the same quantity from
the computed series itself as index quotients, giving an independent
cross-check.  It inserts the subgroup's rows into the triangular basis of
each series term (`padic.hermite_insert`) rather than reducing the whole
stack again, and reads the index of the term in the join off the pivot
exponents.  The terms descend, so the joins do too, and each contains
H + p^N Z_p^d.  One Hermite form of H bounds the index of H + p^N Z_p^d
from above; once a join's index reaches that bound, every later join is
the same lattice and no further insertion is made.  When that form has
only unit pivots (H + p^N Z_p^d is saturated, r pivots) and the series
has a window period, term(i + m) = term(i) D for j <= i <= i_max - m
with D the diagonal matrix of the p^shift, and each of those unit-pivot
echelon rows lies in one shift class (every nonzero entry has the shift
of the row's pivot column; each pivot column is then a unit vector, so
the span splits along the classes), the numerator grows by exactly the
sum of the pivots' shifts per period, so only terms 1 .. j + m - 1 are
inserted.  The window period joins each block's hit, or the period of
the stepped terms of a block that never hits; D need not commute with
the action.  A scalar cycle is the case of one class, where the growth
is n r.  Any other H, or a series with no window period, inserts as
before.  The quotients, the tolerance test and the exact dimension are
kept in integers, and a Fraction is built only for a value returned:
one per distinct quotient.  Extra weights account for direct factors
carrying mass but no lattice coordinates (they enlarge the denominator,
and enter subset sums in the spectrum).  Rows, frame and series share
one coordinate system, that of the series' start Z_p^d.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import EnumerationTooLarge, PrecisionExhausted, RankDeficient
from .gmodule import SeriesTrace
from .padic import (
    _freeze,
    hermite_insert,
    hermite_rows,
    int_valuation,
    mat_mul,
    unimodular_inverse,
)
from .strata import RateVector, Stratification

__all__ = [
    "SubgroupSpec",
    "DimensionReport",
    "echelon_pivots",
    "hdim_exact",
    "hdim_numeric",
    "dimension_report",
    "spectrum",
]


@dataclass(frozen=True)
class SubgroupSpec:
    """Generators of a closed subgroup, as rows in frame coordinates.

    An empty row tuple names the trivial subgroup (dimension 0).
    """

    p: int
    N: int
    rows: tuple

    def __post_init__(self):
        frozen = _freeze(self.rows)
        if frozen and len({len(r) for r in frozen}) != 1:
            raise ValueError("generator rows must share one length")
        object.__setattr__(self, "rows", frozen)

    @classmethod
    def from_ambient(cls, p: int, N: int, rows, strat: Stratification) -> "SubgroupSpec":
        """Convert ambient row vectors into the coordinates of a frame."""
        inv = unimodular_inverse(strat.frame, p, N)
        return cls(p, N, tuple(map(tuple, mat_mul(rows, inv, p**N))))

    def ambient_rows(self, strat: Stratification) -> list:
        return mat_mul(self.rows, strat.frame, self.p**self.N)


@dataclass(frozen=True)
class DimensionReport:
    """Exact dimension, its pivot set, and the numeric cross-check."""

    exact: Fraction
    pivots: tuple
    quotients: tuple
    strong: bool


def echelon_pivots(spec: SubgroupSpec) -> tuple:
    """Strictly increasing rightmost-pivot indices of the subgroup's rows.

    The rows are residues mod p^N, and a residue does not fix its lift:
    (1, 0) has its rightmost pivot at 0, its lift (1, p^N) at 1.  The
    pivots are read off `hermite_rows` of the column-reversed rows, column
    j mapped back to d - 1 - j: rows R_k, reached by invertible row
    operations mod p^N, each ending in an exact power p^a_k at its pivot
    with exact zeros after it.  They are the rightmost pivots of the
    Z_p-span of the R_k as written; a lift can only move a row's pivot to
    the right, onto an entry that is 0 mod p^N.

    Below full rank that form depends on the row order (`padic`), and so
    can its pivots: at p = 2, N = 6 the rows (3,4,-2,4,12), (0,1,0,0,2),
    (2,4,4,-8,2) give (1,3,4) with exponents (1,2,0) in some orders and
    (2,3,4) with exponents (1,2,N - 1) in the others (at N = 6, 9, 12 and
    30 alike).  So the pivots are certified only when the order gives a
    pivot to every row and sum(a_k) < N, and the tests check that every
    order meeting that rule gives the same pivots.  The rows are tried in
    their given order and then in each cyclic rotation of it; the first
    that meets the rule gives the pivots, which are therefore those of any
    certifying order.

    When none does, the error raised does not depend on the order: the
    rows as given are dependent, RankDeficient, when their exact rank over
    Q (`_rank_over_q`) is below their number, and otherwise
    PrecisionExhausted is raised; a larger N may certify them.  A Smith
    form mod p^N cannot tell a divisor that is 0 from one that is only
    >= p^N, so it does not decide this.  The Smith rank mod p^N is at most
    the number of pivots of any echelon form, and a certifying order has
    sum(a_k) < N and so full Smith rank; an order with fewer pivots than
    rows therefore ends the search.  Rows that some order certifies are
    independent over Z_p, hence over Q, so the exact rank is taken only
    on refusal.
    """
    p, N = spec.p, spec.N
    reversed_rows = [row[::-1] for row in spec.rows]
    for r in range(max(len(reversed_rows), 1)):
        red, piv, _ = hermite_rows(reversed_rows[r:] + reversed_rows[:r], p, N)
        if len(piv) < len(reversed_rows):
            break
        if sum(int_valuation(red[k][c], p, N) for k, c in enumerate(piv)) < N:
            d = len(reversed_rows[0]) if reversed_rows else 0
            return tuple(sorted(d - 1 - c for c in piv))
    if _rank_over_q(spec.rows) < len(spec.rows):
        raise RankDeficient("generator rows are dependent over Q")
    raise PrecisionExhausted(
        f"the pivot exponents of the generator rows reach the precision {N}; "
        "their pivots are not certified"
    )


def _rank_over_q(rows) -> int:
    """The rank over Q of integer rows, by fraction-free (Bareiss) elimination.

    After k pivots every remaining entry is, up to sign, a (k + 1)-minor
    of the rows, so the division by the last pivot, a k-minor, is exact.
    """
    a = [list(row) for row in rows]
    rank, prev = 0, 1
    for c in range(len(a[0]) if a else 0):
        r = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if r is None:
            continue
        a[rank], a[r] = a[r], a[rank]
        top = a[rank]
        for k in range(rank + 1, len(a)):
            a[k] = [(top[c] * x - a[k][c] * y) // prev for x, y in zip(a[k], top)]
        prev = top[c]
        rank += 1
    return rank


def hdim_exact(H: SubgroupSpec, strat: Stratification, extra_weights=()) -> Fraction:
    """Dimension of the subgroup in the split model, as an exact fraction.

    Each echelon pivot contributes its stratum rate to the numerator; the
    denominator is the total rate mass including any extra weights from
    factors outside the lattice.  Rows whose length is not that of the
    frame raise ValueError; the trivial subgroup, no rows, has dimension 0.
    """
    return _pivot_dimension(H, strat, extra_weights)[1]


def _pivot_dimension(H: SubgroupSpec, strat: Stratification, extra_weights):
    """The echelon pivots of H and the dimension they give.

    The rates and extra weights are summed as integers on the scale of
    the lcm of their denominators, and one Fraction is built.
    """
    rates = strat.rates.rates
    if H.rows and len(H.rows[0]) != len(rates):
        raise ValueError(f"subgroup rows have length {len(H.rows[0])}, the frame {len(rates)}")
    pivots = echelon_pivots(H)
    weights = rates + tuple(Fraction(w) for w in extra_weights)
    if any(w < 0 for w in weights[len(rates):]):
        raise ValueError("extra weights must be nonnegative")
    scale = math.lcm(*(w.denominator for w in weights))
    scaled = [w.numerator * (scale // w.denominator) for w in weights]
    return pivots, Fraction(sum(scaled[j] for j in pivots), sum(scaled))


def hdim_numeric(H: SubgroupSpec, trace: SeriesTrace, strat: Stratification,
                 tolerance=Fraction(1, 100)):
    """Index quotients log|H + term_i : term_i| / log|L : term_i|.

    Works on the computed series directly, with the subgroup moved to
    ambient coordinates through the frame; no model term is involved.  The
    strong flag records whether the quotients settle: spread over the last
    third of the window at most the tolerance.  The spread is compared with
    the tolerance's numerator and denominator by cross-multiplication, and
    equal quotients are one Fraction, built once per call from the pair
    reduced by its gcd.

    The subgroup's rows are inserted into the triangular basis of term_i
    (`hermite_insert`).  Let J_i be the span of term_i and H plus p^N Z_p^d;
    J_i contains term_i by construction.  Only invertible row operations
    mod p^N are applied to [term_i; H], so the triangular rows T returned,
    with pivot exponents e_k, span J_i together with p^N Z_p^d.  When term_i
    has lower level l <= N - 2, p^N Z_p^d = p^(N-l) p^l Z_p^d lies in
    p^2 J_i, so J_i = span(T) + pJ_i and span(T) = J_i by Nakayama's lemma.
    Hence sum(e_k) = log|Z_p^d : J_i|, and the numerator log|J_i : term_i|
    is log_det(term_i) - sum(e_k).  So each term inserted is guarded first
    (`Lattice.guard`): for a term of `lower_p_series` that reads the level
    the series cached, and a hand-built trace whose term fails it raises
    PrecisionExhausted.

    Stationary join.  Let F be the sum of the pivot exponents of
    `hermite_rows(H)`, plus N for each column without a pivot.  Those rows,
    with p^N e_j for each column without a pivot, are a triangular basis of
    a sublattice of Hbar = H + p^N Z_p^d, so F >= log|Z_p^d : Hbar|.  The
    terms descend (lower_p_series builds each inside the one before; a
    hand-built SeriesTrace must descend too), so for j > i, Hbar lies in
    J_j and J_j in J_i.  Suppose term_i passed the guard and sum(e_k) = F.
    Then log|Z_p^d : J_i| = F >= log|Z_p^d : Hbar| while J_i contains Hbar,
    so the two are equal, and so is every later J_j.  From there each
    numerator is log_det(term_j) - F, with no insertion and no guard.
    Hbar = J_i then contains term_i, hence p^(N-2) Z_p^d, so the exit fires
    only for a full-rank H.

    Window period.  Call H saturated when every pivot of `hermite_rows(H)`
    is a unit, that is F = N (d - r) with r pivots.  Then Hbar = S + p^N C,
    a direct sum, where S is the span of those rows and C that of the e_c
    over the columns c without a pivot: the rows and these e_c are a
    triangular basis of Z_p^d with unit pivots, so S is a direct summand,
    S = S_Q cap Z_p^d for its span S_Q over Q_p.  Let the trace have the
    window period (j, m, shifts) (`SeriesTrace.window_period`, read off
    its coordinate blocks' records, whose terms all pass the guard; a
    hand-built trace has none): term_(i+m) = term_i D for every
    j <= i <= i_max - m, with D the diagonal matrix of the p^shifts[k].
    The lemma below reads one pair of terms at a time and never the
    action, so it needs the identity on that range only, and D need not
    commute with the action.  For each shift value t let V_t be the span
    of the coordinates of shift t, and r_t the number of pivots in columns
    of shift t.  Lemma: if every nonzero entry of each pivot row lies in
    the shift class of that row's pivot column, then numerator_(i+m) =
    numerator_i + sum_t t r_t for every j <= i <= i_max - m, and sum_t t r_t
    is the sum of the pivots' shifts.  Proof, for a term T = term_i, whose
    level and that of T D are at most N - 2:
    1. T contains p^(N-2) Z_p^d, hence p^N C, so the modular law gives
       Hbar cap T = (S cap T) + p^N C; as S cap p^N C = 0, the numerator
       log|Hbar : Hbar cap T| is log|S : S cap T|.
    2. Every pivot is 1, so after `_reduce_above` each pivot column is
       the unit vector of its row, and x in S_Q is the combination of the
       rows whose coefficients are x's entries in the pivot columns.  If x
       lies in V_t, those entries vanish outside class t, so x lies in the
       span of the r_t rows of pivot shift t; these lie in V_t by the
       support condition.  So S_Q is the direct sum of the S_Q cap V_t, of
       dimensions r_t.  D is p^t on V_t, so S_Q D = S_Q, and the valuation
       of det(D on S_Q) is sum_t t r_t.
    3. D has integer entries, so S D lies in S_Q cap Z_p^d = S; and x lies
       in S cap T D iff x D^-1 lies in S_Q cap T = S cap T (T lies in
       Z_p^d).  So S cap T D = (S cap T) D.
    4. Hence |S : S cap T D| = |S : S D| |S D : (S cap T) D| =
       p^(sum_t t r_t) |S : S cap T|.
    The support condition is the rank test that S_Q splits along the
    classes: if a row of pivot shift t' has a nonzero entry of shift
    t != t', its restriction to V_t is zero in the r_t pivot columns of
    shift t but not zero, so the rows restricted to V_t have rank over Q
    above r_t and these ranks sum to more than r.  Under a scalar cycle
    (j, m, n) there is one class, r_n = r, and the increment is n r.  So
    numerator_i = numerator_(i-m) + sum_t t r_t for every
    j + m <= i <= i_max, with numerator_0 = 0 as every series starts at
    Z_p^d.  Only terms 1 .. j + m - 1 are read and inserted, so the trace
    builds no term past j + m (`gmodule`).  An H that is not saturated or
    whose pivot rows cross the classes, or a trace with no window period,
    hand-built ones included, goes through the insertion loop above,
    stationary exit and guard included.
    """
    L = trace.ambient
    p, N, d = L.p, L.N, L.d
    amb = H.ambient_rows(strat)  # residues mod p^N, as hermite_insert needs
    red, piv, _ = hermite_rows(amb, p, N)
    r = len(piv)
    bound = sum(int_valuation(red[k][c], p, N) for k, c in enumerate(piv)) + N * (d - r)
    stop, m, step = trace.i_max + 1, 0, 0  # stop: the first numerator read off the period
    if bound == N * (d - r) and trace.window_period is not None:
        j, m, shifts = trace.window_period
        if all({s for s, x in zip(shifts, row) if x} == {shifts[k]} for row, k in zip(red, piv)):
            stop, step = j + m, sum(shifts[k] for k in piv)
    numerators = [0]
    joined = None
    for i in range(1, stop):
        lam = trace.terms[i]
        if joined != bound:
            lam.guard()
            _, exps = hermite_insert(lam.basis, amb, p, N, lam.diag_exponents)
            joined = sum(exps)
        numerators.append(lam.log_det - joined)
    for i in range(stop, trace.i_max + 1):
        numerators.append(numerators[i - m] + step)
    pairs = list(zip(numerators[1:], trace.log_indices[1:]))
    keys = [(num // g, den // g) for num, den in pairs for g in (math.gcd(num, den),)]
    values = {key: Fraction(*key) for key in set(keys)}
    quotients = [values[key] for key in keys]
    # the tail's extremes by cross-multiplication: every log index is positive
    tail = pairs[-max(1, len(pairs) // 3):]
    hn, hd = ln, ld = max(tail[:1])  # an empty window raises as max(tail) did
    for num, den in tail:
        if num * hd > hn * den:
            hn, hd = num, den
        elif num * ld < ln * den:
            ln, ld = num, den
    tol = Fraction(tolerance)
    strong = (hn * ld - ln * hd) * tol.denominator <= tol.numerator * hd * ld
    return quotients, strong


def dimension_report(H: SubgroupSpec, trace: SeriesTrace, strat: Stratification,
                     extra_weights=(), tolerance=Fraction(1, 100)) -> DimensionReport:
    """Exact dimension with its numeric cross-check bundled together.

    The quotients ignore extra weights (they measure the lattice part
    only); with extra weights present the exact value is scaled down by
    the heavier denominator and the quotients converge to the lattice-only
    dimension instead.
    """
    pivots, exact = _pivot_dimension(H, strat, extra_weights)
    quotients, strong = hdim_numeric(H, trace, strat, tolerance)
    return DimensionReport(exact=exact, pivots=pivots, quotients=tuple(quotients),
                           strong=strong)


def spectrum(rates: RateVector, extra_weights=()) -> tuple:
    """All dimensions of straight subgroups: subset sums over total mass.

    Every subset of the weighted coordinates (stratum rates plus extra
    weights) is a pivot set of some closed subgroup, so the spectrum is
    the set of subset sums divided by the total.  A sum only depends on
    how many copies of each distinct weight it takes, so the sums are
    enumerated as multiplicity choices, in integers s scaled by the common
    denominator, and the total is the integer den > 0 on the same scale.
    More than 1,500,000 choices (the product of multiplicity plus one)
    raise EnumerationTooLarge.  The result contains 0 and 1.

    The integers are sorted, not the fractions: s -> s / den is increasing
    for den > 0, so the tuple of Fraction(s, den) is already in order.  The
    cost is set operations over at most the capped number of sums, plus one
    Fraction per value.  The sums are kept as a set, not as a bitset over
    0 .. den: den is not bounded by the cap (two extra weights 1/1000003
    and 1/999983 are 4 choices and den near 10^12).
    """
    weights = list(rates.rates) + [Fraction(w) for w in extra_weights]
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    total = sum(weights, Fraction(0))  # positive: a RateVector holds a rate, each >= 1/d
    counts = Counter(weights)
    choices = math.prod(c + 1 for c in counts.values())
    limit = 1_500_000
    if choices > limit:
        raise EnumerationTooLarge(
            f"{choices} multiplicity choices over {len(counts)} distinct weights "
            f"exceed the limit of {limit}"
        )
    scale = math.lcm(*(w.denominator for w in counts))
    sums = {0}
    for w, c in counts.items():
        step = w.numerator * (scale // w.denominator)
        sums = sums.union(*(map((k * step).__add__, sums) for k in range(1, c + 1)))
    den = total.numerator * (scale // total.denominator)
    return tuple(Fraction(s, den) for s in sorted(sums))
