"""Pro-p actions on lattices and the lower p-series.

A GroupAction holds the topological generators of a pro-p subgroup of
GL_d(Z_p) as d x d integer grids reduced mod p^N, acting on row vectors
from the right.  Every construction checks that each generator is
unipotent mod p (g - 1 is nilpotent mod p), the fail-fast test for the
action being pro-p; it makes g invertible over Z_p, as det g = 1 mod p.

The series step sends an invariant lattice M to M' = p*M + sum_t M*(g_t - 1).
That single pass already equals M times the p-augmentation ideal: the ideal
is the maximal ideal of the completed group algebra, so any term the pass
misses lies in (result)*(ideal) and Nakayama closes the gap.  M' contains
pM, a summand, and lies in M, as every summand does; so M'(g_s - 1) lies in
M(g_s - 1), which lies in M', and M' is invariant.  Neither invertibility
nor the precision enters (p^N Z_p^d is invariant), so none of this is
re-checked.

The step runs one product: the basis of M times [d_1 | ... | d_T], the
deltas g_t - 1 side by side, prepared once per action.  Each product row
is cut into T blocks of width d and the blocks that vanish mod p^N are
dropped.  The images left are inserted (`padic.hermite_insert`) into the
canonical basis of pM, which is p times that of M with exponents e_k + 1,
and the entries above the pivots are reduced as `hermite_rows` ends.  This
is exactly the canonical basis of M'.  The step first guards M, so
lower_level(M) <= N - 2: then p^(N-1) Z_p^d lies in pM, inside M', and
p^N Z_p^d lies in pM'.  The insertion gives triangular rows T whose span
plus p^N Z_p^d is M', hence span(T) + pM' = M' and Nakayama gives
span(T) = M'.  A full-rank canonical basis is unique, so every term is the
one the Hermite form of the full stack gives, zero images included.

Every series starts at Z_p^d, which every generator, an integer matrix,
leaves invariant.  A start L other than Z_p^d is a change of coordinates:
`restrict_action` rewrites the action in L's basis, where L is Z_p^d, at
N - lower_level(L) digits.  The profile of a term is the list of
elementary divisors of its own basis, read off the diagonal when the basis
splits as D U (`lattice.divisor_profile`), and its last exponent is by
definition the term's lower level; the series caches it, so the next
step's guard costs nothing.  That guard always holds: term i contains
p^i Z_p^d, so its level is at most i <= N - 2.  The series checks its
input only: the standard start, the precision, and index growth of a
digit per step, which fails when unipotent generators generate a group
that is not pro-p.

Each coordinate block of the action (below) steps until its own first
cycle certificate term(j + m) == p^n term(j) (`_block_series`, one
`_cycle_hit` bucket check per term).  From it on the block repeats:
term i = p^n term(i - m).  The step is Z_p-linear, step(p^n M) =
p^n step(M), so term(i + m) == p^n term(i) for every i >= j by
induction.  The copy's basis is p^n B, which is canonical whenever B is:
it stays upper triangular, its pivots are p^(e_k + n), and an entry x in
[0, p^e) above a pivot becomes p^n x in [0, p^(e + n)); a canonical basis
is unique, so p^n B is the basis a step would have given.  Term i
contains p^i Z_p^d, so its pivots, which are at most p^(lower level),
stay at most p^i < p^N.  The elementary divisors of p^n B are p^n times
those of B, so the copy's diagonal exponents, profile and lower level are
those of term(i - m) plus n.

An action whose deltas couple no two of some contiguous coordinate
intervals I_1, ..., I_k (`GroupAction._blocks`, the finest such split; one
interval when the action does not split) has a series by blocks.  Let V_s
be the coordinates in I_s; every delta maps each V_s into itself, so each
V_s is invariant.
- Blockwise steps.  For M = M_1 + ... + M_k with M_s in V_s, the image
  M(g_t - 1) is the set of sums of x_s (g_t - 1) over independent x_s in
  M_s, which is the direct sum of the M_s (g_t - 1); and pM is the sum of
  the p M_s.  So step(M_1 + ... + M_k) is the direct sum of the blocks'
  steps, each under the diagonal blocks of the generators (a generator
  whose block delta is 0 adds nothing).  Z_p^d is the sum of the Z_p^(I_s),
  so by induction term i is the direct sum of the blocks' terms i.
- The assembly is the canonical basis.  Stack the blocks' canonical bases,
  each row padded with zeros outside its interval.  The stack is upper
  triangular, its pivots are the blocks' p-powers, and every entry above
  a pivot is either the block's own, already reduced, or a 0 of another
  block's row, which is reduced too.  It spans term i, and a full-rank
  canonical basis is unique, so it is term i's basis: the one the whole
  step would have given.  Its diagonal exponents are the blocks' in turn.
- The profile is the merged block profiles.  The Smith forms of the
  blocks assemble into a Smith form of the block-diagonal basis, so its
  elementary divisors are the blocks' together.  Term i contains
  p^i Z_p^d, so every exponent is below N and certified; sorted, they are
  `divisor_profile` of term i, and the last is its lower level.
- The window period joins the blocks' periods.  Each block steps from
  its own Z_p^(I_s) until its first hit (j_s, m_s, n_s) or i_max, and
  gives its period (j_s, m_s, shifts_s): (j_s, m_s, (n_s,) * d_s) when it
  hit, else the period of its stepped terms B_0 .. B_(i_max), the least
  j_s + m_s (least m_s among equals) with B_(i+m_s) == B_i D_s entry by
  entry for every i in [j_s, i_max - m_s], D_s the diagonal matrix of the
  p^s_r, s = e(i_max) - e(i_max - m_s) its pivot exponents' growth over
  the last m_s steps (`_stepped_period`).  Each s_r >= 0: e_r is the
  valuation of the projection onto coordinate r of the term's meet with
  the coordinates r, r + 1, .., and that meet shrinks as the terms
  descend.  Joined (`_join`: j = max j_s, m = lcm m_s, block s's shifts
  times m/m_s), they give the window period (j, m, shifts): term(i + m)
  == term(i) D for every j <= i <= i_max - m, D the diagonal matrix of
  the p^shifts, or None when j + m > i_max.  Soundness: equal bases span
  equal lattices, so block s's term i + m_s is its term i times D_s for
  j_s <= i <= i_max - m_s, by the copy above when it hit; chained m/m_s
  times from any i in [j, i_max - m] it stays in that range, and the
  blocks' terms sum to term i.  Completeness: B D_s is canonical with B
  (its pivots are p^(e_r + s_r), and an entry x in [0, p^e_c) above a
  pivot becomes x p^(s_c) in [0, p^(e_c + s_c))), and a canonical basis
  is unique, so when term_s(i + m_s) = term_s(i) D for a diagonal D of
  p-powers at every i in the range, the check finds it; at
  i = i_max - m_s the pivots pin D = D_s.  The period reads the blocks'
  records only, and assembles no term.
  When every block hit, the join holds for every i >= j: from j_s on
  block s repeats with period m_s and shift n_s, and m_s divides m, so
  term_s(i + m) = p^(n_s m/m_s) term_s(i) for i >= j, and the blocks'
  terms sum to term i.  Every shift is then at most m, as n_s <= m_s.
  Otherwise nothing is said past i_max, and D need not commute with the
  action, so `cycle` reads the period only when every block hit;
  `hausdorff.hdim_numeric`, whose indices stop at i_max, reads it on any
  trace.
  Lemma: the whole series has a cycle ending by term i_max iff every
  block hit and the window period's shifts are all equal; its first
  cycle is then (j, m, n), n the common shift.  Proof: a block's terms
  before j_s + m_s are pairwise non-proportional, as its first hit is the
  least such pair; from j_s on it repeats with period m_s, so a later
  term is p^(k n_s) times one of its terms j_s .. j_s + m_s - 1.  Hence
  term_s(i) = p^n term_s(j) with j < i holds iff j >= j_s, m_s divides
  i - j and n = (i - j) n_s/m_s.  Term i of the sum is p^n times term j
  iff that holds in every block with the same n, that is iff the rates
  n_s/m_s are equal (so are the shifts), j >= max j_s and lcm m_s
  divides i - j; the least such i is max j_s + lcm m_s, and a block that
  did not hit by i_max has no such pair there.
- Terms on first index.  A one-block action's stepped terms and profiles
  are the series' own.  Every other term i is assembled on its first
  index and kept (`_Terms`) from its parts: block s's term i, or, past the
  block's own hit, p^(k n_s) times its term i - k m_s, which lies in
  j_s .. j_s + m_s - 1 (the copy above), so no term reads another.  Each
  part is canonical by the lemma for p^n B, so the assembly is the term's
  canonical basis, and a term built late is the one an eager build gives.
  Every other profile is the parts', shifted blockwise, and is set at
  once.  The index growth check reads every profile of the sum, so a
  stalled block passes when the sum grows a digit per step.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import NotInvariant, PrecisionExhausted, PstrataError
from .lattice import Lattice, divisor_profile
from .padic import (
    _freeze, _is_prime, _reduce_above, hermite_insert, identity, mat_mul,
    mul_entries, row_entries,
)

__all__ = [
    "CycleCertificate",
    "GroupAction",
    "SeriesTrace",
    "check_invariance",
    "lower_p_series",
    "restrict_action",
]


def _is_unipotent_mod_p(delta, p: int) -> bool:
    """True iff delta = g - 1 is nilpotent mod p."""
    B = [[x % p for x in row] for row in delta]
    k = 1
    while k < len(B):
        B = mat_mul(B, B, p)
        k *= 2
    return all(x == 0 for row in B for x in row)


def _grids(generators) -> tuple:
    """Generator matrices as tuples of integer rows; anything else is refused."""
    try:
        return tuple(_freeze(g) for g in generators)
    except TypeError:
        raise ValueError("generators must be a list of integer matrices") from None


@dataclass(frozen=True)
class GroupAction:
    """Topological generators of a pro-p group acting on Z_p^d row vectors.

    generators and deltas (each g - 1) are integer grids with entries in [0, p^N);
    delta_entries is the d x dT matrix [delta_1 | ... | delta_T] prepared as
    a right factor (`row_entries`): one product gives every image of a row.
    """

    p: int
    N: int
    d: int
    generators: tuple
    deltas: tuple = field(init=False, compare=False, repr=False)
    delta_entries: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        p, N, d = self.p, self.N, self.d
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if N < 1:
            raise ValueError(f"precision must be >= 1, got {N}")
        pN = p**N
        gens = tuple(tuple(tuple(x % pN for x in row) for row in g)
                     for g in _grids(self.generators))
        if not gens:
            raise ValueError("an action needs at least one generator")
        if d < 1 or any(len(g) != d or any(len(row) != d for row in g) for g in gens):
            raise ValueError("generators must be square matrices of one dimension")
        deltas = tuple(tuple(tuple((x - e) % pN for x, e in zip(row, erow))
                             for row, erow in zip(g, identity(d))) for g in gens)
        if not all(_is_unipotent_mod_p(delta, p) for delta in deltas):
            raise ValueError("generator is not unipotent mod p; the action would not be pro-p")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "delta_entries",
                           row_entries([sum(rows, ()) for rows in zip(*deltas)]))

    @cached_property
    def _blocks(self) -> tuple:
        """The finest contiguous intervals no delta couples, as (start, action).

        ((0, self),) when the action has one block.  Computed on the first
        series, not at construction.  Interval k ends where no nonzero delta
        entry (i, j) has min(i, j) <= k < max(i, j).  A block's action holds
        the diagonal blocks of the generators whose delta is not zero there,
        or the identity when none is.
        """
        d = self.d
        reach = list(range(d))
        for i, entries in enumerate(self.delta_entries[1]):
            for c, _ in entries:
                lo, hi = sorted((i, c % d))
                reach[lo] = max(reach[lo], hi)
        cuts, end = [0], 0
        for k in range(d):
            end = max(end, reach[k])
            if end == k:
                cuts.append(k + 1)
        if len(cuts) == 2:
            return ((0, self),)
        blocks = []
        for a, b in zip(cuts, cuts[1:]):
            grids = tuple(tuple(row[a:b] for row in g[a:b])
                          for g, delta in zip(self.generators, self.deltas)
                          if any(any(row[a:b]) for row in delta[a:b]))
            blocks.append((a, GroupAction(self.p, self.N, b - a,
                                          grids or (_freeze(identity(b - a)),))))
        return tuple(blocks)

    @classmethod
    def build(cls, p: int, N: int, generator_grids) -> "GroupAction":
        """The action of the given grids; d is read off the first one."""
        gens = _grids(generator_grids)
        return cls(p, N, len(gens[0]) if gens else 0, gens)


def _check_context(M: Lattice, action: GroupAction) -> None:
    if (M.p, M.N, M.d) != (action.p, action.N, action.d):
        raise ValueError("lattice and action contexts differ")


def check_invariance(M: Lattice, action: GroupAction) -> bool:
    """True iff M * g == M for every generator g.

    Containment of the basis images suffices for equality: each generator
    is invertible over Z_p, so M*g and M have equal index in the ambient.
    """
    _check_context(M, action)
    pN = M.p**M.N
    return all(
        M.solve(img) is not None
        for g in action.generators
        for img in mat_mul(M.basis, g, pN)
    )


def _step(M: Lattice, action: GroupAction) -> Lattice:
    """p*M + sum_t M*(g_t - 1): invariant and between pM and M if M is invariant.

    Guards M, then inserts the nonzero images into the canonical basis of
    pM and reduces above the pivots (module docstring).
    """
    M.guard()
    p, N, d = M.p, M.N, M.d
    pN = p**N
    prod = mul_entries(M.basis, action.delta_entries, pN)
    images = [blk for t in range(0, len(action.deltas) * d, d)
              for row in prod if any(blk := row[t:t + d])]
    tri, exps = hermite_insert([[p * x for x in row] for row in M.basis], images, p, N,
                               [e + 1 for e in M.diag_exponents])
    _reduce_above(tri, range(d), range(d), pN)
    lat = Lattice._canonical(p, N, d, tuple(map(tuple, tri)))
    lat.__dict__["diag_exponents"] = tuple(exps)  # the insertion's pivot exponents
    return lat


@dataclass(frozen=True)
class CycleCertificate:
    """Exact eventual self-similarity: term(j + m) == p^n * term(j).

    The step is Z_p-linear, so the identity propagates to every index at or
    beyond j and pins the growth rate of every coordinate to n/m.
    """

    j: int
    m: int
    n: int

    @property
    def rate(self) -> Fraction:
        return Fraction(self.n, self.m)


@dataclass(frozen=True)
class SeriesTrace:
    """The computed prefix of a lower p-series with divisor bookkeeping.

    log_indices is computed on first use and kept.  blocks holds one record
    (start, terms, profiles, hit) per coordinate block of the action: the
    block's coordinates begin at start, and its terms and profiles run from
    its own Z_p^d_s to its first cycle hit, the certificate
    term_s(j_s + m_s) == p^n_s term_s(j_s), or to i_max, where hit is None.
    Only `lower_p_series` and the tests' references set it; a trace built by
    hand has (), as if its terms never repeated.  window_period is joined
    from each block's hit or the period of its own stepped terms: the
    series' period (j, m, shifts), term(i + m) == term(i) D for
    j <= i <= i_max - m, with D the diagonal matrix of the p^shifts[r]; it
    holds for every i >= j, with every shift at most m, when every block
    hit; None on a hand-built trace or when no such period fits by i_max.
    cycle is read off it: the series' first certificate term(j + m) ==
    p^n term(j), (j, m, n) when every block hit and every shift is n, None
    otherwise.  Both are kept.
    """

    ambient: Lattice
    action: GroupAction
    terms: Sequence
    profiles: tuple
    i_max: int
    blocks: tuple = field(default=(), repr=False)

    @property
    def precision(self) -> int:
        return self.ambient.N

    @cached_property
    def log_indices(self) -> tuple:
        return tuple(sum(prof) for prof in self.profiles)

    @cached_property
    def window_period(self) -> tuple | None:
        """(j, m, shifts) with term(i + m) == term(i) D for j <= i <= i_max - m, or None.

        A block's hit, or else the period of its own stepped terms
        (`_stepped_period`), joined (`_join`).
        """
        return _join([_stepped_period(terms, self.i_max) if hit is None
                      else (hit.j, hit.m, (hit.n,) * terms[0].d)
                      for _, terms, _, hit in self.blocks], self.i_max)

    @cached_property
    def cycle(self) -> CycleCertificate | None:
        """The window period as the cycle (j, m, n) when every block hit and every shift is n."""
        if None in [hit for *_, hit in self.blocks] or self.window_period is None:
            return None
        j, m, shifts = self.window_period
        return CycleCertificate(j=j, m=m, n=shifts[0]) if len(set(shifts)) == 1 else None


def _cycle_hit(terms, profiles, buckets: dict, i: int) -> CycleCertificate | None:
    """The certificate ending at term i, given the buckets of terms 0..i-1, or None.

    Canonical bases are unique and p^n B_j is canonical with B_j, so
    term_i == p^n term_j iff B_i == p^n B_j, entry by entry.  Then the
    profiles shift by n: the elementary divisors of p^n B_j are p^n times
    those of B_j.  So a hit lies in one bucket of terms with equal
    normalized profile (profile minus its first entry), and only the bases
    within a bucket are compared.  The first entry u_i is the content
    depth: the least elementary divisor d_1 of a matrix is the gcd of its
    entries, so p^u_i is the gcd of B_i's, and n = u_i - u_j.  The terms
    descend, so n >= 0.  And n <= m: every step contains p times its input,
    so term(j + m) = p^n term(j) contains p^m term(j), which has full rank.
    For each term the earliest such j is taken, and a hit (j, j+m) is the
    certificate term(j + m) == p^n term(j) itself; the tests re-check it.
    Term i joins its bucket unless it repeats an earlier term; called for
    i = 0, 1, ... in turn, the first hit is the first certificate of the
    series.
    """
    term, prof = terms[i], profiles[i]
    u = prof[0]
    bucket = buckets.setdefault(tuple([x - u for x in prof]), [])
    for j in bucket:
        n = u - profiles[j][0]
        f = term.p**n
        if all(f * x == y for rj, ri in zip(terms[j].basis, term.basis)
               for x, y in zip(rj, ri)):
            return CycleCertificate(j=j, m=i - j, n=n)
    bucket.append(i)
    return None


def _block_series(act: GroupAction, i_max: int) -> tuple:
    """A block's terms from Z_p^act.d to its first cycle hit or i_max: (terms, profiles, hit)."""
    zero = (0,) * act.d
    cur = Lattice._canonical(act.p, act.N, act.d, _freeze(identity(act.d)))  # Z_p^act.d
    cur.__dict__.update(diag_exponents=zero, lower_level=0)
    terms, profiles, buckets = [cur], [zero], {}
    hit = _cycle_hit(terms, profiles, buckets, 0)  # None: term 0 joins its bucket
    while hit is None and len(terms) <= i_max:
        cur = _step(cur, act)
        prof = divisor_profile(cur)
        # the Smith exponents of the term's own basis: the last is its lower level
        cur.__dict__["lower_level"] = prof[-1]
        terms.append(cur)
        profiles.append(prof)
        hit = _cycle_hit(terms, profiles, buckets, len(terms) - 1)
    return tuple(terms), tuple(profiles), hit


def _join(periods, i_max: int) -> tuple | None:
    """The join (j, m, shifts) of the blocks' periods (j_s, m_s, shifts_s), or None.

    j = max j_s, m = lcm m_s, and block s's shifts are scaled by m/m_s;
    None when there is no block, a block has no period or j + m > i_max
    (module docstring).
    """
    if not periods or None in periods:
        return None
    j = max(q[0] for q in periods)
    m = math.lcm(*(q[1] for q in periods))
    if j + m > i_max:
        return None
    return j, m, tuple(s * (m // m_s) for _, m_s, shifts in periods for s in shifts)


def _stepped_period(terms, i_max: int) -> tuple | None:
    """The window period (j, m, shifts) of a block's terms 0 .. i_max, or None.

    The least j + m (least m among equals) such that B_(i+m) == B_i D
    entry by entry for every i in [j, i_max - m], D the diagonal matrix
    of the p^shifts with shifts = e(i_max) - e(i_max - m) >= 0 (module
    docstring).  Only an m below the best j + m so far can improve on it.
    """
    p, best = terms[0].p, None
    for m in range(1, i_max + 1):
        if best is not None and m >= best[0] + best[1]:
            break
        shifts = tuple([a - b for a, b in zip(terms[i_max].diag_exponents,
                                              terms[i_max - m].diag_exponents)])
        f = [p**s for s in shifts]
        i = i_max - m
        while i >= 0 and all(x * fc == y for row, later in zip(terms[i].basis, terms[i + m].basis)
                             for x, fc, y in zip(row, f, later)):
            i -= 1
        if i < i_max - m and (best is None or i + 1 + m < best[0] + best[1]):
            best = (i + 1, m, shifts)
    return best


def _parts(blocks, i: int) -> list:
    """Term i's parts by block, as (start, block term, its profile, n): p^n times that term.

    Past its prefix, a block's term i is p^(k n_s) times its term
    i - k m_s, which lies in j_s .. j_s + m_s - 1 (module docstring).
    """
    parts = []
    for a, terms, profiles, hit in blocks:
        t, n = i, 0
        if i >= len(terms):
            k = (i - hit.j) // hit.m
            t, n = i - k * hit.m, k * hit.n
        parts.append((a, terms[t], profiles[t], n))
    return parts


def _profile(parts) -> tuple:
    """The profile of the parts' term: the blocks' profiles, each shifted by its n, merged."""
    return tuple(sorted([e + n for _, _, prof, n in parts for e in prof]))


def _assembled(L: Lattice, parts, level: int) -> Lattice:
    """The parts' term, rows p^n B padded with zeros outside each block, pivots and level set."""
    rows, exps = [], []
    for a, src, _, n in parts:
        f = L.p**n
        pad_l, pad_r = (0,) * a, (0,) * (L.d - a - src.d)
        rows += [pad_l + tuple([f * x for x in row]) + pad_r for row in src.basis]
        exps += [e + n for e in src.diag_exponents]
    term = Lattice._canonical(L.p, L.N, L.d, tuple(rows))
    term.__dict__.update(diag_exponents=tuple(exps), lower_level=level)
    return term


class _Terms(Sequence):
    """A series' terms: those held, and each other one assembled on its first index and kept.

    Slices are tuples of terms, and == and hash read the terms as a tuple,
    so a trace stays a value.
    """

    def __init__(self, held: list, L: Lattice, blocks, profiles: tuple):
        self._terms = held + [None] * (len(profiles) - len(held))
        self._L, self._blocks, self._profiles = L, blocks, profiles

    def __len__(self) -> int:
        return len(self._terms)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple([self[k] for k in range(len(self._terms))[i]])
        term = self._terms[i]
        if term is None:
            i %= len(self._terms)
            term = self._terms[i] = _assembled(self._L, _parts(self._blocks, i),
                                               self._profiles[i][-1])
        return term

    def __eq__(self, other):
        return isinstance(other, (tuple, _Terms)) and tuple(self) == tuple(other)

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


def lower_p_series(L: Lattice, action: GroupAction, i_max: int) -> SeriesTrace:
    """Terms 0..i_max of the lower p-series of Z_p^d under the action.

    L must be Z_p^d (ValueError otherwise; `restrict_action` moves another
    invariant start there).  Requires N >= i_max + 2 so every term stays
    representable; each term is invariant and lies between p times the
    previous term and the previous term (module docstring).  Every term
    asserts the trivial index bound log_p |L : term_i| >= i; a violation
    means the group is not pro-p and raises PstrataError with the index.
    Each coordinate block of the action (one when it does not split) steps
    until its own first cycle hit or i_max; the trace keeps those records
    (`SeriesTrace.blocks`), and its window period and cycle are read off
    them.  A one-block action's stepped terms and profiles are the
    series' own; every other profile is read off the blocks at once, and
    every other term is assembled from them on its first index (module
    docstring).
    """
    _check_context(L, action)
    if L.log_det:
        raise ValueError("the series starts at Z_p^d; move another start there by restrict_action")
    if L.N < i_max + 2:
        raise PrecisionExhausted(
            f"precision {L.N} cannot certify {i_max} steps; need at least {i_max + 2}"
        )
    blocks = tuple((a, *_block_series(act, i_max)) for a, act in action._blocks)
    held = list(blocks[0][1]) if len(blocks) == 1 else []  # the one block is the action
    profiles = blocks[0][2][:len(held)] + tuple(
        _profile(_parts(blocks, i)) for i in range(len(held), i_max + 1))
    for i, prof in enumerate(profiles):
        if sum(prof) < i:
            raise PstrataError(
                f"series index grew too slowly at step {i}; the action is not pro-p"
            )
    return SeriesTrace(L, action, _Terms(held, L, blocks, profiles), profiles, i_max, blocks)


def restrict_action(sub: Lattice, action: GroupAction) -> GroupAction:
    """The action conjugated into the basis of an invariant sublattice.

    The returned generators are exact in the coordinates of ``sub`` but the
    conjugation divides by basis pivots, so the certified precision drops
    to N - lower_level(sub).  Solving the images in ``sub`` checks invariance.
    """
    _check_context(sub, action)
    pN = action.p**action.N
    grids = []
    for g in action.generators:
        rows = [sub.solve(img) for img in mat_mul(sub.basis, g, pN)]
        if None in rows:
            raise NotInvariant("restrict_action requires an invariant lattice")
        grids.append(rows)
    # at least 1: a certified divisor exponent, so lower_level, is below N
    return GroupAction.build(action.p, action.N - sub.lower_level, grids)

