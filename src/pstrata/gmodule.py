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
"""

from __future__ import annotations

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

    log_indices and cycle are computed on first use and kept.
    """

    ambient: Lattice
    action: GroupAction
    terms: tuple
    profiles: tuple
    i_max: int

    @property
    def precision(self) -> int:
        return self.ambient.N

    @cached_property
    def log_indices(self) -> tuple:
        return tuple(sum(prof) for prof in self.profiles)

    @cached_property
    def cycle(self) -> CycleCertificate | None:
        """The first exact p-power repetition of the terms, or None.

        Canonical bases are unique and p^n B_j is canonical with B_j, so
        term_i == p^n term_j iff B_i == p^n B_j, entry by entry.  Then the
        profiles shift by n: the elementary divisors of p^n B_j are p^n
        times those of B_j.  So a hit lies in one bucket of terms with
        equal normalized profile (profile minus its first entry), and only
        the bases within a bucket are compared.  The first entry u_i is the
        content depth: the least elementary divisor d_1 of a matrix is the
        gcd of its entries, so p^u_i is the gcd of B_i's, and n = u_i - u_j.
        The terms descend, so n >= 0.  For each term the earliest such j
        is taken, and a hit (j, j+m) with n <= m is the certificate
        term(j + m) == p^n term(j) itself; the tests re-check it.
        """
        buckets: dict = {}
        for i, (term, prof) in enumerate(zip(self.terms, self.profiles)):
            u = prof[0]
            bucket = buckets.setdefault(tuple(x - u for x in prof), [])
            for j in bucket:
                n = u - self.profiles[j][0]
                f = term.p**n
                if all(f * x == y for rj, ri in zip(self.terms[j].basis, term.basis)
                       for x, y in zip(rj, ri)):
                    m = i - j
                    if n <= m:
                        return CycleCertificate(j=j, m=m, n=n)
                    break
            else:
                bucket.append(i)
        return None


def lower_p_series(L: Lattice, action: GroupAction, i_max: int) -> SeriesTrace:
    """Terms 0..i_max of the lower p-series of Z_p^d under the action.

    L must be Z_p^d (ValueError otherwise; `restrict_action` moves another
    invariant start there).  Requires N >= i_max + 2 so every term stays
    representable; each term is invariant and lies between p times the
    previous term and the previous term (module docstring).  Each step
    asserts the trivial index bound log_p |L : term_i| >= i; a violation
    means the group is not pro-p and raises PstrataError with the index.
    """
    _check_context(L, action)
    if L.log_det:
        raise ValueError("the series starts at Z_p^d; move another start there by restrict_action")
    if L.N < i_max + 2:
        raise PrecisionExhausted(
            f"precision {L.N} cannot certify {i_max} steps; need at least {i_max + 2}"
        )
    terms = []
    profiles = []
    cur = L
    for i in range(i_max + 1):
        if i:
            cur = _step(cur, action)
        prof = divisor_profile(cur)
        # the Smith exponents of the term's own basis: the last is its lower level
        cur.__dict__["lower_level"] = prof[-1]
        if sum(prof) < i:
            raise PstrataError(
                f"series index grew too slowly at step {i}; the action is not pro-p"
            )
        terms.append(cur)
        profiles.append(prof)
    return SeriesTrace(
        ambient=L,
        action=action,
        terms=tuple(terms),
        profiles=tuple(profiles),
        i_max=i_max,
    )


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
    new_N = action.N - sub.lower_level
    if new_N < 1:
        raise PrecisionExhausted("no digits left after dividing out the sublattice basis")
    return GroupAction.build(action.p, new_N, grids)

