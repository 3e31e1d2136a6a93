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

For a standard start (log_det(L) = 0) the profile of a term is the Smith
form of its own basis, and its last exponent is by definition the term's
lower level; the series caches it, so the next step's guard costs nothing.
That guard always holds there: term i contains p^i L = p^i Z_p^d, so its
level is at most i <= N - 2.  Other starts guard each term as it is made
and read the profile in L's coordinates.  The series checks its input
only: an invariant start, the precision guard on every term, and index
growth of a digit per step, which fails when unipotent generators
generate a group that is not pro-p.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from .errors import NotInvariant, PrecisionExhausted, PstrataError
from .lattice import Lattice, divisor_profile
from .padic import (
    _freeze, _is_prime, _reduce_above, hermite_insert, identity, mat_mul, mul_entries, row_entries,
)

__all__ = [
    "GroupAction",
    "SeriesTrace",
    "check_invariance",
    "lower_p_series",
    "restrict_action",
    "trace_to_csv",
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
class SeriesTrace:
    """The computed prefix of a lower p-series with divisor bookkeeping."""

    ambient: Lattice
    action: GroupAction
    terms: tuple
    profiles: tuple
    i_max: int

    @property
    def precision(self) -> int:
        return self.ambient.N

    @property
    def log_indices(self) -> tuple:
        return tuple(sum(prof) for prof in self.profiles)


def lower_p_series(L: Lattice, action: GroupAction, i_max: int) -> SeriesTrace:
    """Terms 0..i_max of the lower p-series of L under the action.

    Requires N >= i_max + 2 so every term stays representable, and an
    invariant L, so that each term is invariant and lies between p times
    the previous term and the previous term (module docstring).  Each step
    asserts the trivial index bound log_p |L : term_i| >= i; a violation
    means the group is not pro-p and raises PstrataError with the index.
    """
    _check_context(L, action)
    if L.N < i_max + 2:
        raise PrecisionExhausted(
            f"precision {L.N} cannot certify {i_max} steps; need at least {i_max + 2}"
        )
    if not check_invariance(L, action):
        raise NotInvariant("series start must be an invariant lattice")
    standard = L.log_det == 0
    terms = []
    profiles = []
    cur = L
    for i in range(i_max + 1):
        if i:
            try:
                cur = _step(cur, action)
                if not standard:
                    cur.guard()
            except PstrataError as err:
                raise type(err)(f"series step {i} failed: {err}") from err
        prof = divisor_profile(cur, L)
        if standard:
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


# -- serialization -----------------------------------------------------


def trace_to_csv(trace: SeriesTrace) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    d = trace.ambient.d
    w.writerow(["i"] + [f"m_{k + 1}" for k in range(d)] + ["log_index"])
    for i, prof in enumerate(trace.profiles):
        w.writerow([i] + list(prof) + [sum(prof)])
    return buf.getvalue()
