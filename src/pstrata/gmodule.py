"""Pro-p actions on lattices and the lower p-series.

A GroupAction holds the topological generators of a pro-p subgroup of
GL_d(Z_p) as matrices acting on row vectors from the right.  Construction
verifies that every generator is invertible and unipotent mod p (some power
of the reduction of g - 1 vanishes), which is the fail-fast test for the
action being pro-p on the ambient lattice.

The series step sends an invariant lattice M to p*M + sum_t M*(g_t - 1).
That single pass already equals M times the p-augmentation ideal: the ideal
is the maximal ideal of the completed group algebra, so any term the pass
misses lies in (result)*(ideal) and Nakayama closes the gap.  The output
M' is invariant whenever M is: M'(g_s - 1) lies in M(g_s - 1), which lies
in M', so M' g_s is inside M', and equal to it because g_s is invertible.
The step still re-checks invariance of its output and raises PstrataError
if the check fails, so a broken input cannot corrupt the series.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .errors import NotInvariant, PrecisionExhausted, PstrataError
from .lattice import Lattice, divisor_profile
from .padic import PadicMatrix, _integer, det_valuation_is_zero, mat_mul

__all__ = [
    "GroupAction",
    "SeriesTrace",
    "check_invariance",
    "lambda_step",
    "lower_p_series",
    "restrict_action",
    "action_to_json",
    "action_from_json",
    "trace_to_csv",
]


def _is_unipotent_mod_p(grid, p: int) -> bool:
    d = len(grid)
    B = [[(grid[i][j] - (1 if i == j else 0)) % p for j in range(d)] for i in range(d)]
    k = 1
    while k < d:
        B = mat_mul(B, B, p)
        k *= 2
    return all(x == 0 for row in B for x in row)


@dataclass(frozen=True)
class GroupAction:
    """Topological generators of a pro-p group acting on Z_p^d row vectors."""

    p: int
    N: int
    d: int
    generators: tuple
    deltas: tuple = field(default=(), compare=False, repr=False)

    @classmethod
    def build(cls, p: int, N: int, generator_grids) -> "GroupAction":
        gens = tuple(PadicMatrix.from_rows(p, N, g) for g in generator_grids)
        if not gens:
            raise ValueError("an action needs at least one generator")
        d = gens[0].rows
        pN = p**N
        for g in gens:
            if g.rows != d or g.cols != d:
                raise ValueError("generators must be square matrices of one dimension")
            if not det_valuation_is_zero(g.grid, p):
                raise ValueError("generator is not invertible over Z_p")
            if not _is_unipotent_mod_p(g.grid, p):
                raise ValueError(
                    "generator is not unipotent mod p; the action would not be pro-p"
                )
        deltas = tuple(
            tuple(
                tuple((g.grid[i][j] - (1 if i == j else 0)) % pN for j in range(d))
                for i in range(d)
            )
            for g in gens
        )
        return cls(p=p, N=N, d=d, generators=gens, deltas=deltas)


def check_invariance(M: Lattice, action: GroupAction) -> bool:
    """True iff M * g == M for every generator g.

    Containment of the basis images suffices for equality: each generator
    is invertible over Z_p, so M*g and M have equal index in the ambient.
    """
    if (M.p, M.N, M.d) != (action.p, action.N, action.d):
        raise ValueError("lattice and action contexts differ")
    pN = M.p**M.N
    return all(
        M.solve(img) is not None
        for g in action.generators
        for img in mat_mul(M.basis, g.grid, pN)
    )


def _step_rows(M: Lattice, action: GroupAction):
    p = M.p
    pN = p**M.N
    rows = [[p * x for x in brow] for brow in M.basis]
    for delta in action.deltas:
        rows.extend(mat_mul(M.basis, delta, pN))
    return rows


def _lambda_step_unchecked(M: Lattice, action: GroupAction) -> Lattice:
    result = Lattice.from_rows(M.p, M.N, M.d, _step_rows(M, action))
    if not check_invariance(result, action):
        raise PstrataError(
            "series step produced a non-invariant lattice; "
            "the generators do not describe a group action"
        )
    return result


def lambda_step(M: Lattice, action: GroupAction) -> Lattice:
    """One step of the lower p-series: p*M + sum of M*(g - 1) over generators."""
    if not check_invariance(M, action):
        raise NotInvariant("lambda_step requires an invariant lattice")
    return _lambda_step_unchecked(M, action)


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

    Requires N >= i_max + 2 so every term stays representable.  Each step
    asserts strict descent, containment of p times the previous term, and
    the trivial index bound log_p |L : term_i| >= i; a violation means the
    input was not a pro-p action and raises immediately with the index.
    """
    if (L.p, L.N, L.d) != (action.p, action.N, action.d):
        raise ValueError("lattice and action contexts differ")
    if L.N < i_max + 2:
        raise PrecisionExhausted(
            f"precision {L.N} cannot certify {i_max} steps; need at least {i_max + 2}"
        )
    if not check_invariance(L, action):
        raise NotInvariant("series start must be an invariant lattice")
    terms = [L]
    profiles = [divisor_profile(L, L)]
    cur = L
    for i in range(1, i_max + 1):
        try:
            nxt = _lambda_step_unchecked(cur, action)
        except PstrataError as err:
            raise type(err)(f"series step {i} failed: {err}") from err
        if not cur.contains(nxt):
            raise PstrataError(f"series term {i} is not contained in term {i - 1}")
        # p * previous term must survive; row check avoids scaling past the guard
        if any(nxt.solve([L.p * x for x in row]) is None for row in cur.basis):
            raise PstrataError(f"series term {i} does not contain p times term {i - 1}")
        prof = divisor_profile(nxt, L)
        if sum(prof) < i:
            raise PstrataError(
                f"series index grew too slowly at step {i}; the action is not pro-p"
            )
        terms.append(nxt)
        profiles.append(prof)
        cur = nxt
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
    to N - lower_level(sub).
    """
    if not check_invariance(sub, action):
        raise NotInvariant("restrict_action requires an invariant lattice")
    ell = sub.lower_level
    new_N = action.N - ell
    if new_N < 1:
        raise PrecisionExhausted("no digits left after dividing out the sublattice basis")
    pN = action.p**action.N
    grids = []
    for g in action.generators:
        rows = [sub.solve(img) for img in mat_mul(sub.basis, g.grid, pN)]
        if None in rows:
            raise NotInvariant("restrict_action requires an invariant lattice")
        grids.append(rows)
    return GroupAction.build(action.p, new_N, grids)


# -- serialization -----------------------------------------------------


def action_to_json(action: GroupAction) -> str:
    return json.dumps(
        {
            "p": action.p,
            "N": action.N,
            "d": action.d,
            "generators": [[list(row) for row in g.grid] for g in action.generators],
        },
        indent=2,
    )


def action_from_json(text: str) -> GroupAction:
    obj = json.loads(text)
    return GroupAction.build(_integer(obj["p"], "p"), _integer(obj["N"], "N"), obj["generators"])


def trace_to_csv(trace: SeriesTrace) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    d = trace.ambient.d
    w.writerow(["i"] + [f"m_{k + 1}" for k in range(d)] + ["log_index"])
    for i, prof in enumerate(trace.profiles):
        w.writerow([i] + list(prof) + [sum(prof)])
    return buf.getvalue()
