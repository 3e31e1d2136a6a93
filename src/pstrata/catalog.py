"""Built-in example actions: ramified blocks, couplings, random instances.

The recurring building block is the companion matrix of x^b - p, i.e. the
matrix of multiplication by a uniformizer pi on the ring Z_p[pi]/(pi^b - p)
in the power basis; pi^b lands exactly on p.  Unipotent block-diagonal
actions assembled from such blocks realize any prescribed rational rate
a/b, and unit couplings between blocks of equal rate shift one block's
series against the other without changing the rates, which is what makes
the frame nontrivial.

Names in the registry are stable identifiers used by the command line
and by the acceptance tests ("remark27", "Gm2", ...).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidShape
from .gmodule import GroupAction
from .lattice import Lattice
from .padic import _integer, identity, mul_entries, row_entries

__all__ = [
    "ExampleBundle",
    "build_trivial",
    "build_eisenstein",
    "build_Gm_lattice",
    "build_remark_module",
    "random_block_action",
    "random_sizes",
    "get_bundle",
    "catalog_names",
]

_PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass(frozen=True)
class ExampleBundle:
    """A ready-to-run instance with whatever ground truth is known."""

    name: str
    description: str
    lattice: Lattice
    action: GroupAction
    expected_rates: tuple | None = None
    expected_cycle: tuple | None = None
    extra_weights: tuple = ()


def _companion(b: int, p: int):
    """Multiplication by pi on Z_p[pi]/(pi^b - p) in the power basis."""
    rows = [[0] * b for _ in range(b)]
    for k in range(b - 1):
        rows[k][k + 1] = 1
    rows[b - 1][0] = p
    return rows


def _mat_pow(M, a: int, m: int):
    """M^a reduced mod m; the action reduces its generators mod p^N anyway."""
    R = identity(len(M))
    right = row_entries(M)
    for _ in range(a):
        R = mul_entries(R, right, m)
    return R


def _place_block(G, block, r0: int, c0: int):
    """Add block into G with its top-left entry at (r0, c0), in place."""
    for i, row in enumerate(block):
        for j, x in enumerate(row):
            G[r0 + i][c0 + j] += x


def build_trivial(d: int = 3, p: int = 2, N: int = 66) -> ExampleBundle:
    """Identity action; the series is just p^i times the ambient lattice."""
    return ExampleBundle(
        name="trivial",
        description=f"identity action on Z_{p}^{d}; every rate is 1",
        lattice=Lattice.standard(p, N, d),
        action=GroupAction.build(p, N, [identity(d)]),
        expected_rates=(Fraction(1),) * d,
        expected_cycle=(0, 1, 1),
    )


def build_eisenstein(e: int, p: int = 2, N: int = 66) -> ExampleBundle:
    """One totally ramified block: g = 1 + pi on Z_p[pi]/(pi^e - p).

    The series is pi^i times the ring, so it repeats exactly with period e
    and scale p, and every coordinate grows at rate 1/e.
    """
    if e < 1:
        raise ValueError("block size must be positive")
    g = identity(e)
    _place_block(g, _companion(e, p), 0, 0)
    return ExampleBundle(
        name=f"eisenstein{e}",
        description=f"1 + pi acting on a degree-{e} totally ramified ring over Z_{p}",
        lattice=Lattice.standard(p, N, e),
        action=GroupAction.build(p, N, [g]),
        expected_rates=(Fraction(1, e),) * e,
        expected_cycle=(0, e, 1),
    )


def build_Gm_lattice(m: int, p: int = 2, N: int = 66) -> ExampleBundle:
    """Independent ramified blocks of degrees 2, 3, 5, ... (first m primes).

    A single generator acts as 1 + pi_j on every block simultaneously, so
    the rates mix the values 1/q for the chosen degrees q.  The bundle
    records one extra weight of mass 1 for a scaling factor that carries
    measure but no lattice coordinates; it thickens the spectrum
    denominator without touching the series.
    """
    if not 1 <= m <= len(_PRIMES):
        raise ValueError(f"m must be between 1 and {len(_PRIMES)}")
    sizes = _PRIMES[:m]
    d = sum(sizes)
    g = identity(d)
    off = 0
    for q in sizes:
        _place_block(g, _companion(q, p), off, off)
        off += q
    rates = sorted(Fraction(1, q) for q in sizes for _ in range(q))
    return ExampleBundle(
        name=f"Gm{m}",
        description=f"one generator ramified of degrees {list(sizes)} blockwise over Z_{p}",
        lattice=Lattice.standard(p, N, d),
        action=GroupAction.build(p, N, [g]),
        expected_rates=tuple(rates),
        expected_cycle=(0, sizes[0], 1) if m == 1 else None,
        extra_weights=(Fraction(1),),
    )


def build_remark_module(p: int = 2, N: int = 66) -> ExampleBundle:
    """Four ramified degree-4 blocks with two unit couplings, dimension 16.

    Generators: 1 + pi on block 0; a coupling feeding block 0 into block 1;
    1 + pi^2 on block 2; a coupling feeding block 2 into block 3.  The
    couplings leave the rates at (1/4 x 8, 1/2 x 8) but displace the series
    of the target blocks by one step, so the certifying frame cannot be the
    standard basis and the common fixed space is exactly blocks 1 and 3.
    """
    d = 16
    lattice = Lattice.standard(p, N, d)  # validates p before any arithmetic mod p^N
    Pi = _companion(4, p)
    g1 = identity(d)
    _place_block(g1, Pi, 0, 0)
    g2 = identity(d)
    _place_block(g2, identity(4), 0, 4)
    g3 = identity(d)
    _place_block(g3, _mat_pow(Pi, 2, p**N), 8, 8)
    g4 = identity(d)
    _place_block(g4, identity(4), 8, 12)
    rates = (Fraction(1, 4),) * 8 + (Fraction(1, 2),) * 8
    return ExampleBundle(
        name="remark27",
        description="four degree-4 ramified blocks, two unit couplings, dimension 16",
        lattice=lattice,
        action=GroupAction.build(p, N, [g1, g2, g3, g4]),
        expected_rates=rates,
        expected_cycle=None,
    )


def random_sizes(rng: random.Random) -> tuple:
    """Block sizes of at most 4 and a total dimension from 2 to 6, drawn from rng."""
    sizes, left = [], rng.randint(2, 6)
    while left:
        sizes.append(rng.randint(1, min(4, left)))
        left -= sizes[-1]
    return tuple(sizes)


def random_block_action(block_sizes, seed: int, p: int = 2, N: int = 66) -> ExampleBundle:
    """Seeded random instance of two generators: unipotent blocks plus p-divisible couplings.

    Per generator each block draws from a small menu: identity, 1 + pi^a
    for a random 1 <= a <= size, or an elementary unipotent inside the
    block.  Entries coupling distinct blocks sit strictly above the block
    diagonal and are divisible by p, so every generator stays unipotent
    mod p.  Total dimension is capped at 8 to keep rate denominators small
    enough that windows of moderate length pin them down.
    """
    try:
        sizes = tuple(_integer(b, "a block size") for b in block_sizes)  # 2.7 is not truncated
    except ValueError:
        raise InvalidShape("block sizes must be positive integers") from None
    if not sizes or any(b < 1 for b in sizes):
        raise InvalidShape("block sizes must be positive integers")
    d = sum(sizes)
    if d > 8:
        raise InvalidShape(f"total dimension {d} exceeds the supported cap of 8")
    lattice = Lattice.standard(p, N, d)  # validates p before any arithmetic mod p^N
    rng = random.Random(seed)
    plans = []
    for _ in range(2):
        row = []
        for b in sizes:
            kind = rng.choice(("id", "power", "power", "shear"))
            if kind == "power":
                row.append(("power", rng.randint(1, b)))
            elif kind == "shear" and b >= 2:
                r = rng.randrange(b - 1)
                s = rng.randrange(r + 1, b)
                row.append(("shear", r, s, rng.randint(1, p)))
            else:
                row.append(("id",))
        plans.append(row)
    # nominal descent rate of each block across generators; blocks are laid
    # out fastest first so every strictly-upper coupling feeds fast content
    # into a slower coordinate, which cannot drag that coordinate's rate
    # down (and keeps the finite-window index offsets small)
    joint = []
    for j, b in enumerate(sizes):
        r = Fraction(1)
        for gplan in plans:
            it = gplan[j]
            if it[0] == "power":
                r = min(r, Fraction(it[1], b))
        joint.append(r)
    order = sorted(range(len(sizes)), key=lambda j: (-joint[j], j))
    laid = tuple(sizes[j] for j in order)
    offsets = []
    off = 0
    for b in laid:
        offsets.append(off)
        off += b
    grids = []
    for gplan in plans:
        g = identity(d)
        for pos, j in enumerate(order):
            b, o = laid[pos], offsets[pos]
            it = gplan[j]
            if it[0] == "power":
                _place_block(g, _mat_pow(_companion(b, p), it[1], p**N), o, o)
            elif it[0] == "shear":
                _, r, s, amt = it
                g[o + r][o + s] += amt
        for bi in range(len(laid)):
            for bj in range(bi + 1, len(laid)):
                if rng.random() < 1 / 3:
                    r = offsets[bi] + rng.randrange(laid[bi])
                    c = offsets[bj] + rng.randrange(laid[bj])
                    g[r][c] += p * rng.randint(1, p * p)
        grids.append(g)
    return ExampleBundle(
        name=f"random-{seed}",
        description=f"seeded random block action, blocks {list(laid)}, p={p}",
        lattice=lattice,
        action=GroupAction.build(p, N, grids),
    )


_BUILDERS = {
    "trivial": build_trivial,
    "eisenstein1": lambda p=2, N=66: build_eisenstein(1, p, N),
    "eisenstein2": lambda p=2, N=66: build_eisenstein(2, p, N),
    "eisenstein3": lambda p=2, N=66: build_eisenstein(3, p, N),
    "eisenstein4": lambda p=2, N=66: build_eisenstein(4, p, N),
    "Gm1": lambda p=2, N=66: build_Gm_lattice(1, p, N),
    "Gm2": lambda p=2, N=66: build_Gm_lattice(2, p, N),
    "Gm3": lambda p=2, N=66: build_Gm_lattice(3, p, N),
    "remark27": build_remark_module,
}


def catalog_names() -> tuple:
    return tuple(sorted(_BUILDERS))


def get_bundle(name: str, p: int = 2, N: int = 66) -> ExampleBundle:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown catalog entry {name!r}; available: {', '.join(catalog_names())}"
        ) from None
    return builder(p=p, N=N)
