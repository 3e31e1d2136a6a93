"""Full-rank Z_p-lattices in Z_p^d at fixed precision.

A Lattice stores the canonical upper-triangular basis of a full-rank open
sublattice of Z_p^d: diagonal entries are exact powers of p, entries above
a pivot are reduced modulo that pivot's p-power.  The canonical basis is an
exact integer matrix, so relative coordinates between lattices can be
solved over Z with no loss; every mod-p^N question about vectors reduces to
an exact one because each lattice here contains p^N Z_p^d.

Operations that build a new lattice enforce the precision guard: the
result's lower level (largest elementary-divisor exponent over Z_p^d)
must stay at most N - 2, one digit short of the budget, otherwise
PrecisionExhausted is raised.  The lower level is the last exponent of
the divisor profile.  The series step is the exception: it guards the
term it starts from, and the series caches each term's level from the
divisor profile it computes anyway (`gmodule`).

`divisor_profile` reads the elementary divisors of Z_p^d/M off the
diagonal when M's basis splits as D U, a diagonal of p-powers times a
unit upper-triangular matrix.  The canonical bases of the catalog's
series terms are diagonal, so they split; a conjugated action's terms
often do not, and go through `smith_rows`.

A diagonal basis is used once more: `strata._window_constant` reads the
certified constant of a diagonal term off its exponents and valuation
tables of the frame, with no product and no `solve`.  Every series term
of the catalog is diagonal, and nearly every term of a random block
action; most terms of a conjugated action are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import NotContained, PrecisionExhausted
from .padic import _freeze, _is_prime, hermite_rows, identity, int_valuation, smith_rows

__all__ = [
    "Lattice",
    "log_index",
    "divisor_profile",
]


_INT = frozenset((int,))


@dataclass(frozen=True)
class Lattice:
    """A full-rank open sublattice of Z_p^d with canonical basis rows."""

    p: int
    N: int
    d: int
    basis: tuple

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        b = self.basis
        if len(b) != self.d or any(len(r) != self.d for r in b):
            raise ValueError(f"basis must be {self.d}x{self.d}")
        for i, row in enumerate(b):
            if not _INT.issuperset(map(type, row)):
                raise ValueError(f"basis row {i} holds a non-integer entry")
            piv = row[i]
            v = int_valuation(piv, self.p, self.N)
            if piv == 0 or self.p**v != piv:
                raise ValueError(f"diagonal entry {piv} at {i} is not an exact p-power")
            if v >= self.N:
                raise PrecisionExhausted(f"diagonal exponent {v} reaches precision {self.N}")
            if any(row[:i]):
                raise ValueError("basis is not upper triangular")
            for j in range(i + 1, self.d):
                if not 0 <= row[j] < b[j][j]:
                    raise ValueError(f"entry ({i},{j}) not reduced modulo the column pivot")

    # -- constructors --------------------------------------------------

    @classmethod
    def standard(cls, p: int, N: int, d: int) -> "Lattice":
        return cls(p, N, d, _freeze(identity(d)))

    @classmethod
    def from_rows(cls, p: int, N: int, d: int, rows) -> "Lattice":
        """Canonicalize a generating set; requires certifiable full rank.

        The result's lower level must stay below N - 1 (operation guard).
        """
        if not rows:
            raise ValueError("empty generating set")
        if any(len(r) != d for r in rows):
            raise ValueError(f"generators must have length {d}")
        lat = cls.unguarded(p, N, d, rows)
        lat.guard()
        return lat

    @classmethod
    def unguarded(cls, p: int, N: int, d: int, rows) -> "Lattice":
        """The span of integer rows of length d, full rank certified, no level guard.

        A full-rank Hermite form is canonical by construction, so it is not
        validated again; only a non-integer entry, which survives the
        reduction, is refused, by the type of the sum of the entries.
        """
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        red, piv, _ = hermite_rows(rows, p, N)
        if piv != list(range(d)):
            raise PrecisionExhausted(
                f"full rank not certifiable at precision {N} (pivots in columns {piv})"
            )
        lat = cls._canonical(p, N, d, tuple(tuple(red[i]) for i in range(d)))
        if type(sum(map(sum, lat.basis))) is not int:
            raise ValueError("generating set holds a non-integer entry")
        return lat

    @classmethod
    def _canonical(cls, p: int, N: int, d: int, basis: tuple) -> "Lattice":
        """The lattice on a basis that is canonical by construction, not validated again."""
        lat = object.__new__(cls)  # skips __post_init__
        lat.__dict__.update(p=p, N=N, d=d, basis=basis)
        return lat

    def guard(self) -> None:
        """The operation guard: PrecisionExhausted unless lower_level <= N - 2."""
        if self.lower_level > self.N - 2:
            raise PrecisionExhausted(
                f"lower level {self.lower_level} too close to precision {self.N}"
            )

    # -- basic queries -------------------------------------------------

    @cached_property
    def diag_exponents(self) -> tuple:
        return tuple(int_valuation(self.basis[i][i], self.p, self.N) for i in range(self.d))

    @property
    def log_det(self) -> int:
        """log_p of the index in the standard lattice Z_p^d."""
        return sum(self.diag_exponents)

    @cached_property
    def lower_level(self) -> int:
        """Least k with p^k Z_p^d inside this lattice.

        This is the largest elementary-divisor exponent of Z_p^d over the
        lattice (`divisor_profile`), which can exceed the largest diagonal
        exponent of the triangular basis (the diagonal only bounds it from
        below).  PrecisionExhausted when a Smith form mod p^N cannot
        certify all d divisors.
        """
        return divisor_profile(self)[-1]

    def solve(self, vec) -> list | None:
        """Exact integer coordinates of vec in this basis, or None.

        vec is read as an integer lift; membership is well defined because
        the lattice contains p^N Z_p^d.
        """
        b = self.basis
        rem = [int(x) for x in vec]
        coords = [0] * self.d
        for j in range(self.d):
            q, r = divmod(rem[j], b[j][j])
            if r:
                return None
            coords[j] = q
            if q:
                bj = b[j]
                for t in range(j + 1, self.d):
                    rem[t] -= q * bj[t]
        return coords

    def contains(self, other: "Lattice") -> bool:
        self._compat(other)
        return all(self.solve(row) is not None for row in other.basis)

    def _compat(self, other: "Lattice") -> None:
        if (self.p, self.N, self.d) != (other.p, other.N, other.d):
            raise ValueError("lattices live in different ambient contexts")


def log_index(A: Lattice, B: Lattice) -> int:
    """log_p |A : B| for B inside A."""
    A._compat(B)
    if not A.contains(B):
        raise NotContained("log_index requires the second lattice inside the first")
    return B.log_det - A.log_det


def divisor_profile(M: Lattice) -> tuple:
    """Ascending elementary-divisor exponents of Z_p^d/M.

    M's canonical basis is upper triangular with diagonal p^(e_k).  When
    p^(e_k) divides row k for every k, the basis is D U with
    D = diag(p^(e_k)) and U integer and unit upper triangular, hence
    unimodular, so the profile is sorted(e) (each e_k < N, so `smith_rows`
    would certify the same d exponents) and no Smith form is needed;
    otherwise `smith_rows` diagonalizes the basis.
    """
    B = M.basis
    if all(x % row[k] == 0 for k, row in enumerate(B) for x in row[k + 1:]):
        return tuple(sorted(M.diag_exponents))
    exps, _, _ = smith_rows(B, M.p, M.N)
    if len(exps) != M.d:
        raise PrecisionExhausted("divisor profile not certifiable at this precision")
    return tuple(exps)
