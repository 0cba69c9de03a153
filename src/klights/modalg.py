"""Exact linear algebra over the integers and over Z/kZ.

Everything here uses Python's arbitrary-precision integers, so results
are exact at any size.  Determinants use fraction-free (Bareiss)
elimination.  Linear systems modulo k, where k need not be prime, are
solved by elimination modulo each prime power q = p**e dividing k, with
every entry kept in [0, q), and the answers are joined by the Chinese
remainder theorem.  A system with no solution yields a certificate: a
vector y with y m == 0 and y . c != 0 (mod k).  ``smith_normal_form``
diagonalizes an integer matrix with unimodular transforms; no solver
uses it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from math import gcd
from operator import mul

from .errors import InputError

Rows = tuple[tuple[int, ...], ...]


def _freeze_rows(rows: Iterable[Iterable[int]]) -> Rows:
    out = tuple(tuple(int(x) for x in row) for row in rows)
    widths = {len(r) for r in out}
    if len(widths) > 1:
        raise InputError(f"ragged rows: lengths {sorted(widths)}")
    return out


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix; may be empty (0 rows or 0 columns)."""

    rows: Rows

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> IntMatrix:
        return cls(_freeze_rows(rows))

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def transpose(self) -> IntMatrix:
        return IntMatrix(tuple(zip(*self.rows))) if self.rows else IntMatrix(())

    def reduce(self, modulus: int) -> ModMatrix:
        """Entrywise residues of this matrix modulo ``modulus``."""
        return ModMatrix(
            tuple(tuple(x % modulus for x in row) for row in self.rows), modulus
        )


@dataclass(frozen=True)
class ModMatrix:
    """A matrix of residues modulo a fixed ``modulus`` >= 2."""

    rows: Rows
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise InputError(f"modulus must be >= 2, got {self.modulus}")
        for row in self.rows:
            for x in row:
                if not 0 <= x < self.modulus:
                    raise InputError(f"entry {x} not reduced modulo {self.modulus}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], modulus: int) -> ModMatrix:
        return cls(_freeze_rows(rows), modulus)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def lift(self) -> IntMatrix:
        """The integer matrix with the same entries (each in [0, modulus))."""
        return IntMatrix(self.rows)

    def transpose(self) -> ModMatrix:
        if not self.rows:
            return self
        return ModMatrix(tuple(zip(*self.rows)), self.modulus)

    def __matmul__(self, other: ModVector) -> ModVector:
        if not isinstance(other, ModVector):
            return NotImplemented
        if other.modulus != self.modulus:
            raise InputError("modulus mismatch")
        if len(other.values) != self.ncols:
            raise InputError(
                f"size mismatch: {self.nrows}x{self.ncols} times length {len(other.values)}"
            )
        k = self.modulus
        return ModVector(
            tuple(sum(a * b for a, b in zip(row, other.values)) % k for row in self.rows),
            k,
        )


@dataclass(frozen=True)
class ModVector:
    """A vector of residues modulo a fixed ``modulus`` >= 2."""

    values: tuple[int, ...]
    modulus: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(int(x) for x in self.values))
        if self.modulus < 2:
            raise InputError(f"modulus must be >= 2, got {self.modulus}")
        for x in self.values:
            if not 0 <= x < self.modulus:
                raise InputError(f"entry {x} not reduced modulo {self.modulus}")

    @classmethod
    def reduce(cls, values: Iterable[int], modulus: int) -> ModVector:
        """Reduce arbitrary integers into residues modulo ``modulus``."""
        return cls(tuple(int(x) % modulus for x in values), modulus)

    def __len__(self) -> int:
        return len(self.values)

    def negate(self) -> ModVector:
        k = self.modulus
        return ModVector(tuple((-x) % k for x in self.values), k)


def det_int(m: IntMatrix) -> int:
    """Exact determinant of a square integer matrix.

    Fraction-free elimination: every division below is exact, so no
    rounding ever occurs.  The 0x0 matrix has determinant 1.
    """
    n = m.nrows
    if n != m.ncols:
        raise InputError(f"determinant needs a square matrix, got {n}x{m.ncols}")
    if n == 0:
        return 1
    a = [list(row) for row in m.rows]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
                    sign = -sign
                    break
            else:
                return 0
        p = a[t][t]
        pivot_tail = a[t][t + 1 :]
        for row in a[t + 1 :]:
            f = row[t]
            if f == 0 and p == prev:
                continue  # the update below would leave the row as it is
            row[t + 1 :] = [(x * p - f * y) // prev for x, y in zip(row[t + 1 :], pivot_tail)]
        prev = p
    return sign * a[n - 1][n - 1]


def is_unit_mod(a: int, modulus: int) -> bool:
    """True iff ``a`` is invertible modulo ``modulus``."""
    if modulus < 2:
        raise InputError(f"modulus must be >= 2, got {modulus}")
    return gcd(a, modulus) == 1


def is_invertible_mod(m: ModMatrix) -> bool:
    """True iff the square matrix is invertible over Z/kZ."""
    if m.nrows != m.ncols:
        raise InputError(f"invertibility needs a square matrix, got {m.nrows}x{m.ncols}")
    return is_unit_mod(det_int(m.lift()), m.modulus)


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns ``(u, d, v)`` with ``u @ m @ v == d``, where ``u`` and ``v``
    are unimodular, ``d`` is diagonal with nonnegative entries, and each
    diagonal entry divides the next.
    """
    nr, nc = m.nrows, m.ncols
    a = [list(row) for row in m.rows]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst: int, src: int, q: int) -> None:
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst: int, src: int, q: int) -> None:
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def smallest_pivot(t: int) -> tuple[int, int] | None:
        best: tuple[int, int] | None = None
        best_abs = 0
        for i in range(t, nr):
            for j in range(t, nc):
                x = abs(a[i][j])
                if x and (best is None or x < best_abs):
                    best, best_abs = (i, j), x
                    if x == 1:
                        return best
        return best

    t = 0
    while t < min(nr, nc):
        pos = smallest_pivot(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            # Clear column t; a nonzero remainder becomes the new, smaller pivot.
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                add_row(i, t, -q)
                if a[i][t] != 0:
                    swap_rows(t, i)
                    dirty = True
            if dirty:
                continue
            for j in range(t + 1, nc):
                if a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                add_col(j, t, -q)
                if a[t][j] != 0:
                    swap_cols(t, j)
                    dirty = True
            if dirty:
                continue
            # Pivot must divide every remaining entry to keep the chain.
            witness = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t] != 0:
                        witness = i
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            add_row(t, witness, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    d = [[a[i][j] if i == j else 0 for j in range(nc)] for i in range(nr)]
    return IntMatrix.from_rows(u), IntMatrix.from_rows(d), IntMatrix.from_rows(v)


def _prime_powers(k: int) -> list[int]:
    """The prime powers p**e whose product is k, by trial division."""
    out = []
    p = 2
    while p * p <= k:
        if k % p == 0:
            q = 1
            while k % p == 0:
                k //= p
                q *= p
            out.append(q)
        p += 1 if p == 2 else 2
    if k > 1:
        out.append(k)
    return out


def _eliminate(
    m: ModMatrix, c: ModVector, q: int, track: bool
) -> tuple[list[int] | None, list[int] | None]:
    """Solve ``m @ x == c`` modulo the prime power q, or show it has no solution.

    Row reduction of the augmented system mod q.  Each pivot is an entry
    of least p-valuation in the remaining block, so it divides every
    entry left: each multiplier is an exact quotient and every entry
    stays in [0, q).  The pivot row is scaled by a unit so its pivot is
    g = gcd(pivot, q) = p**v.  A pivot row whose right-hand side g does
    not divide, or a zero row with a nonzero right-hand side, makes the
    system unsolvable mod q.

    Returns ``(x, None)`` with x a solution mod q (free unknowns 0), or
    ``(None, y)`` when there is none.  With ``track`` the row transform
    rides along as extra columns, and y is a vector with y m == 0 and
    y . c != 0 (mod q): the failing row of the transform times q / g, or
    times 1 for a zero row.  Without ``track`` y is None.
    """
    nr, nc = m.nrows, m.ncols
    a = [[x % q for x in row] + [b % q] for row, b in zip(m.rows, c.values)]
    if track:
        for i, row in enumerate(a):
            row.extend(1 if j == i else 0 for j in range(nr))
    cols = list(range(nc))  # cols[t]: the unknown now in column t
    divisors = []  # divisors[t]: the pivot p**v of row t
    r = 0
    while r < min(nr, nc):
        best, bi, bj = q, r, r
        for i in range(r, nr):
            row = a[i]
            for j in range(r, nc):
                if row[j]:
                    g = gcd(row[j], q)
                    if g < best:
                        best, bi, bj = g, i, j
                        if g == 1:
                            break
            if best == 1:
                break
        if best == q:
            break  # the remaining block is zero mod q
        a[r], a[bi] = a[bi], a[r]
        if bj != r:
            for row in a:
                row[r], row[bj] = row[bj], row[r]
            cols[r], cols[bj] = cols[bj], cols[r]
        piv = a[r]
        unit = pow(piv[r] // best, -1, q)
        if unit != 1:
            piv[r:] = [x * unit % q for x in piv[r:]]
        if piv[nc] % best:
            return None, [q // best * y % q for y in piv[nc + 1 :]] if track else None
        tail = piv[r:]
        for i in range(r + 1, nr):
            row = a[i]
            f = row[r]
            if f:
                f //= best
                row[r:] = [(x - f * y) % q for x, y in zip(row[r:], tail)]
        divisors.append(best)
        r += 1
    for row in a[r:]:
        if row[nc]:
            return None, row[nc + 1 :] if track else None
    z = [0] * nc
    for t in range(r - 1, -1, -1):
        row = a[t]
        s = row[nc] - sum(map(mul, row[t + 1 : r], z[t + 1 : r]))
        z[t] = s % q // divisors[t]
    x = [0] * nc
    for t, j in enumerate(cols):
        x[j] = z[t]
    return x, None


def _check_system(m: ModMatrix, c: ModVector) -> None:
    if c.modulus != m.modulus:
        raise InputError("modulus mismatch")
    if len(c.values) != m.nrows:
        raise InputError(f"size mismatch: {m.nrows} rows, {len(c.values)} targets")


def solve_mod(m: ModMatrix, c: ModVector) -> ModVector | None:
    """One solution of ``m @ x == c`` over Z/kZ, or None when there is none.

    Works for any modulus and any (possibly singular, possibly
    non-square) matrix.  The system is solved modulo each prime power q
    of k by elimination whose entries stay in [0, q), with free unknowns
    set to 0, and the solutions are joined by the Chinese remainder
    theorem.  The result is deterministic but not extremal in any
    ordering.  k is factored by trial division, in about
    max(p2, sqrt(p1)) / 2 steps for the two largest prime factors
    p1 >= p2 of k: a handful for the moduli of the game, but 5 * 10**6
    for a prime k near 10**14.
    """
    _check_system(m, c)
    k = m.modulus
    x = [0] * m.ncols
    for q in _prime_powers(k):
        xq, _ = _eliminate(m, c, q, track=False)
        if xq is None:
            return None
        # e == 1 mod q and e == 0 mod k/q, so x keeps the other residues.
        e = k // q * pow(k // q, -1, q)
        x = [a + e * b for a, b in zip(x, xq)]
    return ModVector(tuple(a % k for a in x), k)


def unsolvable_certificate(m: ModMatrix, c: ModVector) -> ModVector | None:
    """Proof that ``m @ x == c`` has no solution over Z/kZ, or None if it has one.

    The proof is a vector y with y m == 0 and y . c != 0 (mod k): for
    any x, y . (m x) would be 0.
    It comes from the elimination behind :func:`solve_mod`, run again
    with the row transform only for the first prime power q of k that
    fails, and is scaled by k / q so that it holds mod k.
    """
    _check_system(m, c)
    k = m.modulus
    for q in _prime_powers(k):
        if _eliminate(m, c, q, track=False)[0] is None:
            _, y = _eliminate(m, c, q, track=True)
            return ModVector(tuple(k // q * v % k for v in y), k)
    return None
