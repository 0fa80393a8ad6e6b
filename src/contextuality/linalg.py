"""Exact linear solvers over the integers and over GF(2).

Each solver comes in two steps.  :func:`factor` reduces a matrix once; the
:class:`Factorization` it returns then decides A x = b for one right-hand
side b at a time, as often as needed, and no solve changes it.
:func:`solve_linear` is factor-then-solve for a single right-hand side.

A solve returns either a solution or a certificate of unsolvability.
Solutions are re-checked by substitution before they are returned.
Certificates are separating functionals y on the equations, re-checked
against the untouched matrix and right-hand side, never against the
factorization:

* over GF(2): y has 0/1 entries, y.A = 0 and y.b = 1 (mod 2);
* over the integers: y has rational entries, y.A is integral while y.b is
  not, which no integer solution could satisfy.

The check works in scaled integers: with L the common denominator of y it
tests L*y.A = 0 and L*y.b != 0 modulo L (modulo 2L over GF(2)), skipping
zero multipliers and zero entries.

The GF(2) factorization is a bit-packed echelon form: each row is a single
Python integer holding coefficient bits and row-combination tracking bits,
so a right-hand side only enters through the parities of tracked
combinations.  The integer factorization is a fraction-free echelon
reduction (Hermite form) of the column lattice with its transform, in
arbitrary-precision arithmetic, so divisibility obstructions are exact.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Sequence

Matrix = Sequence[Sequence[int]]
Vector = Sequence[int]


class Ring(Enum):
    """Coefficient ring: arbitrary-precision integers, or GF(2)."""

    Z = "z"
    Z2 = "z2"

    def reduce(self, coefficient: int) -> int:
        return coefficient % 2 if self is Ring.Z2 else coefficient

    def describe(self) -> str:
        return "Z/2" if self is Ring.Z2 else "Z"


class VerificationError(RuntimeError):
    """An internally produced witness or certificate failed its re-check."""


@dataclass(frozen=True)
class Certificate:
    """Separating functional proving that A x = b has no solution."""

    ring: Ring
    multipliers: tuple[Fraction, ...] | tuple[int, ...]
    reason: str


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a linear solve: exactly one of solution / certificate."""

    solution: tuple[int, ...] | None
    certificate: Certificate | None

    @property
    def solvable(self) -> bool:
        return self.solution is not None


def mat_vec(matrix: Matrix, x: Sequence[int]) -> list[int]:
    return [sum(a * x[j] for j, a in enumerate(row) if a) for row in matrix]


def check_solution(matrix: Matrix, rhs: Vector, x: Sequence[int], ring: Ring) -> bool:
    got = mat_vec(matrix, x)
    if ring is Ring.Z2:
        return all((g - r) % 2 == 0 for g, r in zip(got, rhs))
    return all(g == r for g, r in zip(got, rhs))


def check_certificate(matrix: Matrix, rhs: Vector, certificate: Certificate) -> bool:
    """Re-check a certificate against a system in scaled integers.

    With L the common denominator of the multipliers y and w = L*y, y.A is
    integral iff w.A = 0 (mod L) and y.b is not iff w.b != 0 (mod L).  Over
    GF(2) y.A must be even and y.b odd: w.A = 0 and w.b = L (mod 2L).
    """
    y = certificate.multipliers
    if len(y) != len(rhs):
        return False
    scale = lcm(*(v.denominator for v in y))
    gf2 = certificate.ring is Ring.Z2
    modulus = 2 * scale if gf2 else scale
    totals: dict[int, int] = {}
    constant = 0
    for v, row, b in zip(y, matrix, rhs):
        if not v:
            continue
        w = v.numerator * (scale // v.denominator)
        constant += w * b
        for j, a in enumerate(row):
            if a:
                totals[j] = totals.get(j, 0) + w * a
    if any(t % modulus for t in totals.values()):
        return False
    return constant % modulus == scale if gf2 else constant % modulus != 0


class Factorization:
    """A matrix reduced once over a ring.

    :meth:`solve` decides A x = b for one right-hand side and re-checks its
    answer against the matrix as given; it never changes the factorization,
    so one factorization serves any number of right-hand sides.  Build one
    with :func:`factor`.
    """

    ring: Ring
    rank: int

    def __init__(self, matrix: Matrix, width: int | None = None):
        m = len(matrix)
        if m:
            n = len(matrix[0])
            if any(len(row) != n for row in matrix):
                raise ValueError("ragged matrix")
            if width is not None and width != n:
                raise ValueError(f"declared width {width} != row length {n}")
        else:
            n = width if width is not None else 0
        self.matrix = tuple(tuple(row) for row in matrix)
        self.height = m
        self.width = n

    def solve(self, rhs: Vector) -> SolveResult:
        """Decide A x = b; the result carries a verified solution or a
        verified certificate of unsolvability."""
        if len(rhs) != self.height:
            raise ValueError(
                f"matrix has {self.height} rows but right-hand side has {len(rhs)}"
            )
        result = self._solve(rhs)
        if result.solution is not None:
            if not check_solution(self.matrix, rhs, result.solution, self.ring):
                raise VerificationError("solver returned a solution that fails substitution")
        else:
            assert result.certificate is not None
            if not check_certificate(self.matrix, rhs, result.certificate):
                raise VerificationError("solver returned a certificate that fails re-check")
        return result

    def _solve(self, rhs: Vector) -> SolveResult:
        raise NotImplementedError


def factor(matrix: Matrix, ring: Ring, width: int | None = None) -> Factorization:
    """Reduce a matrix over the ring, ready to solve against many right-hand
    sides.  `width` is the column count, needed when there are no rows."""
    if ring is Ring.Z2:
        return _GF2Echelon(matrix, width)
    return _HermiteBasis(matrix, width)


def solve_linear(
    matrix: Matrix, rhs: Vector, ring: Ring, width: int | None = None
) -> SolveResult:
    """Decide A x = b over the ring; result carries a verified witness or
    a verified certificate of unsolvability."""
    return factor(matrix, ring, width).solve(rhs)


# ---------------------------------------------------------------------------
# GF(2), bit-packed


def _lowest_bit(value: int) -> int:
    return (value & -value).bit_length() - 1


class _GF2Echelon(Factorization):
    """Reduced echelon form over GF(2) with row tracking.

    Bits 0..n-1 of a packed row are its coefficients, bit n+i marks input
    row i as part of the combination.  Each pivot keeps the combination of
    input rows it is made of; each input row that reduced to zero keeps the
    combination that cancelled it.  For a right-hand side b, a combination's
    affine value is the parity of the b entries it tracks.
    """

    ring = Ring.Z2

    def __init__(self, matrix: Matrix, width: int | None = None):
        super().__init__(matrix, width)
        n = self.width
        coeff_mask = (1 << n) - 1
        pivot_cols: list[int] = []
        pivot_rows: list[int] = []
        dependent: list[int] = []
        for i, row in enumerate(self.matrix):
            cur = 1 << (n + i)
            for j, a in enumerate(row):
                if a & 1:
                    cur |= 1 << j
            for col, prow in zip(pivot_cols, pivot_rows):
                if (cur >> col) & 1:
                    cur ^= prow
            if cur & coeff_mask:
                col = _lowest_bit(cur & coeff_mask)
                for k in range(len(pivot_rows)):
                    if (pivot_rows[k] >> col) & 1:
                        pivot_rows[k] ^= cur
                slot = bisect_left(pivot_cols, col)
                pivot_cols.insert(slot, col)
                pivot_rows.insert(slot, cur)
            else:
                dependent.append(cur >> n)
        self.rank = len(pivot_cols)
        self._pivots = tuple((col, prow >> n) for col, prow in zip(pivot_cols, pivot_rows))
        self._dependent = tuple(dependent)

    def _solve(self, rhs: Vector) -> SolveResult:
        bits = 0
        for i, value in enumerate(rhs):
            if value & 1:
                bits |= 1 << i
        # Input rows are eliminated in order, so the first dependent row with
        # an odd right-hand side gives the first inconsistency reached.
        for combo in self._dependent:
            if (combo & bits).bit_count() & 1:
                multipliers = tuple((combo >> i) & 1 for i in range(self.height))
                return SolveResult(
                    None, Certificate(Ring.Z2, multipliers, "inconsistent equation combination")
                )
        solution = [0] * self.width  # free columns stay 0
        for col, combo in self._pivots:
            solution[col] = (combo & bits).bit_count() & 1
        return SolveResult(tuple(solution), None)


def gf2_rank(matrix: Matrix) -> int:
    """Rank of a matrix over GF(2)."""
    return factor(matrix, Ring.Z2).rank


def gf2_nullity(matrix: Matrix, width: int | None = None) -> int:
    n = width if width is not None else (len(matrix[0]) if matrix else 0)
    return n - gf2_rank(matrix)


# ---------------------------------------------------------------------------
# Integers, via Hermite-form reduction of the column lattice


def _axpy(target: list[list[int]], source: list[list[int]], scale: int) -> None:
    for part in (0, 1):
        target[part][:] = [t + scale * v for t, v in zip(target[part], source[part])]


def _negate(row: list[list[int]]) -> None:
    for part in (0, 1):
        row[part][:] = [-v for v in row[part]]


def _terms(values: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple((k, v) for k, v in enumerate(values) if v)


class _HermiteBasis(Factorization):
    """Echelon basis of the column lattice of A over the integers.

    Basis vector l is a combination of the columns of A with its pivot at
    coordinate pivots[l], where it is positive; it is zero at every earlier
    coordinate, and at each later pivot coordinate it lies in [0, pivot).
    Its transform (the combination of columns it is made of) turns a
    reduction of b into a solution vector.
    """

    ring = Ring.Z

    def __init__(self, matrix: Matrix, width: int | None = None):
        super().__init__(matrix, width)
        a, m, n = self.matrix, self.height, self.width
        # Lattice generators: the columns of the matrix, with composition
        # tracking so a reduction of b turns into a solution vector.
        rows: list[list[list[int]]] = [
            [[a[i][j] for i in range(m)], [1 if k == j else 0 for k in range(n)]]
            for j in range(n)
        ]

        pivots: list[int] = []
        h = 0
        for col in range(m):
            if not any(rows[r][0][col] for r in range(h, n)):
                continue
            while True:
                candidates = [r for r in range(h, n) if rows[r][0][col] != 0]
                r0 = min(candidates, key=lambda r: (abs(rows[r][0][col]), r))
                if r0 != h:
                    rows[h], rows[r0] = rows[r0], rows[h]
                d = rows[h][0][col]
                others = [r for r in range(h + 1, n) if rows[r][0][col] != 0]
                if not others:
                    break
                for r in others:
                    q = rows[r][0][col] // d
                    if q:
                        _axpy(rows[r], rows[h], -q)
                if not any(rows[r][0][col] for r in range(h + 1, n)):
                    break
            if rows[h][0][col] < 0:
                _negate(rows[h])
            d = rows[h][0][col]
            for r in range(h):
                q = rows[r][0][col] // d
                if q:
                    _axpy(rows[r], rows[h], -q)
            pivots.append(col)
            h += 1

        self.rank = h
        self._pivots = tuple(pivots)
        self._lattice = tuple(tuple(lattice) for lattice, _ in rows[:h])
        self._lattice_terms = tuple(_terms(lattice) for lattice in self._lattice)
        self._transform_terms = tuple(_terms(tracking) for _, tracking in rows[:h])

    def _solve(self, rhs: Vector) -> SolveResult:
        residual = list(rhs)
        solution = [0] * self.width
        failure: tuple[str, int, int] | None = None
        for idx, col in enumerate(self._pivots):
            value = residual[col]
            if value == 0:
                continue
            d = self._lattice[idx][col]
            if value % d:
                failure = ("divisibility", idx, col)
                break
            q = value // d
            for t, v in self._lattice_terms[idx]:
                residual[t] -= q * v
            for t, v in self._transform_terms[idx]:
                solution[t] += q * v

        if failure is None:
            bad = next((t for t, v in enumerate(residual) if v != 0), None)
            if bad is None:
                return SolveResult(tuple(solution), None)
            failure = ("outside-span", bisect_left(self._pivots, bad), bad)

        return SolveResult(
            None, _integer_certificate(self._lattice, self._pivots, residual, failure)
        )


def _integer_certificate(
    lattice: Sequence[Sequence[int]],
    pivots: Sequence[int],
    residual: list[int],
    failure: tuple[str, int, int],
) -> Certificate:
    """Build y with y.A integral and y.b non-integral from the failed
    reduction of b against the echelon lattice basis."""
    kind, idx, col = failure
    # Upper-triangular solve of P y_sub = target with P[l][j] = h_l[p_j],
    # kept as integer numerators over one common denominator.
    if kind == "divisibility":
        # y supported on pivot columns 0..idx; y.h_l = delta(l, idx).
        k = idx + 1
        numerators = [1 if l == idx else 0 for l in range(k)]
        denominator = 1
        star = None
    else:
        # b has a nonzero coordinate at a non-pivot column; y gets an extra
        # entry 1/(2 rho) there, cancelled on the first idx lattice rows.
        k = idx
        denominator = 2 * residual[col]
        numerators = [-lattice[l][col] for l in range(k)]
        star = Fraction(1, denominator)

    for l in range(k - 1, -1, -1):
        row = lattice[l]
        acc = numerators[l]
        for j in range(l + 1, k):
            if numerators[j] and row[pivots[j]]:
                acc -= row[pivots[j]] * numerators[j]
        d = row[pivots[l]]
        if d != 1:
            numerators = [v * d for v in numerators]
            denominator *= d
        numerators[l] = acc

    y = [Fraction(0)] * len(residual)
    for j in range(k):
        y[pivots[j]] = Fraction(numerators[j], denominator)
    if star is not None:
        y[col] = star
        reason = "right-hand side outside the column span"
    else:
        reason = f"divisibility failure at pivot column {col}"
    return Certificate(Ring.Z, tuple(y), reason)
