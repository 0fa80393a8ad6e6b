"""Exact linear solvers over the integers and over GF(2).

Each solver comes in two steps.  :func:`factor` reduces a matrix once; the
:class:`Factorization` it returns then decides A x = b for one right-hand
side b at a time, as often as needed, and no solve changes it.

A row of a matrix is either a dense sequence or a sparse {column: entry}
dict, and so is a right-hand side, wherever a system is solved or checked:
dense with one entry per row, or a dict keyed by rows.  Each is read as a
dict: a dense one is converted once, where it comes in.

A solve returns either a solution or a certificate of unsolvability.
Solutions are re-checked by substitution before they are returned.
Certificates are separating functionals y on the equations, held as their
nonzero terms and re-checked against the untouched matrix and right-hand
side, never against the factorization:

* over GF(2): y has 0/1 entries, y.A = 0 and y.b = 1 (mod 2);
* over the integers: y has rational entries, y.A is integral while y.b is
  not, which no integer solution could satisfy.

An integer solution reduces to a GF(2) one, so a GF(2) certificate y also
refutes the system over the integers: y.A even and y.b odd make y/2 an
integer certificate (:func:`halve_certificate`).

The general check works in scaled integers: with L the common denominator
of y it tests L*y.A = 0 and L*y.b != 0 modulo L (modulo 2L over GF(2)),
reading only the rows of the terms and their nonzero entries.  Over GF(2),
where one factorization answers every unit right-hand side e_i at once
(:meth:`_GF2Echelon.unit_certificates`), y.b = 1 holds by the choice of a
combination that holds i, and y.A = 0 is checked once per combination, as
the XOR of its bit-packed rows.  A caller that knows every entry of its
matrix is +-1 may re-check a 0/1 or halved certificate by parity alone
(:mod:`.cohomology` does); any other certificate goes through
:func:`check_certificate`.

The GF(2) factorization is a bit-packed reduced echelon form: each row is a
pair of Python integers, its coefficient bits and the bits of the input
rows it combines, so a right-hand side only enters through the parities of
tracked combinations, and the combinations that cancelled the dependent
rows are a basis of the left kernel.  Rows are eliminated forward only,
each pivot keyed by its lowest bit, and reduced once at the end.  The
integer factorization is a fraction-free echelon reduction (Hermite form)
of the column lattice with its transform, both held as sparse rows, in
arbitrary-precision arithmetic, so divisibility obstructions are exact;
the transforms of the columns that reduced to zero are a saturated basis
of the integer kernel.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import lt, xor
from typing import Sequence

Vector = Sequence[int] | dict[int, int]  # dense, or {index: nonzero entry}
Matrix = Sequence[Vector]


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


_ZERO, _HALF = Fraction(0), Fraction(1, 2)


@dataclass(frozen=True)
class Certificate:
    """Separating functional y proving that A x = b has no solution, held
    only as its nonzero terms: multipliers `values` on `rows`, which are
    distinct, increasing and below `length` (the number of rows); y is zero
    elsewhere.  The terms are its one form and the fields its one
    constructor; :attr:`multipliers` writes y out densely."""

    ring: Ring
    rows: tuple[int, ...]
    values: tuple[Fraction | int, ...]
    length: int
    reason: str

    def __post_init__(self) -> None:
        rows, values = tuple(self.rows), tuple(self.values)
        if len(rows) != len(values) or not all(values):
            raise ValueError("certificate terms must pair each row with a nonzero multiplier")
        if not all(map(lt, rows, rows[1:])) or rows and not 0 <= rows[0] <= rows[-1] < self.length:
            raise ValueError("certificate terms must be on distinct rows, in order, in range")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "values", values)

    @property
    def multipliers(self) -> tuple[Fraction | int, ...]:
        """The dense y: one multiplier per row, zero (0 over GF(2), Fraction
        0 over the integers) off the terms."""
        dense: list[Fraction | int] = [0 if self.ring is Ring.Z2 else _ZERO] * self.length
        for r, v in zip(self.rows, self.values):
            dense[r] = v
        return tuple(dense)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a linear solve: exactly one of solution / certificate."""

    solution: tuple[int, ...] | None
    certificate: Certificate | None

    @property
    def solvable(self) -> bool:
        return self.solution is not None


def _sparse(vector: Vector) -> dict[int, int]:
    """A vector as {index: nonzero entry}; a dict is taken as given."""
    if isinstance(vector, dict):
        return vector
    return {j: a for j, a in enumerate(vector) if a}


def _fitted(vector: Vector, length: int) -> dict[int, int] | None:
    """A vector as a dict, or None if a dense one is not `length` long or a
    dict has an index outside range(length)."""
    if isinstance(vector, dict):
        return vector if not vector or min(vector) >= 0 and max(vector) < length else None
    return _sparse(vector) if len(vector) == length else None


def _sparse_rows(matrix: Matrix, width: int) -> tuple[dict[int, int], ...] | None:
    """The rows as dicts, or None if one does not fit the width."""
    rows = tuple(_fitted(row, width) for row in matrix)
    return None if None in rows else rows


def mat_vec(matrix: Matrix, x: Sequence[int]) -> list[int]:
    return [sum(a * x[j] for j, a in _sparse(row).items()) for row in matrix]


def _substitutes(rows: Matrix, b: dict[int, int], x: Sequence[int], ring: Ring) -> bool:
    """A x = b, for dict rows that fit x and a dict b that fits the rows."""
    return not any(ring.reduce(g - b.get(i, 0)) for i, g in enumerate(mat_vec(rows, x)))


def check_certificate(matrix: Matrix, rhs: Vector, certificate: Certificate) -> bool:
    """Re-check a certificate against a system in scaled integers, reading
    only the rows and right-hand side entries of its terms.

    With L the common denominator of the multipliers y and w = L*y, y.A is
    integral iff w.A = 0 (mod L) and y.b is not iff w.b != 0 (mod L).  Over
    GF(2) y.A must be even and y.b odd: w.A = 0 and w.b = L (mod 2L).  The
    certificate must have one multiplier per row, and the right-hand side
    must fit the rows.
    """
    b = _fitted(rhs, len(matrix))
    return b is not None and _refutes(matrix, b, certificate)


def _refutes(matrix: Matrix, b: dict[int, int], certificate: Certificate) -> bool:
    """:func:`check_certificate`, for a dict b that fits the rows."""
    if certificate.length != len(matrix):
        return False
    scale = lcm(*(v.denominator for v in certificate.values))
    gf2 = certificate.ring is Ring.Z2
    modulus = 2 * scale if gf2 else scale
    totals: dict[int, int] = {}
    constant = 0
    for r, v in zip(certificate.rows, certificate.values):
        w = v.numerator * (scale // v.denominator)
        constant += w * b.get(r, 0)
        for j, a in _sparse(matrix[r]).items():
            totals[j] = totals.get(j, 0) + w * a
    if any(t % modulus for t in totals.values()):
        return False
    return constant % modulus == scale if gf2 else constant % modulus != 0


def halve_certificate(certificate: Certificate) -> Certificate:
    """The integer certificate y/2 of a 0/1 GF(2) certificate y of the same
    system: y.A even makes y.A/2 integral, and y.b odd keeps y.b/2 not."""
    if certificate.ring is not Ring.Z2:
        raise ValueError("only a GF(2) certificate halves to an integer one")
    return Certificate(
        Ring.Z,
        certificate.rows,
        (_HALF,) * len(certificate.rows),
        certificate.length,
        "Z/2 certificate halved: y.A even, y.b odd",
    )


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
        if width is None:
            if matrix and isinstance(matrix[0], dict):
                raise ValueError("sparse rows need a declared width")
            width = len(matrix[0]) if matrix else 0
        rows = _sparse_rows(matrix, width)  # dict rows are kept, not copied
        if rows is None:
            raise ValueError(f"a row does not fit the width {width}")
        self.matrix = rows
        self.height = len(rows)
        self.width = width

    def solve(self, rhs: Vector) -> SolveResult:
        """Decide A x = b; the result carries a verified solution or a
        verified certificate of unsolvability."""
        b = _fitted(rhs, self.height)
        if b is None:
            raise ValueError(f"the right-hand side does not fit the matrix's {self.height} rows")
        result = self._solve(b)
        if result.solution is not None:
            x = result.solution
            if len(x) != self.width or not _substitutes(self.matrix, b, x, self.ring):
                raise VerificationError("solver returned a solution that fails substitution")
        else:
            assert result.certificate is not None
            if not _refutes(self.matrix, b, result.certificate):
                raise VerificationError("solver returned a certificate that fails re-check")
        return result

    def _solve(self, rhs: dict[int, int]) -> SolveResult:
        raise NotImplementedError


def factor(matrix: Matrix, ring: Ring, width: int | None = None) -> Factorization:
    """Reduce a matrix over the ring, ready to solve against many right-hand
    sides.  `width` is the column count, needed when there are no rows."""
    if ring is Ring.Z2:
        return _GF2Echelon(matrix, width)
    return _HermiteBasis(matrix, width)


# ---------------------------------------------------------------------------
# GF(2), bit-packed


def _lowest_bit(value: int) -> int:
    return (value & -value).bit_length() - 1


def _bits(vector: dict[int, int]) -> int:
    """A vector read mod 2, packed: bit j is entry j."""
    packed = 0
    for j, a in vector.items():
        if a & 1:
            packed |= 1 << j
    return packed


def _ones(value: int) -> list[int]:
    """The positions of the set bits of a nonnegative integer, ascending."""
    digits = bin(value)[:1:-1]  # bit k is digits[k]
    out = []
    k = digits.find("1")
    while k >= 0:
        out.append(k)
        k = digits.find("1", k + 1)
    return out


class _GF2Echelon(Factorization):
    """Reduced echelon form over GF(2) with row tracking.

    A packed row is a pair: its coefficient bits, and its combination, in
    which bit i marks input row i.  Input rows are eliminated in order
    against pivots keyed by their lowest coefficient bit, forward only; a
    row left with no bits is dependent and keeps the combination that
    cancelled it.  Then, highest pivot first, every pivot row is cleared of
    the other pivot columns, which gives the reduced form.  For a
    right-hand side b, a combination's affine value is the parity of the b
    entries it tracks.  Entries are read mod 2, so an integer matrix
    factors as its reduction.
    """

    ring = Ring.Z2

    def __init__(self, matrix: Matrix, width: int | None = None):
        super().__init__(matrix, width)
        pivots: dict[int, tuple[int, int]] = {}
        columns = 0  # the pivot columns, as bits
        dependent: list[int] = []
        for i, row in enumerate(self.matrix):
            cur, combo = _bits(row), 1 << i
            while cur:
                col = _lowest_bit(cur)
                pivot = pivots.get(col)
                if pivot is None:
                    pivots[col] = (cur, combo)
                    columns |= 1 << col
                    break
                cur ^= pivot[0]
                combo ^= pivot[1]
            else:
                dependent.append(combo)
        reduced: dict[int, int] = {}  # pivot column: combination
        cleared: dict[int, int] = {}  # pivot column: coefficients, reduced
        for col in sorted(pivots, reverse=True):
            # Pivot rows above col are reduced already, so clearing their
            # columns from this row brings in no other pivot column.
            cur, combo = pivots[col]
            if above := (cur & columns) >> (col + 1):
                for k in _ones(above):
                    cur ^= cleared[col + 1 + k]
                    combo ^= reduced[col + 1 + k]
            cleared[col], reduced[col] = cur, combo
        self.rank = len(pivots)
        self._pivots = tuple(sorted(reduced.items()))
        self._dependent = tuple(dependent)

    def kernel(self) -> tuple[int, ...]:
        """A basis of the left kernel {y : y.A = 0}: the combinations that
        cancelled the dependent input rows, bit i marking input row i."""
        return self._dependent

    def unit_solutions(self) -> list[list[int]]:
        """For each input row i, the pivot columns, ascending, whose tracked
        combination holds i.  The solution :meth:`solve` gives (free
        columns 0) is linear in the right-hand side, so for a consistent one
        it is 1 exactly on the symmetric difference of the lists of its odd
        entries.  Unchecked: nothing here tests the consistency of a
        right-hand side, so the caller must re-check what it builds from
        these lists."""
        out: list[list[int]] = [[] for _ in range(self.height)]
        for col, combo in self._pivots:
            for i in _ones(combo):
                out[i].append(col)
        return out

    def unit_certificates(self) -> list[tuple[int, ...] | None]:
        """For each input row i, the rows of the certificate :meth:`solve`
        gives for the unit right-hand side e_i, or None where e_i is
        consistent: the first left-kernel combination that holds i, as in
        :meth:`solve`.  Each combination is re-checked once, packed, before
        it is given for the rows it holds: the XOR of its input rows must be
        0 (y.A = 0, and y.e_i = 1 for each such i).  VerificationError if not."""
        out: list[tuple[int, ...] | None] = [None] * self.height
        for combo in self._dependent:
            rows = tuple(_ones(combo))
            if reduce(xor, [_bits(self.matrix[r]) for r in rows], 0):
                raise VerificationError("a left-kernel combination fails its re-check")
            for i in rows:
                if out[i] is None:
                    out[i] = rows
        return out

    def _solve(self, rhs: dict[int, int]) -> SolveResult:
        bits = _bits(rhs)
        # Input rows are eliminated in order, so the first dependent row with
        # an odd right-hand side gives the first inconsistency reached.
        for combo in self._dependent:
            if (combo & bits).bit_count() & 1:
                rows, reason = _ones(combo), "inconsistent equation combination"
                ones = (1,) * len(rows)
                certificate = Certificate(Ring.Z2, rows, ones, self.height, reason)
                return SolveResult(None, certificate)
        solution = [0] * self.width  # free columns stay 0
        for col, combo in self._pivots:
            solution[col] = (combo & bits).bit_count() & 1
        return SolveResult(tuple(solution), None)


# ---------------------------------------------------------------------------
# Integers, via Hermite-form reduction of the column lattice


def _axpy(target: list[dict[int, int]], source: list[dict[int, int]], scale: int) -> None:
    for part in (0, 1):
        row = target[part]
        for k, v in source[part].items():
            value = row.get(k, 0) + scale * v
            if value:
                row[k] = value
            else:
                del row[k]


def _negate(row: list[dict[int, int]]) -> None:
    for part in (0, 1):
        row[part] = {k: -v for k, v in row[part].items()}


class _HermiteBasis(Factorization):
    """Echelon basis of the column lattice of A over the integers.

    Basis vector l is a combination of the columns of A with its pivot at
    coordinate pivots[l], where it is positive; it is zero at every earlier
    coordinate, and at each later pivot coordinate it lies in [0, pivot).
    Its transform (the combination of columns it is made of) turns a
    reduction of b into a solution vector.  Both are kept sparse, as
    {index: nonzero value} dicts.
    """

    ring = Ring.Z

    def __init__(self, matrix: Matrix, width: int | None = None):
        super().__init__(matrix, width)
        m, n = self.height, self.width
        # Lattice generators: the columns of the matrix, with composition
        # tracking so a reduction of b turns into a solution vector.
        rows: list[list[dict[int, int]]] = [[{}, {j: 1}] for j in range(n)]
        for i, entries in enumerate(self.matrix):
            for j, a in entries.items():
                if a:
                    rows[j][0][i] = a

        pivots: list[int] = []
        h = 0
        for col in range(m):
            # Generators from h on with an entry at col; updated, not rescanned.
            holders = [r for r in range(h, n) if col in rows[r][0]]
            if not holders:
                continue
            while True:
                r0 = min(holders, key=lambda r: (abs(rows[r][0][col]), r))
                rows[h], rows[r0] = rows[r0], rows[h]
                others = [r0 if r == h else r for r in holders if r != r0]
                if not others:
                    break
                d = rows[h][0][col]
                for r in others:
                    q = rows[r][0][col] // d
                    if q:
                        _axpy(rows[r], rows[h], -q)
                holders = [h] + [r for r in others if col in rows[r][0]]
            if rows[h][0][col] < 0:
                _negate(rows[h])
            d = rows[h][0][col]
            for r in range(h):
                q = rows[r][0].get(col, 0) // d
                if q:
                    _axpy(rows[r], rows[h], -q)
            pivots.append(col)
            h += 1

        self.rank = h
        self._pivots = tuple(pivots)
        self._lattice = tuple(lattice for lattice, _ in rows[:h])
        self._transform = tuple(tracking for _, tracking in rows[:h])
        self._kernel = tuple(tracking for _, tracking in rows[h:])

    def kernel(self) -> tuple[dict[int, int], ...]:
        """A basis of the integer kernel {x : A.x = 0}: the transforms of the
        generators that reduced to zero, as {index: nonzero value} dicts.
        Every reduction step is unimodular, so the basis is saturated."""
        return self._kernel

    def _solve(self, rhs: dict[int, int]) -> SolveResult:
        residual = [0] * self.height
        for r, b in rhs.items():
            residual[r] = b
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
            for t, v in self._lattice[idx].items():
                residual[t] -= q * v
            for t, v in self._transform[idx].items():
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
    lattice: Sequence[dict[int, int]],
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
        numerators = [-lattice[l].get(col, 0) for l in range(k)]
        star = Fraction(1, denominator)

    for l in range(k - 1, -1, -1):
        row = lattice[l]
        acc = numerators[l]
        for j in range(l + 1, k):
            if numerators[j] and pivots[j] in row:
                acc -= row[pivots[j]] * numerators[j]
        d = row[pivots[l]]
        if d != 1:
            numerators = [v * d for v in numerators]
            denominator *= d
        numerators[l] = acc

    y = {pivots[j]: Fraction(n, denominator) for j, n in enumerate(numerators) if n}
    if star is not None:
        y[col] = star
        reason = "right-hand side outside the column span"
    else:
        reason = f"divisibility failure at pivot column {col}"
    rows = sorted(y)
    return Certificate(Ring.Z, rows, [y[r] for r in rows], len(residual), reason)
