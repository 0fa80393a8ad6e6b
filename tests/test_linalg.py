"""The exact solvers: solutions by substitution, refutations by separating
functionals, over the integers and GF(2).

Core claims:
    - identity systems return the right-hand side
    - 2x = 1 is unsolvable over Z (divisibility) and over GF(2) (0 = 1)
    - inconsistent GF(2) systems yield verifiable row combinations
    - every returned solution substitutes exactly (helpers.substitutes, a
      dense substitution); every certificate re-checks
    - tampered certificates are rejected by the checker
    - the scaled-integer certificate check agrees with the dense rational
      reference on solver certificates and on mutated ones
    - the sparse Hermite basis has the dense reference's pivots, lattice
      basis and transforms, on small random matrices and on every base
      system of the corpus
    - integer solvability agrees with sympy's Smith normal form on small
      random systems (skipped without sympy)
    - the Hermite basis's kernel is a saturated basis of {x : A.x = 0}:
      n - rank vectors, each in the kernel, whose Smith invariants are all
      1 (sympy; skipped without it)
    - a solve fits only its right-hand side, once, not the rows factored
      before it, also when it re-checks a certificate, and still rejects a
      solver's solution that fails substitution or has the wrong length
    - a right-hand side given as its nonzero {row: entry} terms solves and
      checks as its dense form, on both rings; a key outside the rows is
      refused by solve (ValueError) and check_certificate (False)
    - a halved GF(2) certificate is an integer certificate of the same
      system, and only a GF(2) certificate halves
    - a matrix given as sparse {column: entry} rows factors exactly as its
      dense form: same rank, kernel, solutions and certificates; rows with a
      column outside the declared width, or without a width, are refused;
      their GF(2) nullity is read with their declared width
    - over GF(2), the unit solutions of the input rows add up (as
      symmetric differences) to the support of the solution of any
      consistent right-hand side, here ones that vanish outside a block
    - over GF(2), the unit certificates of the input rows are, row for row,
      the rows of the certificate a solve for the unit right-hand side
      gives (None where it is solvable), on random matrices; a left-kernel
      combination with one term dropped makes them raise VerificationError
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import ObstructionSystem
from contextuality.linalg import (
    Certificate,
    Ring,
    VerificationError,
    check_certificate,
    factor,
    halve_certificate,
    mat_vec,
)

import helpers


def test_identity_system_both_rings():
    a = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert factor(a, Ring.Z).solve([5, -3, 2]).solution == (5, -3, 2)
    assert factor(a, Ring.Z2).solve([1, 0, 1]).solution == (1, 0, 1)


def test_two_x_equals_one():
    over_z = factor([[2]], Ring.Z).solve([1])
    assert over_z.solution is None
    assert "divisibility" in over_z.certificate.reason
    over_gf2 = factor([[2]], Ring.Z2).solve([1])  # 2 = 0 mod 2, so 0 = 1
    assert over_gf2.solution is None


def test_inconsistent_gf2_pair():
    result = factor([[1, 1], [1, 1]], Ring.Z2).solve([1, 0])
    assert result.solution is None
    assert result.certificate.multipliers == (1, 1)


def test_integer_rhs_outside_column_span():
    result = factor([[1, 0], [0, 0]], Ring.Z).solve([0, 7])
    assert result.solution is None
    assert check_certificate([[1, 0], [0, 0]], [0, 7], result.certificate)


def test_unit_gcd_row_is_solvable():
    result = factor([[6, 10, 15]], Ring.Z).solve([1])
    assert result.solution is not None
    assert helpers.substitutes([[6, 10, 15]], [1], result.solution, Ring.Z)


def test_diagonal_divisibility():
    a = [[2, 0], [0, 3]]
    assert factor(a, Ring.Z).solve([2, 3]).solution == (1, 1)
    assert factor(a, Ring.Z).solve([1, 3]).solution is None


def test_empty_and_degenerate_systems():
    assert factor([], Ring.Z, 3).solve([]).solution == (0, 0, 0)
    assert factor([], Ring.Z2, 0).solve([]).solution == ()
    assert factor([[0, 0]], Ring.Z).solve([0]).solution == (0, 0)
    assert factor([[0, 0]], Ring.Z).solve([1]).solution is None


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        factor([[1, 2]], Ring.Z).solve([1, 2])
    with pytest.raises(ValueError):
        factor([[1, 2], [1]], Ring.Z).solve([1, 2])


@pytest.mark.parametrize("ring", [Ring.Z, Ring.Z2])
def test_solve_fits_only_its_right_hand_side(ring, monkeypatch):
    from contextuality import linalg

    fitted = []

    def counting(vector, length):
        fitted.append(length)
        return real(vector, length)

    real = linalg._fitted
    factorization = factor([[1, 1, 0], [0, 1, 1], [1, 0, 1]], ring)
    monkeypatch.setattr(linalg, "_fitted", counting)
    assert factorization.solve([1, 1, 0]).solution == (0, 1, 0)
    assert fitted == [3]
    assert factorization.solve([1, 0, 0]).certificate is not None
    assert fitted == [3, 3]

    for wrong in ((0, 1, 1), (0, 1), (0, 1, 0, 0)):
        monkeypatch.setattr(factorization, "_solve", lambda b: linalg.SolveResult(wrong, None))
        with pytest.raises(linalg.VerificationError, match="fails substitution"):
            factorization.solve([1, 1, 0])


def test_tampered_certificates_rejected():
    # y = 1/3 breaks integrality of y.A; y = 1 breaks non-integrality of y.b.
    assert not check_certificate([[2]], [1], Certificate(Ring.Z, [0], [Fraction(1, 3)], 1, "bad"))
    assert not check_certificate([[2]], [1], Certificate(Ring.Z, [0], [Fraction(1)], 1, "bad"))
    gf2 = factor([[1, 1], [1, 1]], Ring.Z2).solve([1, 0])
    assert not check_certificate([[1, 1], [1, 1]], [1, 0], Certificate(Ring.Z2, [0], [1], 2, "t"))


def _random_matrix(rng, m, n, bound=2):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


@pytest.mark.parametrize("ring", [Ring.Z, Ring.Z2])
def test_constructed_solvable_systems(ring):
    rng = random.Random(105 if ring is Ring.Z else 106)
    for _ in range(200):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        a = _random_matrix(rng, m, n)
        x0 = [rng.randint(0, 1) if ring is Ring.Z2 else rng.randint(-3, 3) for _ in range(n)]
        b = [ring.reduce(sum(a[i][j] * x0[j] for j in range(n))) for i in range(m)]
        a = [[ring.reduce(v) for v in row] for row in a]
        result = factor(a, ring).solve(b)
        assert result.solution is not None
        assert helpers.substitutes(a, b, result.solution, ring)


@pytest.mark.parametrize("ring", [Ring.Z, Ring.Z2])
def test_random_systems_solution_xor_certificate(ring):
    rng = random.Random(107 if ring is Ring.Z else 108)
    solvable = unsolvable = 0
    for _ in range(200):
        m, n = rng.randint(1, 7), rng.randint(0, 6)
        a = [[ring.reduce(v) for v in row] for row in _random_matrix(rng, m, n)]
        b = [ring.reduce(rng.randint(-3, 3)) for _ in range(m)]
        result = factor(a, ring, n).solve(b)
        if result.solution is not None:
            solvable += 1
            assert result.certificate is None
            assert helpers.substitutes(a, b, result.solution, ring)
        else:
            unsolvable += 1
            assert check_certificate(a, b, result.certificate)
    assert solvable and unsolvable  # the sample exercises both branches


@pytest.mark.parametrize("ring", [Ring.Z, Ring.Z2])
def test_sparse_rows_factor_as_their_dense_form(ring):
    rng = random.Random(131 if ring is Ring.Z else 132)
    for _ in range(200):
        m, n = rng.randint(1, 8), rng.randint(1, 7)
        a = [[ring.reduce(v) for v in row] for row in _random_matrix(rng, m, n)]
        sparse = [{j: v for j, v in enumerate(row) if v} for row in a]
        dense, packed = factor(a, ring), factor(sparse, ring, width=n)
        assert (packed.rank, packed.kernel()) == (dense.rank, dense.kernel())
        for _ in range(3):
            b = [ring.reduce(rng.randint(-3, 3)) for _ in range(m)]
            assert packed.solve(b) == dense.solve(b)
    with pytest.raises(ValueError, match="width"):
        factor([{0: 1}, {3: 1}], ring, width=3)
    with pytest.raises(ValueError, match="width"):
        factor([{0: 1}], ring)


def test_gf2_unit_solutions_add_up_to_the_solution():
    rng = random.Random(133)
    checked = 0
    for _ in range(200):
        m, n = rng.randint(1, 9), rng.randint(1, 7)
        a = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
        echelon = factor(a, Ring.Z2)
        lo = rng.randint(0, m - 1)
        block = range(lo, rng.randint(lo + 1, m))
        units = echelon.unit_solutions()
        for _ in range(10):
            # b = A x0 is consistent; keep it when it vanishes off the block.
            x0 = [rng.randint(0, 1) for _ in range(n)]
            b = [sum(a[i][j] * x0[j] for j in range(n)) % 2 for i in range(m)]
            if any(b[i] for i in range(m) if i not in block):
                continue
            support: set[int] = set()
            for i in block:
                if b[i]:
                    support.symmetric_difference_update(units[i])
            solution = echelon.solve(b).solution
            assert support == {j for j, v in enumerate(solution) if v}
            checked += 1
    assert checked > 500


def _random_gf2_matrices(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 9), rng.randint(1, 6)
        yield [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]


def test_gf2_unit_certificates_are_those_of_the_unit_solves():
    refuted = 0
    for a in _random_gf2_matrices(134, 300):
        echelon = factor(a, Ring.Z2)
        certificates = echelon.unit_certificates()
        assert len(certificates) == len(a)
        for i, rows in enumerate(certificates):
            unit = [int(r == i) for r in range(len(a))]
            result = echelon.solve(unit)
            if rows is None:
                assert result.solvable
                continue
            refuted += 1
            assert rows == result.certificate.rows
            assert helpers.reference_check_certificate(a, unit, result.certificate)
    assert refuted > 300


def test_gf2_unit_certificate_with_a_dropped_term_raises():
    dropped = 0
    for a in _random_gf2_matrices(135, 300):
        echelon = factor(a, Ring.Z2)
        kernel = echelon.kernel()
        for k, combo in enumerate(kernel):
            if combo.bit_count() < 2:
                continue  # a zero row: dropping it leaves no combination
            for i in range(len(a)):
                if combo >> i & 1:
                    echelon._dependent = kernel[:k] + (combo ^ 1 << i,) + kernel[k + 1 :]
                    with pytest.raises(VerificationError, match="left-kernel combination"):
                        echelon.unit_certificates()
                    dropped += 1
        echelon._dependent = kernel
        echelon.unit_certificates()
    assert dropped > 100


def _gf2_nullity(matrix, width=None):
    reduced = factor(matrix, Ring.Z2, width)
    return reduced.width - reduced.rank


def test_gf2_rank_and_nullity():
    assert factor([[1, 0], [0, 1], [1, 1]], Ring.Z2).rank == 2
    assert factor([[2, 4], [6, 8]], Ring.Z2).rank == 0
    assert _gf2_nullity([[1, 1, 0]], width=3) == 2
    assert _gf2_nullity([], width=4) == 4


def test_gf2_nullity_of_sparse_rows_is_that_of_the_dense_ones():
    rng = random.Random(131)
    for _ in range(200):
        width = rng.randrange(1, 8)
        dense = [[rng.randrange(3) for _ in range(width)] for _ in range(rng.randrange(6))]
        sparse = [{j: a for j, a in enumerate(row) if a} for row in dense]
        assert _gf2_nullity(sparse, width=width) == _gf2_nullity(dense, width=width)
        if dense:
            assert _gf2_nullity(dense) == _gf2_nullity(dense, width=width)


def test_solver_is_deterministic():
    rng = random.Random(109)
    a = _random_matrix(rng, 6, 5)
    b = [rng.randint(-3, 3) for _ in range(6)]
    first = factor(a, Ring.Z).solve(b)
    second = factor([row[:] for row in a], Ring.Z).solve(list(b))
    assert first == second


@st.composite
def _small_systems(draw):
    ring = draw(st.sampled_from([Ring.Z, Ring.Z2]))
    m = draw(st.integers(1, 5))
    n = draw(st.integers(0, 5))
    entry = st.integers(-3, 3).map(ring.reduce)
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(entry, min_size=m, max_size=m))
    return ring, a, b


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_small_systems())
def test_sparse_right_hand_sides_solve_and_check_as_dense(system):
    _, a, b = system
    width = len(a[0])
    sparse = {i: v for i, v in enumerate(b) if v}
    for ring in Ring:
        factored = factor(a, ring, width=width)
        result = factored.solve(b)
        assert factored.solve(sparse) == result
        for key in (len(a), len(a) + 2, -1):
            outside = {**sparse, key: 1}
            with pytest.raises(ValueError):
                factored.solve(outside)
            if not result.solvable:
                assert check_certificate(a, sparse, result.certificate)
                assert not check_certificate(a, outside, result.certificate)


def _mutations(a, b, certificate):
    """Mutated copies of a valid certificate, each paired with whether it is
    certainly invalid: one multiplier changed, one dropped (zeroed, which
    may leave a valid certificate, or removed), the vector rescaled."""
    ring, y = certificate.ring, list(certificate.multipliers)

    def mutated(values):
        return helpers.dense_certificate(ring, tuple(values), certificate.reason)

    out = []
    for i, row in enumerate(a):
        j = next((j for j, v in enumerate(row) if v), None)
        if j is None:
            continue
        # Column j of y.A moves by 1/2 over Z, by 1 over GF(2).
        changed = list(y)
        changed[i] = 1 - y[i] if ring is Ring.Z2 else y[i] + Fraction(1, 2 * row[j])
        out.append((mutated(changed), True))
        if y[i]:
            zeroed = list(y)
            zeroed[i] = 0
            shift = [Fraction(y[i]) * v for v in row]
            broken = any(s % 2 for s in shift) if ring is Ring.Z2 else any(
                s.denominator != 1 for s in shift
            )
            out.append((mutated(zeroed), broken))
    out.append((mutated(y[:-1]), True))
    # Rescaling by the denominator of y.b (by 2 over GF(2)) makes y.b even
    # or integral; rescaling by 0 makes it 0.
    yb = sum(Fraction(v) * c for v, c in zip(y, b))
    for k in (0, 2 if ring is Ring.Z2 else yb.denominator):
        out.append((mutated([v * k for v in y]), True))
    return out


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_small_systems())
def test_certificate_check_matches_dense_reference(system):
    ring, a, b = system
    result = factor(a, ring, len(a[0])).solve(b)
    if result.certificate is None:
        return
    assert check_certificate(a, b, result.certificate)
    assert helpers.reference_check_certificate(a, b, result.certificate)
    for certificate, invalid in _mutations(a, b, result.certificate):
        verdict = check_certificate(a, b, certificate)
        assert verdict == helpers.reference_check_certificate(a, b, certificate)
        if invalid:
            assert not verdict


def _assert_matches_reference_hermite(matrix, width):
    basis = factor(matrix, Ring.Z, width=width)
    pivots, lattice, transform = helpers.reference_hermite(matrix, width)
    m = len(matrix)
    assert list(basis._pivots) == pivots
    assert [[v.get(i, 0) for i in range(m)] for v in basis._lattice] == lattice
    assert [[t.get(k, 0) for k in range(width)] for t in basis._transform] == transform
    assert all(0 not in v.values() for v in basis._lattice + basis._transform)


@st.composite
def _integer_matrices(draw):
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 6))
    rows = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    return draw(st.lists(rows, min_size=m, max_size=m)), n


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_integer_matrices())
def test_sparse_hermite_matches_dense_reference(system):
    matrix, width = system
    _assert_matches_reference_hermite(matrix, width)


def test_sparse_hermite_matches_dense_reference_on_corpus_systems(corpus_supports):
    for model in corpus_supports.values():
        for ctx in model.scenario.contexts:
            first = model.support_list(ctx.index)[0]
            system = ObstructionSystem(Ring.Z, ctx.index, first, model)
            _assert_matches_reference_hermite(system.matrix, len(system.variables))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_integer_matrices())
def test_hermite_kernel_is_a_saturated_basis(system):
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import Matrix

    matrix, width = system
    kernel = [[k.get(j, 0) for j in range(width)] for k in factor(matrix, Ring.Z, width).kernel()]
    assert all(not any(mat_vec(matrix, k)) for k in kernel)
    rank = Matrix(matrix).rank() if matrix else 0
    assert len(kernel) == width - rank
    if kernel:
        smith, _, _ = normalforms.smith_normal_decomp(Matrix(kernel))
        assert [abs(smith[i, i]) for i in range(len(kernel))] == [1] * len(kernel)


def _smith_solvable(matrix, rhs) -> bool:
    """A x = b over Z through sympy's Smith form S = U A V: with c = U b,
    solvable iff every diagonal entry d_i divides c_i and c_i = 0 past
    the diagonal (d_i = 0 included)."""
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import Matrix

    smith, left, _ = normalforms.smith_normal_decomp(Matrix(matrix))
    c = left * Matrix(rhs)
    width = len(matrix[0])
    for i in range(len(matrix)):
        d = smith[i, i] if i < width else 0
        if (c[i] != 0) if d == 0 else (c[i] % d != 0):
            return False
    return True


@st.composite
def _integer_systems(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    rows = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    matrix = draw(st.lists(rows, min_size=m, max_size=m))
    return matrix, draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_integer_systems())
def test_integer_solvability_matches_smith_normal_form(system):
    matrix, rhs = system
    expected = _smith_solvable(matrix, rhs)
    assert factor(matrix, Ring.Z).solve(rhs).solvable == expected


def test_halved_certificate_refutes_over_z():
    rng = random.Random(124)
    halved = 0
    while halved < 50:
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-3, 3) for _ in range(m)]
        mod2 = factor(a, Ring.Z2, n).solve(b)
        if mod2.solvable:
            continue
        halved += 1
        certificate = halve_certificate(mod2.certificate)
        assert certificate.ring is Ring.Z
        assert certificate.reason == "Z/2 certificate halved: y.A even, y.b odd"
        assert check_certificate(a, b, certificate)
        assert helpers.reference_check_certificate(a, b, certificate)
        assert not factor(a, Ring.Z, n).solve(b).solvable
        with pytest.raises(ValueError, match="GF\\(2\\)"):
            halve_certificate(certificate)
