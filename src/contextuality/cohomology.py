"""Formal linear combinations of sections, the cochain complex over the
support of a model, and the per-section obstruction.

The obstruction at a support section t of a base context b asks whether
there is a family of ring-linear combinations of support sections, one per
context, that equals 1*t on b and whose members agree under restriction on
every overlap: a 0-cocycle, a cochain with coboundary delta^0 zero, whose
block on b is e_t.  So it vanishes iff e_t lies in pi_b(ker delta^0), the
projection of the cocycles onto b, and its system is delta^0 with the base
block moved right: the rows on the context pairs i < j, read off the
model's overlap table (:attr:`SupportModel.overlap_table`, computed once
per model), the non-base columns as the matrix and minus the column of t
as the right-hand side.

delta^0 is built once per call, sparse: its rows as {column: entry} dicts
and, beside them, its columns as {row: entry} dicts.  The right-hand sides
of one base context are cut out of the columns once, sparse, and the solver
reads them so.  Each :class:`ObstructionSystem` holds the call's rows and
basis, its base block and its right-hand side's nonzero terms; its
`variables`, dense `matrix` and `rhs` are built from them on each read and
kept nowhere.

The obstruction vanishes if the family has a global section: if g is one
and g|C_b = t, the family (1*g|C_i)_i agrees on every overlap and is 1*t on
b.  The proof sections of :func:`classify` pass through every extendable
section, so an extendable section takes the family of one of them as its
witness.  Each family is built and re-checked once per call, whatever its
base; a section it serves has only its base term checked, and reaches no
cocycle, lattice or Hermite form.  Given the classification of a model
whose every section extends, delta^0 is never factored.  Without one,
every section is decided mod 2 first, and :func:`classify_in_reach` runs
once, when the first section vanishes mod 2, so a model none of whose
sections vanishes mod 2 never runs the search.  The search is only an
accelerator: where it nests past the recursion limit or outgrows delta^0,
every section is decided as below, as if no proof were at hand.

Every other section is decided mod 2 first, by cocycle projection: one GF(2)
echelon of the transpose of delta^0 per call, packed straight from its
columns, gives a basis K of the cocycles and turns any vector of its row
space into the combination of rows that makes it.  Per base context only
the small projection pi_b(K) is factored, and its left kernel decides every
section of the block in one pass: a section t that no kernel combination
holds vanishes mod 2, its unit vector is solved for, and the cocycle is the
witness; otherwise the first combination g that holds t (the one a solve
for e_t would give), re-checked once per base context, is orthogonal to
pi_b(K) with g_t = 1, so g, padded with zeros, is a combination z of the
rows of delta^0, and z refutes the system.  The echelon's solution is
linear in g, so z is the sum of the solutions for the unit vectors g holds,
each computed once per call, and a certificate keeps only its nonzero
terms.  Integer vanishing descends mod 2, so over Z that z, halved, is the
proof.  A section that vanishes mod 2 and does not extend is decided over Z
the same way, from the lattice of integer cocycles: one Hermite form of
delta^0 per call gives a saturated basis K_Z of it, and per base context
only pi_b(K_Z) is factored.  If it reaches the section, the cocycle is the
witness; if not, the section vanishes mod 2 only, and the Hermite form of
its base context's system gives the certificate, which must agree with the
lattice that there is no solution.

Every proof is re-checked outside the solver that found it.  A witness
family, a proof's or one built straight from the cocycle, is re-verified on
the fibers of restriction to each overlap.  A certificate z, with 0/1
multipliers over Z/2 or halves over Z, is re-checked by parity on its rows
of delta^0, whose every entry is +-1: the columns that an odd number of its
rows meet must all lie in the base block and include t, so that y.A is even
(integral, halved) off the block and y.b odd (not integral).  A Hermite
certificate is re-checked in scaled integers against the untouched system:
on its terms' rows of delta^0, less the base block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial, reduce
from itertools import accumulate, compress
from operator import xor
from typing import Callable, Iterable, Mapping, Sequence

from .extendability import Classification, SearchLimit, classify
from .linalg import (
    Certificate,
    Factorization,
    Ring,
    SolveResult,
    VerificationError,
    _HALF,
    check_certificate,
    factor,
    gf2_nullity,
    gf2_rank,
    halve_certificate,
    solve_linear,
)
from .model import SupportModel, require_overlap_consistent
from .scenario import (
    Context,
    Section,
    Simplex,
    canonical_subset,
    face,
    nerve,
    restrict_section,
)

__all__ = [
    "Certificate",
    "Cochain",
    "LinearCombination",
    "ObstructionResult",
    "ObstructionSystem",
    "Ring",
    "SolveResult",
    "VerificationError",
    "all_obstructions",
    "build_obstruction_system",
    "cochain",
    "cochain_basis",
    "cochain_from_vector",
    "cochain_to_vector",
    "coboundary",
    "coboundary_matrix",
    "combination",
    "embed",
    "gf2_cohomology_dimensions",
    "gf2_nullity",
    "gf2_rank",
    "obstruction",
    "push_forward",
    "restrict_combination",
    "solve_linear",
    "support_at",
    "verify_witness",
    "zero_cochain",
    "zero_combination",
]


@dataclass(frozen=True)
class LinearCombination:
    """Finite formal ring-linear combination of sections over one domain.

    Zero coefficients are never stored; over GF(2) coefficients are kept
    reduced to {1}.  Instances compare structurally.
    """

    ring: Ring
    domain: tuple[str, ...]
    coefficients: dict[Section, int]

    def __add__(self, other: "LinearCombination") -> "LinearCombination":
        self._check_compatible(other)
        merged = dict(self.coefficients)
        for s, c in other.coefficients.items():
            merged[s] = merged.get(s, 0) + c
        return combination(self.ring, self.domain, merged)

    def __sub__(self, other: "LinearCombination") -> "LinearCombination":
        return self + -other

    def __neg__(self) -> "LinearCombination":
        return combination(
            self.ring, self.domain, {s: -c for s, c in self.coefficients.items()}
        )

    def _check_compatible(self, other: "LinearCombination") -> None:
        if self.ring is not other.ring:
            raise ValueError("mixed rings")
        if self.domain != other.domain:
            raise ValueError(f"mixed domains {self.domain} and {other.domain}")

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def coefficient_sum(self) -> int:
        return self.ring.reduce(sum(self.coefficients.values()))

    def terms(self) -> list[tuple[Section, int]]:
        """Terms sorted by outcome tuple, for deterministic rendering."""
        return sorted(self.coefficients.items(), key=lambda item: item[0].values)


def combination(
    ring: Ring, domain: Sequence[str], coefficients: Mapping[Section, int]
) -> LinearCombination:
    domain = tuple(domain)
    reduced: dict[Section, int] = {}
    for section, c in coefficients.items():
        if section.domain != domain:
            raise ValueError(
                f"section over {section.domain} cannot appear in a combination over {domain}"
            )
        value = ring.reduce(c)
        if value:
            reduced[section] = value
    return LinearCombination(ring, domain, reduced)


def zero_combination(ring: Ring, domain: Sequence[str]) -> LinearCombination:
    return LinearCombination(ring, tuple(domain), {})


def embed(ring: Ring, section: Section) -> LinearCombination:
    """The embedding of a section as the combination 1*section."""
    return LinearCombination(ring, section.domain, {section: 1})


def push_forward(
    mapping: Callable[[Section], Section],
    combo: LinearCombination,
    domain: Sequence[str] | None = None,
) -> LinearCombination:
    """Apply a map of sections to a combination: each image collects the sum
    of the coefficients in its fiber.  A group homomorphism in the combination."""
    images: dict[Section, int] = {}
    target: tuple[str, ...] | None = tuple(domain) if domain is not None else None
    for section, c in combo.coefficients.items():
        image = mapping(section)
        if target is None:
            target = image.domain
        elif image.domain != target:
            raise ValueError(f"map sends sections to mixed domains {target} / {image.domain}")
        images[image] = images.get(image, 0) + c
    if target is None:
        raise ValueError("cannot infer the target domain of an empty combination")
    return combination(combo.ring, target, images)


def restrict_combination(
    combo: LinearCombination, subset: Iterable[str]
) -> LinearCombination:
    """Push a combination forward along section restriction to a subset."""
    wanted = set(subset)
    if not wanted <= set(combo.domain):
        raise ValueError(
            f"cannot restrict a combination over {combo.domain} to {sorted(wanted)}"
        )
    target = tuple(m for m in combo.domain if m in wanted)
    return push_forward(lambda s: restrict_section(s, wanted), combo, domain=target)


def support_at(model: SupportModel, subset: Iterable[str]) -> list[Section]:
    """Possible sections on a measurement subset: restrictions of the support
    of every context containing it, sorted into canonical order, so the
    subset's sections are never enumerated.

    For overlap-consistent models every containing context gives the same
    set; the union is used so the function is total.
    """
    scenario = model.scenario
    target = canonical_subset(scenario, subset)
    wanted = set(target)
    containing = [ctx.index for ctx in scenario.contexts if wanted <= set(ctx.members)]
    if not containing:
        raise ValueError(f"{target} is not contained in any context")
    possible = {restrict_section(s, wanted) for i in containing for s in model.supports[i]}
    return sorted(possible, key=scenario.section_sort_key)


# ---------------------------------------------------------------------------
# Cochains and the coboundary


@dataclass(frozen=True)
class Cochain:
    """Degree-q cochain: one combination over the carrier of each q-simplex."""

    model: SupportModel
    ring: Ring
    degree: int
    values: dict[tuple[int, ...], LinearCombination]


def cochain(
    model: SupportModel,
    ring: Ring,
    degree: int,
    values: Mapping[tuple[int, ...], LinearCombination],
) -> Cochain:
    simplices = nerve(model.scenario, degree)[degree]
    expected = {s.vertices: s.carrier for s in simplices}
    if set(values) != set(expected):
        raise ValueError(
            f"cochain must be indexed by exactly the {len(expected)} simplices of degree {degree}"
        )
    for vertices, combo in values.items():
        if combo.ring is not ring:
            raise ValueError("cochain value over the wrong ring")
        if combo.domain != expected[vertices]:
            raise ValueError(
                f"value at {vertices} has domain {combo.domain}, expected {expected[vertices]}"
            )
    return Cochain(model, ring, degree, dict(values))


def zero_cochain(model: SupportModel, ring: Ring, degree: int) -> Cochain:
    simplices = nerve(model.scenario, degree)[degree]
    return Cochain(
        model, ring, degree, {s.vertices: zero_combination(ring, s.carrier) for s in simplices}
    )


def coboundary(degree: int, omega: Cochain) -> Cochain:
    """The coboundary of a degree-q cochain: on each (q+1)-simplex, the
    alternating sum of the restricted values on its faces.

    Signs are fixed so that on a pair (i, j) of cover indices the value is
    omega(i) - omega(j) restricted to the overlap; applying the map twice
    gives zero.
    """
    if omega.degree != degree:
        raise ValueError(f"cochain has degree {omega.degree}, expected {degree}")
    scenario = omega.model.scenario
    out: dict[tuple[int, ...], LinearCombination] = {}
    for simplex in nerve(scenario, degree + 1)[degree + 1]:
        acc = zero_combination(omega.ring, simplex.carrier)
        for j in range(degree + 2):
            facet = face(scenario, simplex, j)
            term = restrict_combination(omega.values[facet.vertices], simplex.carrier)
            acc = acc - term if j % 2 == 0 else acc + term
        out[simplex.vertices] = acc
    return Cochain(omega.model, omega.ring, degree + 1, out)


def cochain_basis(model: SupportModel, degree: int) -> list[tuple[Simplex, Section]]:
    """Canonical basis of the degree-q cochain group: per simplex in
    lexicographic vertex order, the possible sections on its carrier."""
    basis: list[tuple[Simplex, Section]] = []
    for simplex in nerve(model.scenario, degree)[degree]:
        for section in support_at(model, simplex.carrier):
            basis.append((simplex, section))
    return basis


def cochain_to_vector(omega: Cochain) -> list[int]:
    basis = cochain_basis(omega.model, omega.degree)
    known = {(simplex.vertices, section) for simplex, section in basis}
    for vertices in sorted(omega.values):  # the nerve's order
        if any((vertices, key) not in known for key in omega.values[vertices].coefficients):
            raise ValueError(f"cochain value at {vertices} leaves the support basis")
    return [omega.values[simplex.vertices].coefficients.get(s, 0) for simplex, s in basis]


def cochain_from_vector(
    model: SupportModel, ring: Ring, degree: int, vector: Sequence[int]
) -> Cochain:
    basis = cochain_basis(model, degree)
    if len(vector) != len(basis):
        raise ValueError(f"vector length {len(vector)} != basis size {len(basis)}")
    simplices = nerve(model.scenario, degree)[degree]
    values: dict[tuple[int, ...], dict[Section, int]] = {s.vertices: {} for s in simplices}
    for (simplex, section), coefficient in zip(basis, vector):
        if coefficient:
            values[simplex.vertices][section] = coefficient
    combos = {s.vertices: combination(ring, s.carrier, values[s.vertices]) for s in simplices}
    return cochain(model, ring, degree, combos)


def coboundary_matrix(model: SupportModel, ring: Ring, degree: int) -> list[list[int]]:
    """Matrix of the coboundary from degree q to q+1 in the canonical bases.

    On each (q+1)-simplex every basis section of each face is restricted
    once and adds its face sign to the row of its image; rows follow
    :func:`support_at`, zero rows included.  Entries lie in {-1, 0, 1}
    before ring reduction; the matrix agrees with :func:`coboundary`.
    """
    if degree not in (0, 1):
        raise ValueError("coboundary matrices are built for degrees 0 and 1 only")
    scenario = model.scenario
    source = cochain_basis(model, degree)
    source_index = {
        (simplex.vertices, section): k for k, (simplex, section) in enumerate(source)
    }
    rows: list[list[int]] = []
    for simplex in nerve(scenario, degree + 1)[degree + 1]:
        block = {section: [0] * len(source) for section in support_at(model, simplex.carrier)}
        for j in range(degree + 2):
            facet = face(scenario, simplex, j)
            sign = -1 if j % 2 == 0 else 1
            for section in support_at(model, facet.carrier):
                image = restrict_section(section, simplex.carrier)
                block[image][source_index[(facet.vertices, section)]] += sign
        rows.extend([ring.reduce(v) for v in row] for row in block.values())
    return rows


def gf2_cohomology_dimensions(model: SupportModel, degree: int) -> tuple[int, int, int]:
    """(cocycle, coboundary, quotient) dimensions over GF(2) at a degree."""
    delta_q = coboundary_matrix(model, Ring.Z2, degree)
    z_dim = gf2_nullity(delta_q, width=len(cochain_basis(model, degree)))
    if degree == 0:
        b_dim = 0
    else:
        b_dim = gf2_rank(coboundary_matrix(model, Ring.Z2, degree - 1))
    return z_dim, b_dim, z_dim - b_dim


# ---------------------------------------------------------------------------
# The obstruction


class _Coboundary:
    """delta^0 on the context pairs i < j, built once per call from the
    overlap table and never changed: the support sections of every context
    in context order (the basis, one block per context), the rows as sparse
    {column: entry} dicts (on the row of (i, j, section), +1 on the fiber in
    i and -1 on the fiber in j), the columns as sparse {row: entry} dicts
    (the transpose, which the GF(2) echelon factors), and the equation
    labels (i, j, section) of the rows.

    :meth:`right_hand_sides` gives those of one base context's systems,
    sparse, and :meth:`split` also their rows, less the base block, which
    only a Hermite form reads.  Each :class:`ObstructionSystem` holds the
    rows, the basis, the base block and its own right-hand side, and
    :meth:`refutes` re-checks its certificates.
    """

    def __init__(self, model: SupportModel, ring: Ring):
        self.ring = ring
        self.offsets = list(accumulate((len(support) for support in model.supports), initial=0))
        self.basis = tuple(
            (c.index, s) for c in model.scenario.contexts for s in model.support_list(c.index)
        )
        column = {entry: k for k, entry in enumerate(self.basis)}
        minus = ring.reduce(-1)
        self.rows: list[dict[int, int]] = []
        self.columns: list[dict[int, int]] = [{} for _ in self.basis]
        for r, (i, j, _, left, right) in enumerate(model.overlap_table):
            row = {column[i, s]: 1 for s in left}
            row.update((column[j, s], minus) for s in right)
            self.rows.append(row)
            for k, a in row.items():
                self.columns[k][r] = a
        self.equations = tuple((i, j, section) for i, j, section, _, _ in model.overlap_table)

    def block(self, base: int) -> range:
        """The columns of the base context's support sections."""
        return range(self.offsets[base], self.offsets[base + 1])

    def right_hand_sides(self, base: int) -> dict[int, dict[int, int]]:
        """Keyed by each column k of the base block, minus column k: the
        right-hand side of the system at k's section, sparse."""
        ring, columns = self.ring, self.columns
        return {k: {r: ring.reduce(-a) for r, a in columns[k].items()} for k in self.block(base)}

    def split(self, base: int) -> tuple[list[dict[int, int]], dict[int, dict[int, int]]]:
        """The systems at the base context's sections, sparse: the rows of
        delta^0 less the base block (a row that does not meet it is delta^0's
        own), and their :meth:`right_hand_sides`.  Columns keep their delta^0
        numbers."""
        block, rhs = self.block(base), self.right_hand_sides(base)
        rows = list(self.rows)
        for r in set().union(*rhs.values()):  # the rows that meet the block
            rows[r] = {k: a for k, a in rows[r].items() if k not in block}
        return rows, rhs

    def refutes(self, base: int, t: int, certificate: Certificate) -> bool:
        """Re-check a certificate of the system at column t of the base block
        (:meth:`split`).  Every entry of delta^0 is +-1, so a 0/1 certificate
        over Z/2, or one of halves over Z, on a set R of rows refutes it iff
        the columns met by an odd number of the rows of R all lie in the
        block and include t: y.A is then even (integral, halved) off the
        block, and y.b odd (not integral).  Any other certificate is
        re-checked by :func:`check_certificate`."""
        n = len(certificate.rows)
        ones = (1,) * n if certificate.ring is Ring.Z2 else (_HALF,) * n
        if certificate.length != len(self.rows) or certificate.values != ones:
            rows, rhs = self.split(base)
            return check_certificate(rows, rhs[t], certificate)
        odd: set[int] = set()
        for r in certificate.rows:
            odd.symmetric_difference_update(self.rows[r])
        block = self.block(base)
        return t in odd and block.start <= min(odd) and max(odd) < block.stop


def _in_variables(rows: Sequence[dict[int, int]], block: range) -> list[dict[int, int]]:
    """Rows without entries in the block, their columns renumbered to close it."""
    return [{k - (k >= block.stop) * len(block): a for k, a in row.items()} for row in rows]


def _dense(entries: Mapping[int, int], length: int) -> tuple[int, ...]:
    out = [0] * length
    for k, a in entries.items():
        out[k] = a
    return tuple(out)


@dataclass(frozen=True, eq=False)
class ObstructionSystem:
    """The linear system deciding the obstruction at one base section.

    The system is the coboundary delta^0 with the base block moved right:
    the rows of :func:`coboundary_matrix` at degree 0 on the context pairs
    i < j (one equation per overlap and section possible on it, stating that
    the two fiber sums agree), its columns of the non-base contexts as the
    matrix (one variable per support section), and minus the column of the
    base section as the right-hand side, since the base context's entry is
    fixed to 1*section.

    A system holds it sparse: delta^0's rows and its basis, which every
    system of the call shares with its `equations` tuple, the base block,
    and its right-hand side as its nonzero {row: entry} terms.  The
    `variables` (the basis less the block), the dense `matrix` and `rhs` are
    built from them on each read and kept nowhere: the solver never reads
    them.  Ring, base, section, variables and equations determine every
    entry, so they alone are compared and hashed.
    """

    ring: Ring
    base: int
    section: Section
    equations: tuple[tuple[int, int, Section], ...]
    _basis: tuple[tuple[int, Section], ...] = field(repr=False)
    _rows: Sequence[dict[int, int]] = field(repr=False)
    _block: range = field(repr=False)
    _rhs: Mapping[int, int] = field(repr=False)

    @property
    def variables(self) -> tuple[tuple[int, Section], ...]:
        return self._basis[: self._block.start] + self._basis[self._block.stop :]

    def _facts(self) -> tuple:
        return self.ring, self.base, self.section, self.variables, self.equations

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ObstructionSystem) and self._facts() == other._facts()

    def __hash__(self) -> int:
        return hash(self._facts())

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        start, stop = self._block.start, self._block.stop
        rows = (_dense(row, len(self._basis)) for row in self._rows)
        return tuple(row[:start] + row[stop:] for row in rows)

    @property
    def rhs(self) -> tuple[int, ...]:
        return _dense(self._rhs, len(self._rows))


@dataclass(frozen=True)
class ObstructionResult:
    """Verdict for one base section over one ring, with proof either way."""

    ring: Ring
    base: int
    section: Section
    vanishes: bool
    witness: tuple[LinearCombination, ...] | None
    certificate: Certificate | None
    system: ObstructionSystem


def _check_base(model: SupportModel, base: int, section: Section) -> None:
    require_overlap_consistent(model)
    if not 0 <= base < len(model.scenario.contexts):
        raise ValueError(f"no context with index {base}")
    if section not in model.supports[base]:
        raise ValueError(
            f"{section.outcome_string()} is not in the support of context {base}"
        )


def build_obstruction_system(
    model: SupportModel, base: int, section: Section, ring: Ring
) -> ObstructionSystem:
    """The obstruction system at one support section; inputs are checked as
    by :func:`obstruction`."""
    _check_base(model, base, section)
    delta = _Coboundary(model, ring)
    block, t = delta.block(base), delta.basis.index((base, section))
    rhs = delta.right_hand_sides(base)[t]
    return ObstructionSystem(
        ring, base, section, delta.equations, delta.basis, delta.rows, block, rhs
    )


def verify_witness(
    model: SupportModel,
    base: int,
    section: Section,
    witness: Sequence[LinearCombination],
    ring: Ring,
) -> bool:
    """Re-check of a witness family on the fibers of restriction, independent
    of the solver: the base entry is 1*section, every entry is supported on
    its context's support, and on every row of the overlap table the two
    fiber sums agree.  Every term lies in a support, so it falls in some
    fiber of each overlap of its context: this is the push-forward condition
    on every overlap."""
    contexts = model.scenario.contexts
    if len(witness) != len(contexts) or not 0 <= base < len(contexts):
        return False
    if witness[base] != embed(ring, section):
        return False
    for ctx, combo in zip(contexts, witness):
        if combo.ring is not ring or combo.domain != ctx.members:
            return False
        if not model.supports[ctx.index].issuperset(combo.coefficients):
            return False
    for i, j, _, left, right in model.overlap_table:
        first, second = witness[i].coefficients, witness[j].coefficients
        if ring.reduce(sum(first.get(s, 0) for s in left) - sum(second.get(s, 0) for s in right)):
            return False
    return True


def _proof_families(
    model: SupportModel, ring: Ring, proofs: Iterable[tuple[int, ...]]
) -> dict[tuple[int, Section], tuple[LinearCombination, ...]]:
    """The family (1*g|C_i)_i of each global section g among `proofs`,
    re-checked once, keyed by every (context, section) g passes through; the
    first proof through a section wins."""
    scenario = model.scenario
    contexts, outcomes, position = scenario.contexts, scenario.outcomes, scenario.positions
    families: dict[tuple[int, Section], tuple[LinearCombination, ...]] = {}
    for g in proofs:
        restrictions = [
            Section(c.members, tuple([outcomes[g[position[m]]] for m in c.members]))
            for c in contexts
        ]
        family = tuple(embed(ring, s) for s in restrictions)
        if not verify_witness(model, 0, restrictions[0], family, ring):
            raise VerificationError("proof section fails its re-check as a witness family")
        for c, s in zip(contexts, restrictions):
            families.setdefault((c.index, s), family)
    return families


def classify_in_reach(model: SupportModel) -> Classification | None:
    """:func:`classify`, or None where its search is out of reach: where it
    nests deeper than the recursion limit, or memoizes more frontier states
    than delta^0 has entries, besides one per context.  The cocycle path
    decides every section without it, in time polynomial in delta^0."""
    entries = sum(map(len, model.supports)) * len(model.overlap_table)
    try:
        return classify(model, limit=len(model.scenario.contexts) + entries)
    except (RecursionError, SearchLimit):
        return None


# A model's classification, or a function called at most once, when the
# first section vanishes mod 2, that returns it or None.
ClassificationSource = Classification | Callable[[], Classification | None]


def _obstruction_solver(
    model: SupportModel, ring: Ring, classification: ClassificationSource | None = None
) -> Callable[[int], Callable[[Section], ObstructionResult]]:
    """Return, per base context, the verdict function of its support
    sections (the algorithm of the module docstring).  delta^0 is factored
    mod 2 at most once, and each base's cocycle projection at most once.  A
    cocycle, grouped by context into a witness family, is re-checked by
    :func:`verify_witness`; a combination z of rows, or z/2 over Z, by
    parity on its rows of delta^0 (:meth:`_Coboundary.refutes`).  The
    projection's left kernel gives, once per base, the combination g that
    refutes each section it holds.  Over Z, a section that vanishes mod 2 and does not
    extend is decided by the integer cocycle lattice, built at most once per
    call, and its projection onto the base context, factored at most once
    per base; where that projection does not reach the section, the Hermite
    form of the system, factored at most once per base, gives the
    certificate.
    """
    contexts = model.scenario.contexts
    delta = _Coboundary(model, ring)
    basis, rows, equations = delta.basis, delta.rows, delta.equations
    given = isinstance(classification, Classification)
    search = classification or partial(classify_in_reach, model)
    # Until the proofs are at hand, each section is decided mod 2 first, so
    # the search runs only once a section vanishes mod 2; after that, an
    # extendable section needs no mod-2 solve.
    at_hand = given

    @cache
    def cocycles() -> Factorization:  # delta^0 transposed, mod 2
        return factor(delta.columns, Ring.Z2, width=len(rows))

    @cache
    def reach() -> list[list[int]]:  # per column v: the z solved for e_v
        return cocycles().unit_solutions()

    @cache
    def lattice() -> tuple[dict[int, int], ...]:
        return factor(rows, Ring.Z, width=len(basis)).kernel()

    @cache
    def proved() -> tuple[dict, dict] | None:  # (extendability flags, proof families)
        found = classification if given else search()
        return found and (found.extendable, _proof_families(model, ring, found.proofs))

    def base_solver(base: int) -> Callable[[Section], ObstructionResult]:
        block = delta.block(base)
        rhs_of = delta.right_hand_sides(base)
        position = {basis[t][1]: t for t in block}

        @cache
        def projection() -> Factorization:
            kernel = cocycles().kernel()
            projection_rows = [{c: 1 for c, k in enumerate(kernel) if k >> v & 1} for v in block]
            return factor(projection_rows, Ring.Z2, len(kernel))

        @cache
        def refutations() -> list[tuple[int, ...] | None]:  # per section: g, or None
            return projection().unit_certificates()

        @cache
        def integer_projection() -> Factorization:
            basis_z = lattice()
            rows_z = [{c: k[v] for c, k in enumerate(basis_z) if v in k} for v in block]
            return factor(rows_z, Ring.Z, len(basis_z))

        @cache
        def hermite() -> Factorization:
            system_rows, _ = delta.split(base)
            return factor(_in_variables(system_rows, block), Ring.Z, len(basis) - len(block))

        def decide(section: Section) -> ObstructionResult:
            nonlocal at_hand
            t = position[section]
            i, rhs = t - block.start, rhs_of[t]  # i: the section's row of the projection
            system = ObstructionSystem(ring, base, section, equations, basis, rows, block, rhs)
            # An extendable section takes a proof's family as its witness.
            if at_hand or refutations()[i] is None:
                at_hand, proofs = True, proved()
                if proofs and proofs[0][base, section]:
                    family = proofs[1].get((base, section))
                    if family is None or family[base] != embed(ring, section):
                        raise VerificationError("no proof passes through an extendable section")
                    return ObstructionResult(ring, base, section, True, family, None, system)
            cocycle = certificate = None
            if (g := refutations()[i]) is not None:
                # z.delta^0 = g, padded with zeros, summed from the unit
                # vectors g holds.  Unchecked: z is re-checked below as a
                # certificate of the system (a g outside the row space fails).
                z: set[int] = set()
                for k in g:
                    z.symmetric_difference_update(reach()[block.start + k])
                reason = "inconsistent equation combination"
                certificate = Certificate(Ring.Z2, sorted(z), (1,) * len(z), len(rows), reason)
                if ring is Ring.Z:
                    certificate = halve_certificate(certificate)
                if not delta.refutes(base, t, certificate):
                    raise VerificationError("Z/2 certificate failed its re-check")
            elif ring is Ring.Z2:
                found = projection().solve({i: 1})
                bits = reduce(xor, compress(cocycles().kernel(), found.solution), 0)  # K.y
                cocycle = [(bits >> v) & 1 for v in range(len(basis))]
            elif (lifted := integer_projection().solve({i: 1})).solvable:
                cocycle = [0] * len(basis)  # K_Z.y
                for k, y in zip(lattice(), lifted.solution):
                    for v, c in k.items():
                        cocycle[v] += y * c
            else:  # vanishes mod 2 only: the Hermite form refutes the system
                result = hermite().solve(rhs)
                if result.solvable:
                    raise VerificationError("Hermite form solves what the lattice does not")
                certificate = result.certificate
            if cocycle is None:
                return ObstructionResult(ring, base, section, False, None, certificate, system)
            terms: list[dict[Section, int]] = [{} for _ in contexts]
            for (owner, s), c in zip(basis, cocycle):
                if c:
                    terms[owner][s] = c
            witness = tuple(LinearCombination(ring, c.members, terms[c.index]) for c in contexts)
            if not verify_witness(model, base, section, witness, ring):
                raise VerificationError("cocycle fails substitution into the overlap fibers")
            return ObstructionResult(ring, base, section, True, witness, None, system)

        return decide

    return base_solver


def obstruction(
    model: SupportModel,
    base: int | Context,
    section: Section,
    ring: Ring,
    identify: bool = True,
    classification: ClassificationSource | None = None,
) -> ObstructionResult:
    """Decide whether the obstruction at one support section vanishes.

    An extendable section takes as its witness the family of a proof of
    `classification`: the model's, or a function that returns it or None
    and is called only if the section vanishes mod 2; without one,
    :func:`classify_in_reach` is that function.  Any other section, and
    every section where the search is out of reach, is decided mod 2 by
    cocycle projection, from one GF(2) factorization of delta^0 (see the
    module docstring), and, where it vanishes mod 2, over Z by projecting
    the integer cocycle lattice.  `base` may be a context or its cover
    index.  `identify` has no effect; it is kept so that existing
    callers still work.
    Raises :class:`SignallingError` if the supports are not
    overlap-consistent, since the restricted supports the system is built
    from would then be ambiguous.
    """
    if isinstance(base, Context):
        base = base.index
    _check_base(model, base, section)
    return _obstruction_solver(model, ring, classification)(base)(section)


def all_obstructions(
    model: SupportModel,
    ring: Ring,
    identify: bool = True,
    classification: ClassificationSource | None = None,
) -> dict[tuple[int, Section], ObstructionResult]:
    """The obstruction verdict for every support section of every context.

    Each proof family of `classification` is built and re-checked at most
    once for the whole call; a function passed as `classification`, or
    :func:`classify_in_reach` if none is, runs at most once, when the first
    section vanishes mod 2.  delta^0 is factored mod 2 and over Z at most
    once for the whole call; each base context's cocycle projections are
    factored at most once per ring, and its Hermite system only for sections
    that vanish mod 2 but not over Z.  All results of the call share
    delta^0's rows and one `system.equations` tuple; each `system.matrix` is
    built on each read.  Verdicts and proofs are those of
    :func:`obstruction`; `identify` has no effect there either.
    """
    require_overlap_consistent(model)
    solver = _obstruction_solver(model, ring, classification)
    out: dict[tuple[int, Section], ObstructionResult] = {}
    for ctx in model.scenario.contexts:
        sections = model.support_list(ctx.index)
        if not sections:
            continue
        decide = solver(ctx.index)
        for s in sections:
            out[(ctx.index, s)] = decide(s)
    return out
