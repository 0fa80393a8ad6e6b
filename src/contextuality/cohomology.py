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
as the right-hand side.  The table's fibers are positions in each
context's sorted support (`support_list`), and a context's block lists its
support in that order, so a fiber's columns are its block's offset plus
its positions and no `Section` is looked up by hash.

One pass decides the sections asked for on every ring asked for, base
context by base context, and computes what does not depend on the ring at
most once for all of them: delta^0, the all-vs-nothing test, the search,
the factorizations below and each base's mod-2 decisions.  delta^0 is
sparse and the same on both rings: every entry is +-1, and GF(2) reads it
mod 2.  Its rows are the overlap table's entries: a row as a {column:
entry} dict is built only where an echelon, a Hermite form or a
certificate re-check reads it, and the columns only where an echelon or a
Hermite form does.  An :class:`ObstructionSystem` is a view on its model,
its dense `matrix` and `rhs` built from the table on each read.

The obstruction vanishes if the family has a global section: if g is one
and g|C_b = t, the family (1*g|C_i)_i agrees on every overlap and is 1*t on
b.  The proof sections of :func:`classify` pass through every extendable
section, so an extendable section takes the family of one of them as its
witness.  Each family is built and re-checked once per pass and ring,
whatever its base; a section it serves has only its base term checked, and
reaches no cocycle, lattice or Hermite form.  Given the classification of
a model whose every section extends, delta^0 is never factored.  Without
one, every section is decided mod 2 first, and :func:`classify_in_reach`
runs once, when the first section vanishes mod 2, so a model none of whose
sections vanishes mod 2 never runs the search.  The search is only an
accelerator: where it nests past the recursion limit or outgrows delta^0,
every section is decided as below, as if no proof were at hand.

A connected component of the overlap graph is all-vs-nothing when the
GF(2) equations holding on its contexts' supports, in the one-hot
coordinates of their sections, sum to 0 = 1 (Abramsky, Barbosa, Kishida,
Lal & Mansfield, "Contextuality, Cohomology and Paradox", CSL 2015): then
no section of it vanishes, on either ring.  Before anything is factored,
one small elimination per component decides this, from one GF(2) theory
per support shape (a support's values, in order) moved onto each context's
measurements, and the combination gives, per base context, rows z of
delta^0 with z.delta^0 = 1 on the base block and 0 elsewhere, mod 2
(:func:`_all_vs_nothing`).  That one certificate, halved over Z and
re-checked once per ring, refutes every section of the block in one step:
such a base builds no solver machinery, and its component factors nothing.
A classification that counts a global section rules every component out,
so the test is skipped.

Every other section is decided mod 2 first, by cocycle projection: one GF(2)
echelon of the transpose of delta^0 per pass, packed straight from its
columns, gives a basis K of the cocycles and turns any vector of its row
space into the combination of rows that makes it.  Per base context only
the small projection pi_b(K) is factored, and its left kernel decides every
section of the block in one pass: a section t that no kernel combination
holds vanishes mod 2, its unit vector is solved for, and the cocycle is the
witness; otherwise the first combination g that holds t (the one a solve
for e_t would give) is orthogonal to pi_b(K) with g_t = 1, so g, padded
with zeros, is a combination z of the rows of delta^0, and z refutes the
system.  The echelon's solution is linear in g, so z is the sum of the
solutions for the unit vectors g holds, each computed once per pass, and a
certificate keeps only its nonzero terms; the sections of a block that
share g share its certificate.  Integer vanishing descends mod 2, so over
Z that z, halved, is the proof.  A section that vanishes mod 2 and does
not extend is decided over Z the same way, from the lattice of integer
cocycles: one Hermite form of delta^0 per pass gives a saturated basis K_Z
of it, and per base context only pi_b(K_Z) is factored.  If it reaches the
section, the cocycle is the witness; if not, the section vanishes mod 2
only, and the Hermite form of its base context's system gives the
certificate, which must agree with the lattice that there is no solution.

Every proof is re-checked outside the solver that found it.  A witness
family, a proof's or one built straight from the cocycle, is re-verified on
the fibers of restriction to each overlap: each entry is read once into a
vector over its context's support positions, and each fiber is summed by
position.  A certificate z, with 0/1
multipliers over Z/2 or halves over Z, is re-checked once for its whole
block, by parity on its rows of delta^0, whose every entry is +-1: the
columns that an odd number of its rows meet must all lie in the base block
and include each section t it refutes, so that y.A is even
(integral, halved) off the block and y.b odd (not integral).  A Hermite
certificate is re-checked in scaled integers against the untouched system:
on its terms' rows of delta^0, less the base block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import accumulate, compress, groupby
from operator import itemgetter, xor
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
    halve_certificate,
    mat_vec,
)
from .model import OverlapFiber, SupportModel, require_overlap_consistent
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
    "cochain",
    "cochain_basis",
    "cochain_from_vector",
    "cochain_to_vector",
    "coboundary",
    "combination",
    "embed",
    "gf2_cohomology_dimensions",
    "obstruction",
    "support_at",
    "verify_witness",
    "zero_cochain",
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


def embed(ring: Ring, section: Section) -> LinearCombination:
    """The embedding of a section as the combination 1*section."""
    return LinearCombination(ring, section.domain, {section: 1})


def support_at(model: SupportModel, subset: Iterable[str]) -> list[Section]:
    """Possible sections on a measurement subset: restrictions of the support
    of every context containing it, sorted into canonical order, so the
    subset's sections are never enumerated.  The containing contexts are
    those holding every measurement of the subset (`Scenario.holders`); all
    of them contain the empty subset.

    For overlap-consistent models every containing context gives the same
    set; the union is used so the function is total.
    """
    scenario = model.scenario
    target = canonical_subset(scenario, subset)
    held = [scenario.holders[m] for m in target]
    containing = set(held[0]).intersection(*held[1:]) if held else range(len(scenario.contexts))
    if not containing:
        raise ValueError(f"{target} is not contained in any context")
    possible = {restrict_section(s, target) for i in containing for s in model.supports[i]}
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
        model, ring, degree, {s.vertices: LinearCombination(ring, s.carrier, {}) for s in simplices}
    )


def coboundary(degree: int, omega: Cochain) -> Cochain:
    """The coboundary of a degree-q cochain: the rows of
    :func:`_coboundary_rows` applied to its vector in the canonical basis.

    On each (q+1)-simplex it is the alternating sum of the restricted values
    on its faces, signed so that on a pair (i, j) of cover indices the value
    is omega(i) - omega(j) restricted to the overlap; applying the map twice
    gives zero.  A value with a term outside the support basis raises
    ValueError, as in :func:`cochain_to_vector`.
    """
    if omega.degree != degree:
        raise ValueError(f"cochain has degree {omega.degree}, expected {degree}")
    rows, _ = _coboundary_rows(omega.model, degree)
    image = mat_vec(rows, cochain_to_vector(omega))
    return cochain_from_vector(omega.model, omega.ring, degree + 1, image)


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


def _coboundary_rows(model: SupportModel, degree: int) -> tuple[list[dict[int, int]], int]:
    """The coboundary from degree q to q+1 in the canonical bases, as sparse
    {column: entry} rows, and the width of the source basis.

    On each (q+1)-simplex every basis section of each face is restricted
    once and puts its face sign in the row of its image; rows follow
    :func:`support_at`, zero rows included.  The faces of a simplex are
    distinct, so a row meets each column at most once: every entry is -1
    or 1.  Each face's basis sections are read off the source basis, not
    found again by :func:`support_at`.
    """
    scenario = model.scenario
    source = cochain_basis(model, degree)
    columns: dict[tuple[int, ...], dict[Section, int]] = {}  # per q-simplex: {section: column}
    for k, (simplex, section) in enumerate(source):
        columns.setdefault(simplex.vertices, {})[section] = k
    rows: list[dict[int, int]] = []
    for simplex in nerve(scenario, degree + 1)[degree + 1]:
        block: dict[Section, dict[int, int]] = {
            section: {} for section in support_at(model, simplex.carrier)
        }
        for j in range(degree + 2):
            facet = face(scenario, simplex, j)
            sign = -1 if j % 2 == 0 else 1
            for section, k in columns[facet.vertices].items():
                block[restrict_section(section, simplex.carrier)][k] = sign
        rows.extend(block.values())
    return rows, len(source)


def gf2_cohomology_dimensions(model: SupportModel, degree: int) -> tuple[int, int, int]:
    """(cocycle, coboundary, quotient) dimensions over GF(2) at a degree,
    each rank taken from the sparse coboundary rows."""
    rows, width = _coboundary_rows(model, degree)
    z_dim = width - factor(rows, Ring.Z2, width).rank
    if degree == 0:
        b_dim = 0
    else:
        previous, source = _coboundary_rows(model, degree - 1)
        b_dim = factor(previous, Ring.Z2, source).rank
    return z_dim, b_dim, z_dim - b_dim


# ---------------------------------------------------------------------------
# The obstruction


def _offsets(model: SupportModel) -> list[int]:
    """The first column of each context's block, and the width last."""
    return list(accumulate((len(support) for support in model.supports), initial=0))


def _row(entry: OverlapFiber, offsets: Sequence[int]) -> dict[int, int]:
    """delta^0's row on one overlap-table entry as {column: entry}: +1 on
    the fiber in i and -1 on the fiber in j, each at its block's offset."""
    i, j, _, left, right = entry
    first, second = offsets[i], offsets[j]
    return {first + p: 1 for p in left} | {second + p: -1 for p in right}


class _Coboundary:
    """delta^0 on the context pairs i < j, the same on both rings: its rows
    are the model's overlap table, its basis every context's support in
    `support_list` order, one block per context from its offset.  A row's
    sparse {column: entry} dict is built on first read of :meth:`row` and
    kept; `rows`, every one, and `columns`, their transpose as {row: entry}
    dicts, which the GF(2) echelon factors mod 2, are built on first read,
    by the echelon and Hermite paths only.

    The system at the section of column t is the rows less t's block, with
    minus column t as its right-hand side.  :meth:`split` gives those rows
    renumbered, which only a Hermite form reads, and :meth:`refuted`
    re-checks a block's certificates.
    """

    def __init__(self, model: SupportModel):
        self.table = model.overlap_table
        self.offsets = _offsets(model)
        self.basis = tuple(
            (c.index, s) for c in model.scenario.contexts for s in model.support_list(c.index)
        )
        self._built: dict[int, dict[int, int]] = {}

    def row(self, r: int) -> dict[int, int]:
        return self._built.get(r) or self._built.setdefault(r, _row(self.table[r], self.offsets))

    @cached_property
    def rows(self) -> list[dict[int, int]]:
        return [self.row(r) for r in range(len(self.table))]

    @cached_property
    def columns(self) -> list[dict[int, int]]:
        columns: list[dict[int, int]] = [{} for _ in self.basis]
        for r, row in enumerate(self.rows):
            for k, a in row.items():
                columns[k][r] = a
        return columns

    def block(self, base: int) -> range:
        """The columns of the base context's support sections."""
        return range(self.offsets[base], self.offsets[base + 1])

    def split(self, base: int) -> list[dict[int, int]]:
        """The rows of delta^0 less the base block, their columns renumbered
        to close it: the matrix of the systems at the block's sections."""
        block = self.block(base)
        return [
            {k - (k >= block.stop) * len(block): a for k, a in row.items() if k not in block}
            for row in self.rows
        ]

    def refuted(self, base: int, certificate: Certificate) -> Callable[[int], bool]:
        """Re-check a certificate once for the whole base block: the test of
        whether it refutes the system at column t of the block.  Every entry
        of delta^0 is +-1, so a 0/1 certificate over Z/2, or one of halves
        over Z, on a set R of rows refutes it iff the columns met by an odd
        number of the rows of R all lie in the block and include t: y.A is
        then even (integral, halved) off the block, and y.b odd (not
        integral).  The rows of R are read through :meth:`row`.  Any other
        certificate is re-checked by :func:`check_certificate` at each t."""
        n = len(certificate.rows)
        ones = (1,) * n if certificate.ring is Ring.Z2 else (_HALF,) * n
        if certificate.length != len(self.table) or certificate.values != ones:
            split = self.split(base)
            return lambda t: check_certificate(
                split, {r: -a for r, a in self.columns[t].items()}, certificate
            )
        odd: set[int] = set()
        for r in certificate.rows:
            odd.symmetric_difference_update(self.row(r))
        block = self.block(base)
        inside = bool(odd) and block.start <= min(odd) and max(odd) < block.stop
        return lambda t: inside and t in odd


def _dense(entries: Mapping[int, int], length: int, reduce: Callable) -> tuple[int, ...]:
    out = [0] * length
    for k, a in entries.items():
        out[k] = reduce(a)
    return tuple(out)


@dataclass(frozen=True)
class ObstructionSystem:
    """The linear system deciding the obstruction at one base section.

    The system is the coboundary delta^0 with the base block moved right:
    the rows of :func:`_coboundary_rows` at degree 0 on the context pairs
    i < j (one equation per overlap and section possible on it, stating that
    the two fiber sums agree), its columns of the non-base contexts as the
    matrix (one variable per support section), and minus the column of the
    base section as the right-hand side, since the base context's entry is
    fixed to 1*section.

    A system is a view on its model, whose overlap table is delta^0's rows,
    and holds nothing of delta^0.  Its `equations` (the (i, j, section) of
    the table's rows), `variables` (the basis less the base block), and the
    dense `matrix` and `rhs`, reduced by the ring, are built on each read
    and kept nowhere: the solver never reads them.
    """

    ring: Ring
    base: int
    section: Section
    model: SupportModel = field(repr=False)

    @property
    def equations(self) -> tuple[tuple[int, int, Section], ...]:
        return tuple(entry[:3] for entry in self.model.overlap_table)

    @property
    def variables(self) -> tuple[tuple[int, Section], ...]:
        others = [c for c in range(len(self.model.supports)) if c != self.base]
        return tuple((c, s) for c in others for s in self.model.support_list(c))

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        offsets, reduce = _offsets(self.model), self.ring.reduce
        start, stop, width = offsets[self.base], offsets[self.base + 1], offsets[-1]
        rows = (_dense(_row(entry, offsets), width, reduce) for entry in self.model.overlap_table)
        return tuple(row[:start] + row[stop:] for row in rows)

    @property
    def rhs(self) -> tuple[int, ...]:
        offsets, reduce = _offsets(self.model), self.ring.reduce
        t = offsets[self.base] + self.model._support_position(self.base)[self.section.values]
        return tuple(reduce(-_row(entry, offsets).get(t, 0)) for entry in self.model.overlap_table)


@dataclass(frozen=True)
class ObstructionResult:
    """Verdict for one base section over one ring, with proof either way;
    `system` is built from its ring, base, section and model on each read."""

    ring: Ring
    base: int
    section: Section
    vanishes: bool
    witness: tuple[LinearCombination, ...] | None
    certificate: Certificate | None
    model: SupportModel = field(repr=False)

    @property
    def system(self) -> ObstructionSystem:
        return ObstructionSystem(self.ring, self.base, self.section, self.model)


def _check_base(model: SupportModel, base: int, section: Section) -> None:
    require_overlap_consistent(model)
    if not 0 <= base < len(model.scenario.contexts):
        raise ValueError(f"no context with index {base}")
    if section not in model.supports[base]:
        raise ValueError(
            f"{section.outcome_string()} is not in the support of context {base}"
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
    fiber sums agree.  Each entry is read once into a vector over its
    context's support positions (`support_list` order), each term placed at
    its position by its values, and each fiber is summed by position.  Every
    term lies in a support, so it falls in some fiber of each overlap of its
    context: this is the push-forward condition on every overlap."""
    contexts = model.scenario.contexts
    if len(witness) != len(contexts) or not 0 <= base < len(contexts):
        return False
    if witness[base] != embed(ring, section):
        return False
    vectors: list[list[int]] = []
    for ctx, combo in zip(contexts, witness):
        coefficients = combo.coefficients
        if combo.ring is not ring or combo.domain != ctx.members:
            return False
        if not model.supports[ctx.index].issuperset(coefficients):
            return False
        at = model._support_position(ctx.index)
        vector = [0] * len(at)
        for s, c in coefficients.items():
            vector[at[s.values]] = c
        vectors.append(vector)
    for i, j, _, left, right in model.overlap_table:
        first, second = vectors[i], vectors[j]
        if ring.reduce(sum([first[p] for p in left]) - sum([second[p] for p in right])):
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


def _annihilator(points: Iterable[int], coordinates: Iterable[int]) -> list[int]:
    """A basis of the masks F over `coordinates` that meet every point in an
    even number of bits, over GF(2): the kernel of the points' reduced row
    echelon form (one pivot per row, its top bit, in no other row), one
    vector per coordinate that is no pivot."""
    pivots: dict[int, int] = {}
    for p in points:
        for bit, row in pivots.items():
            if p >> bit & 1:
                p ^= row
        if p:
            top = p.bit_length() - 1
            for bit, row in pivots.items():
                if row >> top & 1:
                    pivots[bit] = row ^ p
            pivots[top] = p
    return [
        sum((1 << bit for bit, row in pivots.items() if row >> free & 1), 1 << free)
        for free in coordinates
        if free not in pivots
    ]


def _all_vs_nothing(model: SupportModel, delta: _Coboundary) -> Callable[[int], list[int] | None]:
    """Per base context, the rows z of delta^0 with z.delta^0 = 1 on the base
    block and 0 elsewhere, mod 2, or None where the base's connected
    component of the overlap graph is not all-vs-nothing.

    A section is its one-hot vector x, x_{m,o} = 1 iff it gives m outcome o,
    less the coordinates of the first outcome (sum_o x_{m,o} = 1 on every
    section makes them redundant).  The GF(2) equations a.x = b holding on a
    context's support form the annihilator of its affine span: bit 0 of each
    mask is b.  It depends only on the support's shape, its values in
    `support_list` order, so it is computed once per shape in the call, in
    local bits (member j's outcome k at j*width + k), and moved onto each
    context's measurements; members are in measurement order, so the move
    keeps the order of bits, and with it every pivot, mask and certificate of
    a per-context computation.  One elimination per component, carrying b,
    finds a combination of them with sum a = 0 and sum b = 1 if there is one:
    the component is all-vs-nothing.  On context C's block, a.x = b is the
    identity sum_{(m,o) in a} f_{C,m,o} = b 1_C, f_{C,m,o} summing C's
    sections that give m outcome o; and f_{i,m,o} - f_{j,m,o} is the sum of
    delta^0's rows on the overlap (i, j) whose section gives m outcome o.
    Each coordinate lies in the combined a of an even number of contexts;
    paired up, their rows sum to the 1_C of the contexts C with b odd, an
    odd number of them.  The rows of a spanning-tree edge (c, parent) sum
    to 1_c - 1_parent: moving each odd 1_C up the tree leaves 1_root, and
    the path from the base up to the root moves it to the base.
    """
    scenario, table = model.scenario, delta.table
    contexts, holders, position = scenario.contexts, scenario.holders, scenario.positions
    index = scenario.outcome_indices
    width = len(index) - 1  # x_{m,o} is bit position(m) * width + index(o)
    parent, root = [-1] * len(contexts), [-1] * len(contexts)
    spans: dict[tuple[int, int], range] = {}  # the rows on each overlap, either way round
    theories: dict[tuple, list[int]] = {}  # per support shape: its masks in local bits
    found: dict[int, set[int]] = {}  # per all-vs-nothing root: rows summing to 1_root

    for start in range(len(contexts)):
        if root[start] >= 0:
            continue
        root[start], order = start, [start]
        for c in order:  # breadth first, through the holders of each member
            for m in contexts[c].members:
                for j in holders[m]:
                    if root[j] < 0:
                        root[j], parent[j] = start, c
                        order.append(j)
        theory = []  # (context, a.x = b as a mask)
        for c in order:
            members = contexts[c].members
            shape = tuple(model._support_position(c))  # the support's values, in order
            if (masks := theories.get(shape)) is None:  # member j's outcome k at bit j*width + k
                points = [
                    sum((1 << (j * width + index[o]) for j, o in enumerate(values) if index[o]), 1)
                    for values in shape
                ]
                masks = theories[shape] = _annihilator(points, range(len(members) * width + 1))
            at = [0, *(position[m] * width + k for m in members for k in range(1, width + 1))]
            theory += [(c, sum(1 << p for b, p in enumerate(at) if f >> b & 1)) for f in masks]
        basis: dict[int, tuple[int, int]] = {}  # top bit: (mask, equations combined)
        for k, (_, f) in enumerate(theory):
            combined = 1 << k
            while f > 1 and (top := f.bit_length() - 1) in basis:
                f, combined = f ^ basis[top][0], combined ^ basis[top][1]
            if f == 1:
                break
            if f:
                basis[f.bit_length() - 1] = f, combined
        else:
            continue
        if not spans:  # the table lists each overlap's rows together
            stop = 0
            for (i, j), on in groupby(map(itemgetter(0, 1), table)):
                first, stop = stop, stop + len(list(on))
                spans[i, j] = spans[j, i] = range(first, stop)
        a: dict[int, int] = {}
        for k, (c, f) in enumerate(theory):
            if combined >> k & 1:
                a[c] = a.get(c, 0) ^ f
        holding: dict[int, list[int]] = {}
        for c in order:
            bits = a.get(c, 0)
            while bits > 1:
                top = bits.bit_length() - 1
                holding.setdefault(top, []).append(c)
                bits ^= 1 << top
        z: set[int] = set()
        for bit, held in holding.items():
            m = scenario.measurements[(bit - 1) // width]
            o = scenario.outcomes[(bit - 1) % width + 1]
            for i, j in zip(held[::2], held[1::2]):
                span = spans[i, j]
                at = table[span.start][2].domain.index(m)
                z.symmetric_difference_update(r for r in span if table[r][2].values[at] == o)
        odd = {c for c, f in a.items() if f & 1}
        for c in reversed(order[1:]):  # children before their parents
            if c in odd:
                odd ^= {c, parent[c]}
                z.symmetric_difference_update(spans[c, parent[c]])
        found[start] = z

    def rows(base: int) -> list[int] | None:
        if root[base] not in found:
            return None
        z, c = set(found[root[base]]), base
        while parent[c] >= 0:
            z.symmetric_difference_update(spans[c, parent[c]])
            c = parent[c]
        return sorted(z)

    return rows


def _once(build: Callable) -> Callable:
    """`build`, run once per tuple of arguments; every call returns its value."""
    kept: dict = {}
    return lambda *args: kept[args] if args in kept else kept.setdefault(args, build(*args))


# The reason of an all-vs-nothing base context's Z/2 certificate.
ALL_VS_NOTHING = "all-vs-nothing: y.A even, y.b odd at every section of the base context"


def _obstruction_solver(
    model: SupportModel, classification: Classification | None = None
) -> Callable[[int], Callable[[Section, int, Ring], ObstructionResult]]:
    """Return, per base context, the verdict function of its support
    sections, each given with its position in `support_list`, on either
    ring (the algorithm of the module docstring).  Each factorization is
    made at most once, a base's for that base only, and a verdict renders
    only its ring's proof."""
    contexts = model.scenario.contexts
    delta = _Coboundary(model)
    basis, length = delta.basis, len(delta.table)
    # A global section rules out every all-vs-nothing component.
    counted = classification is not None and classification.count
    parity = (lambda base: None) if counted else _all_vs_nothing(model, delta)
    # Until the proofs are at hand, each section is decided mod 2 first, so
    # the search runs only once a section vanishes mod 2; after that, an
    # extendable section needs no mod-2 solve.
    at_hand = classification is not None

    @_once
    def cocycles() -> Factorization:  # delta^0 transposed, mod 2
        return factor(delta.columns, Ring.Z2, width=length)

    @_once
    def reach() -> list[list[int]]:  # per column v: the z solved for e_v
        return cocycles().unit_solutions()

    @_once
    def lattice() -> tuple[dict[int, int], ...]:
        return factor(delta.rows, Ring.Z, width=len(basis)).kernel()

    @_once
    def search() -> Classification | None:
        return classification or classify_in_reach(model)

    @_once
    def proved(ring: Ring) -> tuple[dict, dict] | None:  # (extendability flags, proof families)
        found = search()
        return found and (found.extendable, _proof_families(model, ring, found.proofs))

    def base_solver(base: int) -> Callable[[Section, int, Ring], ObstructionResult]:
        block, avn = delta.block(base), parity(base)
        checked: dict = {}  # per (ring, g): a certificate and its re-check at each column

        def certified(ring: Ring, g: tuple[int, ...] | None, t: int) -> Certificate:
            """The certificate refuting the system at column t: rows z of
            delta^0, the block's all-vs-nothing rows or, unchecked, those with
            z.delta^0 = g summed from the unit vectors g holds; halved over Z,
            built and re-checked once per ring and g for the block."""
            if (ring, g) not in checked:
                if g is None:
                    z, reason = avn, ALL_VS_NOTHING
                else:
                    z = reduce(xor, (set(reach()[block.start + k]) for k in g), set())
                    reason = "inconsistent equation combination"
                terms = sorted(z)
                certificate = Certificate(Ring.Z2, terms, (1,) * len(terms), length, reason)
                if ring is Ring.Z:
                    certificate = halve_certificate(certificate)
                checked[ring, g] = certificate, delta.refuted(base, certificate)
            certificate, refutes = checked[ring, g]
            if not refutes(t):
                raise VerificationError("Z/2 certificate failed its re-check")
            return certificate

        # An all-vs-nothing base context has one certificate for its block.
        if avn is not None:
            return lambda section, i, ring: ObstructionResult(
                ring, base, section, False, None, certified(ring, None, block.start + i), model
            )

        @_once
        def projection() -> Factorization:
            kernel = cocycles().kernel()
            projection_rows = [{c: 1 for c, k in enumerate(kernel) if k >> v & 1} for v in block]
            return factor(projection_rows, Ring.Z2, len(kernel))

        @_once
        def refutations() -> list[tuple[int, ...] | None]:  # per section: g, or None
            return projection().unit_certificates()

        @_once
        def integer_projection() -> Factorization:
            basis_z = lattice()
            rows_z = [{c: k[v] for c, k in enumerate(basis_z) if v in k} for v in block]
            return factor(rows_z, Ring.Z, len(basis_z))

        @_once
        def hermite() -> Factorization:
            return factor(delta.split(base), Ring.Z, len(basis) - len(block))

        def decide(section: Section, i: int, ring: Ring) -> ObstructionResult:
            nonlocal at_hand
            t = block.start + i  # i is also the section's row of the projection
            # An extendable section takes a proof's family as its witness.
            if at_hand or refutations()[i] is None:
                at_hand, proofs = True, proved(ring)
                if proofs and proofs[0][base, section]:
                    family = proofs[1].get((base, section))
                    if family is None or family[base] != embed(ring, section):
                        raise VerificationError("no proof passes through an extendable section")
                    return ObstructionResult(ring, base, section, True, family, None, model)
            cocycle = certificate = None
            if (g := refutations()[i]) is not None:
                certificate = certified(ring, g, t)
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
                result = hermite().solve({r: -a for r, a in delta.columns[t].items()})
                if result.solvable:
                    raise VerificationError("Hermite form solves what the lattice does not")
                certificate = result.certificate
            if cocycle is None:
                return ObstructionResult(ring, base, section, False, None, certificate, model)
            terms: list[dict[Section, int]] = [{} for _ in contexts]
            for (owner, s), c in zip(basis, cocycle):
                if c:
                    terms[owner][s] = c
            witness = tuple(LinearCombination(ring, c.members, terms[c.index]) for c in contexts)
            if not verify_witness(model, base, section, witness, ring):
                raise VerificationError("cocycle fails substitution into the overlap fibers")
            return ObstructionResult(ring, base, section, True, witness, None, model)

        return decide

    return base_solver


def _obstructions(
    model: SupportModel,
    rings: Sequence[Ring],
    classification: Classification | None = None,
    only: tuple[int, Section] | None = None,
) -> dict[Ring, dict[tuple[int, Section], ObstructionResult]]:
    """The verdicts of every support section, or only of the pair `only`,
    on each of `rings`, from one solver, base context by base context, so
    a base's factorizations are dropped after it.  Inputs are checked as by
    :func:`obstruction`; given no ring, nothing is checked or built."""
    out: dict[Ring, dict] = {ring: {} for ring in rings}
    if not rings:
        return out
    require_overlap_consistent(model)
    if only is None:  # each section with its position in `support_list`
        wanted = {c.index: enumerate(model.support_list(c.index)) for c in model.scenario.contexts}
    else:
        _check_base(model, *only)
        base, section = only
        wanted = {base: [(model.support_list(base).index(section), section)]}
    solver = _obstruction_solver(model, classification)
    for base, sections in wanted.items():
        decide = solver(base)
        for position, section in sections:
            for ring, results in out.items():
                results[base, section] = decide(section, position, ring)
    return out


def obstruction(
    model: SupportModel,
    base: int | Context,
    section: Section,
    ring: Ring,
    identify: bool = True,
    classification: Classification | None = None,
) -> ObstructionResult:
    """Decide whether the obstruction at one support section vanishes.

    An extendable section takes as its witness the family of a proof of
    the model's `classification`; without one, :func:`classify_in_reach`
    runs if the section vanishes mod 2.  Any other section, and every
    section where the search is out of reach, is decided mod 2 by cocycle
    projection, from one GF(2) factorization of delta^0 (see the module
    docstring), and, where it vanishes mod 2, over Z by projecting the
    integer cocycle lattice.  `base` may be a context or its cover index.
    `identify` has no effect; it is kept so that existing callers still
    work.
    Raises :class:`SignallingError` if the supports are not
    overlap-consistent, since the restricted supports the system is built
    from would then be ambiguous.
    """
    if isinstance(base, Context):
        base = base.index
    return _obstructions(model, (ring,), classification, (base, section))[ring][base, section]


def all_obstructions(
    model: SupportModel,
    ring: Ring,
    identify: bool = True,
    classification: Classification | None = None,
) -> dict[tuple[int, Section], ObstructionResult]:
    """The obstruction verdict for every support section of every context.

    One pass on one ring (see the module docstring): each proof family of
    `classification`, or of :func:`classify_in_reach`'s if none is passed,
    is built and re-checked at most once, and the Hermite system of a base
    context only for sections that vanish mod 2 but not over Z.  Each
    result is a view on `model`, and so is its system, built on each read
    with its `equations` and `matrix`.  Verdicts and proofs are those of
    :func:`obstruction`; `identify` has no effect there either.
    """
    return _obstructions(model, (ring,), classification)[ring]
