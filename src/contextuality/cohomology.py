"""Formal linear combinations of sections, the cochain complex over the
support of a model, and the per-section obstruction.

The obstruction at a support section t of a base context asks whether there
is a family of ring-linear combinations of support sections, one per
context, that equals 1*t on the base context and whose members agree under
restriction on every overlap.  Such a family exists iff an exact linear
system is solvable, which is decided over the integers or over GF(2) by the
solvers in :mod:`contextuality.linalg`.  Within one base context the matrix
of that system is the same for every support section; only the right-hand
side changes.  :func:`all_obstructions` therefore factors each base
context's matrix once and solves every section's right-hand side against
it.  Vanishing results carry a witness family that is re-verified at the
presheaf level (by push-forward, not by the solver); non-vanishing results
carry a certificate re-verified, in scaled integers, against the untouched
system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

from .linalg import (
    Certificate,
    Ring,
    SolveResult,
    VerificationError,
    factor,
    gf2_nullity,
    gf2_rank,
    solve_linear,
)
from .model import SignallingError, SupportModel, support_violations
from .scenario import (
    Context,
    Section,
    Simplex,
    canonical_subset,
    enumerate_sections,
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
        self._check_compatible(other)
        merged = dict(self.coefficients)
        for s, c in other.coefficients.items():
            merged[s] = merged.get(s, 0) - c
        return combination(self.ring, self.domain, merged)

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
    of every context containing it, in canonical order.

    For overlap-consistent models every containing context gives the same
    set; the union is used so the function is total.
    """
    scenario = model.scenario
    target = canonical_subset(scenario, subset)
    wanted = set(target)
    possible: set[Section] = set()
    hit = False
    for ctx in scenario.contexts:
        if wanted <= set(ctx.members):
            hit = True
            possible.update(restrict_section(s, wanted) for s in model.supports[ctx.index])
    if not hit:
        raise ValueError(f"{target} is not contained in any context")
    return [s for s in enumerate_sections(scenario, target) if s in possible]


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
    vector = []
    checked: set[tuple[int, ...]] = set()
    for simplex, section in cochain_basis(omega.model, omega.degree):
        combo = omega.values[simplex.vertices]
        if simplex.vertices not in checked:
            checked.add(simplex.vertices)
            basis = set(support_at(omega.model, simplex.carrier))
            if any(key not in basis for key in combo.coefficients):
                raise ValueError(
                    f"cochain value at {simplex.vertices} leaves the support basis"
                )
        vector.append(combo.coefficients.get(section, 0))
    return vector


def cochain_from_vector(
    model: SupportModel, ring: Ring, degree: int, vector: Sequence[int]
) -> Cochain:
    basis = cochain_basis(model, degree)
    if len(vector) != len(basis):
        raise ValueError(f"vector length {len(vector)} != basis size {len(basis)}")
    values: dict[tuple[int, ...], dict[Section, int]] = {
        s.vertices: {} for s in nerve(model.scenario, degree)[degree]
    }
    for (simplex, section), coefficient in zip(basis, vector):
        if coefficient:
            values[simplex.vertices][section] = coefficient
    carriers = {s.vertices: s.carrier for s in nerve(model.scenario, degree)[degree]}
    return cochain(
        model,
        ring,
        degree,
        {
            vertices: combination(ring, carriers[vertices], coeffs)
            for vertices, coeffs in values.items()
        },
    )


def coboundary_matrix(model: SupportModel, ring: Ring, degree: int) -> list[list[int]]:
    """Matrix of the coboundary from degree q to q+1 in the canonical bases.

    Entries lie in {-1, 0, 1} before ring reduction; applying the matrix to a
    serialized cochain agrees with :func:`coboundary`.
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
        for section in support_at(model, simplex.carrier):
            row = [0] * len(source)
            for j in range(degree + 2):
                facet = face(scenario, simplex, j)
                sign = -1 if j % 2 == 0 else 1
                for candidate in support_at(model, facet.carrier):
                    if restrict_section(candidate, simplex.carrier) == section:
                        row[source_index[(facet.vertices, candidate)]] += sign
            rows.append([ring.reduce(v) for v in row])
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


@dataclass(frozen=True)
class ObstructionSystem:
    """The linear system deciding the obstruction at one base section.

    One variable per support section of every non-base context; one equation
    per intersecting unordered context pair and restricted section possible
    on the overlap, stating that the two fiber sums agree.  The base
    context's coefficients are fixed (1 at the base section, 0 elsewhere)
    and appear on the right-hand side.
    """

    ring: Ring
    base: int
    section: Section
    variables: tuple[tuple[int, Section], ...]
    equations: tuple[tuple[int, int, Section], ...]
    matrix: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]


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


def build_obstruction_system(
    model: SupportModel, base: int, section: Section, ring: Ring
) -> ObstructionSystem:
    scenario = model.scenario
    variables: list[tuple[int, Section]] = []
    var_index: dict[tuple[int, Section], int] = {}
    for ctx in scenario.contexts:
        if ctx.index == base:
            continue
        for s in model.support_list(ctx.index):
            var_index[(ctx.index, s)] = len(variables)
            variables.append((ctx.index, s))

    equations: list[tuple[int, int, Section]] = []
    rows: list[list[int]] = []
    rhs: list[int] = []
    n = len(scenario.contexts)
    for i in range(n):
        for j in range(i + 1, n):
            common = set(scenario.contexts[i].members) & set(scenario.contexts[j].members)
            if not common:
                continue
            target = canonical_subset(scenario, common)
            image: set[Section] = set()
            for side in (i, j):
                image.update(
                    restrict_section(s, target) for s in model.supports[side]
                )
            for restricted in enumerate_sections(scenario, target):
                if restricted not in image:
                    continue  # hit by neither side: a 0 = 0 row
                row = [0] * len(variables)
                constant = 0
                for side, sign in ((i, 1), (j, -1)):
                    for s in model.supports[side]:
                        if restrict_section(s, target) != restricted:
                            continue
                        if side == base:
                            constant -= sign * (1 if s == section else 0)
                        else:
                            row[var_index[(side, s)]] += sign
                if any(row) or ring.reduce(constant):
                    equations.append((i, j, restricted))
                    rows.append([ring.reduce(v) for v in row])
                    rhs.append(ring.reduce(constant))

    return ObstructionSystem(
        ring,
        base,
        section,
        tuple(variables),
        tuple(equations),
        tuple(tuple(r) for r in rows),
        tuple(rhs),
    )


def _identify_variables(system: ObstructionSystem) -> tuple[list[list[int]], list[int], list[int]]:
    """Merge variable pairs forced equal by single-section overlap equations.

    Returns the reduced matrix, reduced right-hand side, and a map from
    original variable index to reduced column (or -1 for none, impossible
    here since merged variables always map to their representative).
    Repeats until no row of the rewritten system pins two variables equal.
    """
    n_vars = len(system.variables)
    parent = list(range(n_vars))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    rows = [list(r) for r in system.matrix]
    rhs = list(system.rhs)

    def rewritten() -> tuple[list[dict[int, int]], list[int]]:
        out = []
        for row in rows:
            merged: dict[int, int] = {}
            for v, c in enumerate(row):
                if c:
                    rep = find(v)
                    merged[rep] = system.ring.reduce(merged.get(rep, 0) + c)
                    if merged[rep] == 0:
                        del merged[rep]
            out.append(merged)
        return out, rhs

    while True:
        merged_rows, _ = rewritten()
        changed = False
        for merged, constant in zip(merged_rows, rhs):
            if constant != 0 or len(merged) != 2:
                continue
            (u, cu), (v, cv) = sorted(merged.items())
            if system.ring is Ring.Z2 or (abs(cu) == 1 and cu == -cv):
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[max(ru, rv)] = min(ru, rv)
                    changed = True
        if not changed:
            break

    representatives = sorted({find(v) for v in range(n_vars)})
    column = {rep: k for k, rep in enumerate(representatives)}
    var_map = [column[find(v)] for v in range(n_vars)]

    reduced_rows: list[list[int]] = []
    reduced_rhs: list[int] = []
    merged_rows, _ = rewritten()
    for merged, constant in zip(merged_rows, rhs):
        if not merged and constant == 0:
            continue
        row = [0] * len(representatives)
        for rep, c in merged.items():
            row[column[rep]] = c
        reduced_rows.append(row)
        reduced_rhs.append(constant)
    return reduced_rows, reduced_rhs, var_map


def _witness_from_solution(
    model: SupportModel, system: ObstructionSystem, solution: Sequence[int]
) -> tuple[LinearCombination, ...]:
    scenario = model.scenario
    per_context: list[LinearCombination] = []
    for ctx in scenario.contexts:
        if ctx.index == system.base:
            per_context.append(embed(system.ring, system.section))
            continue
        coeffs = {
            s: solution[k]
            for k, (owner, s) in enumerate(system.variables)
            if owner == ctx.index
        }
        per_context.append(combination(system.ring, ctx.members, coeffs))
    return tuple(per_context)


def verify_witness(
    model: SupportModel,
    base: int,
    section: Section,
    witness: Sequence[LinearCombination],
    ring: Ring,
) -> bool:
    """Presheaf-level re-check of a witness family, independent of the solver:
    the base entry is 1*section, every entry is supported on its context's
    support, and restrictions agree on every overlap."""
    scenario = model.scenario
    if len(witness) != len(scenario.contexts):
        return False
    if witness[base] != embed(ring, section):
        return False
    for ctx, combo in zip(scenario.contexts, witness):
        if combo.ring is not ring or combo.domain != ctx.members:
            return False
        if any(s not in model.supports[ctx.index] for s in combo.coefficients):
            return False
    n = len(scenario.contexts)
    for i in range(n):
        for j in range(i + 1, n):
            common = set(scenario.contexts[i].members) & set(scenario.contexts[j].members)
            if not common:
                continue
            if restrict_combination(witness[i], common) != restrict_combination(
                witness[j], common
            ):
                return False
    return True


def _require_overlap_consistent(model: SupportModel) -> None:
    violations = support_violations(model)
    if violations:
        raise SignallingError(
            f"support model is possibilistically signalling at {len(violations)} section(s)",
            violations,
        )


def _section_rhs(system: ObstructionSystem, section: Section) -> tuple[int, ...]:
    """The right-hand side of a base context's system at one of its support
    sections: the base side of each equation sums the fixed coefficients of
    the sections in its fiber, which is 1 exactly where the section lies."""
    base, ring = system.base, system.ring
    images: dict[tuple[str, ...], Section] = {}
    rhs = []
    for i, j, restricted in system.equations:
        if base not in (i, j):
            rhs.append(0)
            continue
        image = images.get(restricted.domain)
        if image is None:
            image = images[restricted.domain] = restrict_section(section, restricted.domain)
        rhs.append(ring.reduce(-1 if base == i else 1) if image == restricted else 0)
    return tuple(rhs)


def _conclude(
    model: SupportModel, system: ObstructionSystem, full: SolveResult, identify: bool
) -> ObstructionResult:
    """Turn the solve of the full system into a verdict with its proof.

    With `identify`, the identified system is solved as well; its verdict
    must agree with the full solve, and its solution, expanded through the
    variable-merge map, gives the witness.  Certificates always refer to the
    full system.  Every witness is re-checked at the presheaf level.
    """
    ring, base, section = system.ring, system.base, system.section
    solution = full.solution
    if identify:
        reduced_rows, reduced_rhs, var_map = _identify_variables(system)
        shortcut = solve_linear(reduced_rows, reduced_rhs, ring, width=max(var_map, default=-1) + 1)
        if shortcut.solvable != full.solvable:
            raise VerificationError("variable identification changed the verdict")
        if shortcut.solution is not None:
            solution = tuple(shortcut.solution[var_map[v]] for v in range(len(system.variables)))
    if solution is None:
        return ObstructionResult(ring, base, section, False, None, full.certificate, system)
    witness = _witness_from_solution(model, system, solution)
    if not verify_witness(model, base, section, witness, ring):
        raise VerificationError("witness family failed its presheaf re-check")
    return ObstructionResult(ring, base, section, True, witness, None, system)


def obstruction(
    model: SupportModel,
    base: int | Context,
    section: Section,
    ring: Ring,
    identify: bool = True,
) -> ObstructionResult:
    """Decide whether the obstruction at one support section vanishes.

    `base` may be a context or its cover index.  `identify` enables the
    variable-identification shortcut (merging variables pinned equal by
    single-section overlaps); verdicts are identical with it disabled.
    Raises :class:`SignallingError` if the supports are not
    overlap-consistent, since the restricted supports the system is built
    from would then be ambiguous.
    """
    if isinstance(base, Context):
        base = base.index
    _require_overlap_consistent(model)
    if not 0 <= base < len(model.scenario.contexts):
        raise ValueError(f"no context with index {base}")
    if section not in model.supports[base]:
        raise ValueError(
            f"{section.outcome_string()} is not in the support of context {base}"
        )
    system = build_obstruction_system(model, base, section, ring)
    full = solve_linear(system.matrix, system.rhs, ring, width=len(system.variables))
    return _conclude(model, system, full, identify)


def all_obstructions(
    model: SupportModel, ring: Ring, identify: bool = True
) -> dict[tuple[int, Section], ObstructionResult]:
    """The obstruction verdict for every support section of every context.

    Within one base context only the right-hand side depends on the
    section, so each base context's system is built and factored once and
    every support section is solved against that factorization; the
    results share one matrix.  Verdicts and proofs are those of
    :func:`obstruction`.
    """
    _require_overlap_consistent(model)
    out: dict[tuple[int, Section], ObstructionResult] = {}
    for ctx in model.scenario.contexts:
        sections = model.support_list(ctx.index)
        if not sections:
            continue
        template = build_obstruction_system(model, ctx.index, sections[0], ring)
        factored = factor(template.matrix, ring, width=len(template.variables))
        for s in sections:
            rhs = _section_rhs(template, s)
            system = replace(template, section=s, rhs=rhs)
            out[(ctx.index, s)] = _conclude(model, system, factored.solve(rhs), identify)
    return out
