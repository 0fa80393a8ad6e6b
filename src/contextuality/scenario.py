"""Measurement scenarios: measurement and outcome sets, covers of contexts,
outcome sections, and the nerve of the cover.

All types are immutable after construction and safe to share between
concurrent tasks.  Every collection is kept in a canonical order
(measurements in global order, outcomes in declaration order, simplices in
lexicographic vertex order) so downstream matrices and reports are
deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations, permutations, product
from typing import Iterable, Sequence


class CoverWarning(UserWarning):
    """Raised for legal but unusual covers, e.g. a context inside another."""


@dataclass(frozen=True)
class Context:
    """One jointly measurable set of measurements at a fixed cover position."""

    index: int
    members: tuple[str, ...]


@dataclass(frozen=True)
class Section:
    """An assignment of one outcome to each measurement of `domain`."""

    domain: tuple[str, ...]
    values: tuple[str, ...]

    def __post_init__(self):
        if len(self.domain) != len(self.values):
            raise ValueError(
                f"section needs one value per measurement: "
                f"{len(self.domain)} measurements, {len(self.values)} values"
            )
        if len(set(self.domain)) != len(self.domain):
            raise ValueError(f"duplicate measurements in section domain {self.domain}")

    def outcome_string(self) -> str:
        """Comma-joined outcome tuple, the external name of the section."""
        return ",".join(self.values)


@dataclass(frozen=True)
class Simplex:
    """A tuple of cover indices with nonempty common intersection (carrier)."""

    vertices: tuple[int, ...]
    carrier: tuple[str, ...]

    @property
    def degree(self) -> int:
        return len(self.vertices) - 1


@dataclass(frozen=True)
class Scenario:
    """A finite measurement set, outcome set, and cover of contexts.

    Use :func:`build_scenario`; it canonicalizes and validates the parts.
    """

    measurements: tuple[str, ...]
    outcomes: tuple[str, ...]
    contexts: tuple[Context, ...]
    # Each measurement's index in `measurements`, built once.
    positions: dict[str, int] = field(init=False, repr=False, compare=False)
    # Each outcome label's index in `outcomes`, built once.
    outcome_indices: dict[str, int] = field(init=False, repr=False, compare=False)
    # The indices of the contexts holding each measurement, ascending, built once.
    holders: dict[str, list[int]] = field(init=False, repr=False, compare=False)
    # Every intersecting context pair (i, j), i < j, in lexicographic order,
    # with its common measurements in global order, built once. The pairs
    # are read off `holders`, so only intersecting pairs are visited.
    overlaps: tuple[tuple[int, int, tuple[str, ...]], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "positions", {m: k for k, m in enumerate(self.measurements)})
        object.__setattr__(self, "outcome_indices", {o: k for k, o in enumerate(self.outcomes)})
        holders: dict[str, list[int]] = {m: [] for m in self.measurements}
        for c in self.contexts:
            for m in c.members:
                holders[m].append(c.index)
        object.__setattr__(self, "holders", holders)
        pairs = sorted({pair for owners in holders.values() for pair in combinations(owners, 2)})
        object.__setattr__(self, "overlaps", tuple((*p, _carrier(self, p)) for p in pairs))

    def section_sort_key(self, section: Section) -> tuple[int, ...]:
        return tuple(map(self.outcome_indices.__getitem__, section.values))


def build_scenario(
    measurements: Sequence[str],
    outcomes: Sequence[str],
    contexts: Iterable[Sequence[str]],
) -> Scenario:
    """Validate and canonicalize a scenario.

    Context members are stored sorted by global measurement order.  Exact
    duplicate contexts are rejected; a context contained in another is legal
    but triggers a :class:`CoverWarning`.
    """
    measurements = tuple(measurements)
    outcomes = tuple(str(o) for o in outcomes)
    if not measurements:
        raise ValueError("scenario needs at least one measurement")
    if len(set(measurements)) != len(measurements):
        raise ValueError("measurement labels must be distinct")
    if len(outcomes) < 2:
        raise ValueError("scenario needs at least two outcomes")
    if len(set(outcomes)) != len(outcomes):
        raise ValueError("outcome labels must be distinct")
    for label in outcomes:
        if "," in label or label == "":
            raise ValueError(f"bad outcome label {label!r}: must be nonempty, no commas")

    position = {m: i for i, m in enumerate(measurements)}
    canonical: list[Context] = []
    for raw in contexts:
        members = tuple(raw)
        if not members:
            raise ValueError("empty context")
        if len(set(members)) != len(members):
            raise ValueError(f"duplicate measurements in context {members}")
        for m in members:
            if m not in position:
                raise ValueError(f"context member {m!r} is not a declared measurement")
        ordered = tuple(sorted(members, key=position.__getitem__))
        canonical.append(Context(len(canonical), ordered))

    if not canonical:
        raise ValueError("cover must contain at least one context")
    seen: dict[tuple[str, ...], int] = {}
    for ctx in canonical:
        if ctx.members in seen:
            raise ValueError(
                f"duplicate context {ctx.members} at positions {seen[ctx.members]} and {ctx.index}"
            )
        seen[ctx.members] = ctx.index

    covered = set()
    for ctx in canonical:
        covered.update(ctx.members)
    missing = [m for m in measurements if m not in covered]
    if missing:
        raise ValueError(f"cover does not reach measurements {missing}")

    scenario = Scenario(measurements, outcomes, tuple(canonical))
    # The contexts are distinct, so one lies inside another exactly when
    # their overlap is all of its members.
    nested = []
    for i, j, common in scenario.overlaps:
        nested += [(a, b) for a, b in ((i, j), (j, i)) if canonical[a].members == common]
    for a, b in sorted(nested):
        message = f"context {canonical[a].members} is contained in context {canonical[b].members}"
        warnings.warn(message, CoverWarning, stacklevel=2)
    return scenario


def restrict_section(section: Section, target: Iterable[str]) -> Section:
    """Restrict a section to a subset of its domain (function restriction)."""
    wanted = set(target)
    extra = wanted - set(section.domain)
    if extra:
        raise ValueError(f"cannot restrict to {sorted(extra)}: outside section domain")
    dom = tuple(m for m in section.domain if m in wanted)
    vals = tuple(v for m, v in zip(section.domain, section.values) if m in wanted)
    return Section(dom, vals)


def canonical_subset(scenario: Scenario, subset: Iterable[str]) -> tuple[str, ...]:
    """Sort a measurement subset into global order, validating membership."""
    unique = set(subset)
    for m in unique:
        if m not in scenario.positions:
            raise ValueError(f"{m!r} is not a measurement of the scenario")
    return tuple(sorted(unique, key=scenario.positions.__getitem__))


def enumerate_sections(scenario: Scenario, subset: Iterable[str]) -> list[Section]:
    """All outcome assignments on `subset`, in canonical lexicographic order.

    Outcomes vary fastest on the last measurement, so for binary outcomes on
    a pair the order is (0,0), (0,1), (1,0), (1,1).
    """
    domain = canonical_subset(scenario, subset)
    return [Section(domain, values) for values in product(scenario.outcomes, repeat=len(domain))]


def _carrier(scenario: Scenario, vertices: tuple[int, ...]) -> tuple[str, ...]:
    members = [set(scenario.contexts[v].members) for v in vertices]
    common = set.intersection(*members)
    return tuple(m for m in scenario.contexts[vertices[0]].members if m in common)


def nerve(scenario: Scenario, max_q: int) -> list[list[Simplex]]:
    """Simplices of the cover's nerve, per dimension 0..max_q, each in
    lexicographic vertex order.

    A q-simplex is an ordered tuple of q+1 distinct cover indices whose
    contexts have a common measurement.  Dimension 0 is exactly the cover.
    The tuples are read off `Scenario.holders`: every one is an ordering of
    q+1 contexts holding one measurement, so no other tuple is visited.
    """
    if max_q < 0:
        raise ValueError("max_q must be nonnegative")
    dims: list[list[Simplex]] = [
        [Simplex((c.index,), c.members) for c in scenario.contexts]
    ]
    for q in range(1, max_q + 1):
        tuples = {t for held in scenario.holders.values() for t in permutations(held, q + 1)}
        dims.append([Simplex(t, _carrier(scenario, t)) for t in sorted(tuples)])
    return dims


def face(scenario: Scenario, simplex: Simplex, j: int) -> Simplex:
    """The face obtained by omitting vertex j; its carrier contains the original's."""
    q = simplex.degree
    if q < 1:
        raise ValueError("a 0-simplex has no faces")
    if not 0 <= j <= q:
        raise IndexError(f"face index {j} out of range for a {q}-simplex")
    vertices = simplex.vertices[:j] + simplex.vertices[j + 1 :]
    return Simplex(vertices, _carrier(scenario, vertices))


def is_connected(scenario: Scenario) -> bool:
    """True iff every pair of contexts is joined by a chain of pairwise
    intersecting contexts."""
    neighbours: list[set[int]] = [set() for _ in scenario.contexts]
    for i, j, _ in scenario.overlaps:
        neighbours[i].add(j)
        neighbours[j].add(i)
    seen = {0}
    frontier = [0]
    while frontier:
        reached = neighbours[frontier.pop()] - seen
        seen |= reached
        frontier.extend(reached)
    return len(seen) == len(scenario.contexts)
