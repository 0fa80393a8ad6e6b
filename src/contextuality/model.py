"""Empirical models (exact-rational probability tables per context) and
possibilistic support models, with no-signalling and overlap-consistency
checking and generators for one-hot and parity supports.

All probabilities are `fractions.Fraction`; nothing in this module touches
floating point, so marginal comparisons are exact equalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .scenario import Context, Scenario, Section, enumerate_sections, restrict_section

# A declared field that an instance fills on first use, not a
# functools.cached_property: writing through __dict__ would turn the
# instance's attribute storage into a plain dict and slow every attribute
# read in the hot loops that use it.
_FILLED_ON_FIRST_USE = dict(default=None, init=False, repr=False, compare=False)

# One row of SupportModel.overlap_table: a context pair i < j, a section of
# their overlap, and the positions in `support_list(i)` and in
# `support_list(j)` of the support sections restricting to it.
OverlapFiber = tuple[int, int, Section, tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class SignallingViolation:
    """A context pair whose marginals disagree at one restricted section."""

    first: int
    second: int
    section: Section
    first_marginal: Fraction
    second_marginal: Fraction


@dataclass(frozen=True)
class SupportViolation:
    """A restricted section possible in one context of a pair but not the other."""

    first: int
    second: int
    section: Section
    present_in: int


class SignallingError(ValueError):
    """A model failed marginal compatibility (probabilistic or possibilistic)."""

    def __init__(self, message: str, violations: Sequence = ()):  # noqa: ANN001
        super().__init__(message)
        self.violations = tuple(violations)


@dataclass(frozen=True)
class EmpiricalModel:
    """Per-context probability tables over the sections of each context."""

    scenario: Scenario
    tables: tuple[dict[Section, Fraction], ...]
    # (nonzero support, violations), filled by the first `check_no_signalling`.
    _no_signalling: tuple | None = field(**_FILLED_ON_FIRST_USE)


@dataclass(frozen=True)
class SupportModel:
    """Per-context sets of possible sections."""

    scenario: Scenario
    supports: tuple[frozenset[Section], ...]
    # Filled on first use of `overlap_table`, `support_list` and
    # `support_violations`.
    _overlap_table: tuple[OverlapFiber, ...] | None = field(**_FILLED_ON_FIRST_USE)
    _support_lists: tuple[tuple[Section, ...], ...] | None = field(**_FILLED_ON_FIRST_USE)
    _support_violations: tuple[SupportViolation, ...] | None = field(**_FILLED_ON_FIRST_USE)

    def support_list(self, index: int) -> list[Section]:
        """Support of one context in canonical section order, sorted once."""
        if self._support_lists is None:
            key = self.scenario.section_sort_key
            sorted_supports = tuple(tuple(sorted(s, key=key)) for s in self.supports)
            object.__setattr__(self, "_support_lists", sorted_supports)
        return list(self._support_lists[index])

    @property
    def overlap_table(self) -> tuple[OverlapFiber, ...]:
        """The fibers of restriction to every overlap, computed once.

        For each pair (i, j, carrier) of :attr:`Scenario.overlaps` and each
        section of the carrier that a support section of i or of j restricts
        to, in canonical order: (i, j, section, fiber in i, fiber in j), each
        fiber the ascending positions of its sections in
        :meth:`support_list` of its context.  A one-sided section has an
        empty fiber.
        """
        if self._overlap_table is None:
            table: list[OverlapFiber] = []
            contexts = self.scenario.contexts
            for i, j, carrier in self.scenario.overlaps:
                # Fibers keyed on the carrier's values, read off by position.
                fibers: dict[tuple[str, ...], tuple[list[int], list[int]]] = {}
                for side, index in enumerate((i, j)):
                    restrict = itemgetter(*map(contexts[index].members.index, carrier))
                    for k, s in enumerate(self.support_list(index)):
                        if (fiber := fibers.get(values := restrict(s.values))) is None:
                            fiber = fibers[values] = ([], [])
                        fiber[side].append(k)
                if len(carrier) == 1:  # itemgetter of one position gives a bare value
                    fibers = {(value,): fiber for value, fiber in fibers.items()}
                restricted = [Section(carrier, values) for values in fibers]
                for section in sorted(restricted, key=self.scenario.section_sort_key):
                    left, right = fibers[section.values]
                    table.append((i, j, section, tuple(left), tuple(right)))
            object.__setattr__(self, "_overlap_table", tuple(table))
        return self._overlap_table


def empirical_model(
    scenario: Scenario,
    tables: Sequence[Mapping[Section, Fraction | int]],
) -> EmpiricalModel:
    """Validate probability tables: keys within E(C), values nonnegative,
    sums exactly 1.  Missing sections are filled with probability 0."""
    if len(tables) != len(scenario.contexts):
        raise ValueError(
            f"expected {len(scenario.contexts)} tables, got {len(tables)}"
        )
    full: list[dict[Section, Fraction]] = []
    for ctx, table in zip(scenario.contexts, tables):
        _require_sections(scenario, ctx, table)
        filled = {}
        for s in enumerate_sections(scenario, ctx.members):
            p = Fraction(table.get(s, 0))
            if p < 0:
                raise ValueError(
                    f"context {ctx.index}: negative probability {p} at {s.outcome_string()}"
                )
            filled[s] = p
        total = sum(filled.values())
        if total != 1:
            raise ValueError(f"context {ctx.index}: probabilities sum to {total}, expected 1")
        full.append(filled)
    return EmpiricalModel(scenario, tuple(full))


def support_model(
    scenario: Scenario, supports: Sequence[Iterable[Section]]
) -> SupportModel:
    """Validate per-context support sets: nonempty subsets of E(C), each
    section checked by its labels; E(C) itself is never enumerated."""
    if len(supports) != len(scenario.contexts):
        raise ValueError(
            f"expected {len(scenario.contexts)} support sets, got {len(supports)}"
        )
    frozen: list[frozenset[Section]] = []
    for ctx, support in zip(scenario.contexts, supports):
        sections = frozenset(support)
        if not sections:
            raise ValueError(f"context {ctx.index}: support must be nonempty")
        _require_sections(scenario, ctx, sections)
        frozen.append(sections)
    return SupportModel(scenario, tuple(frozen))


def _require_sections(scenario: Scenario, ctx: Context, entries: Iterable) -> None:
    """Raise unless every entry lies in E(C): a `Section` on the context's
    members whose values are a tuple of declared outcome labels."""
    labels = set(scenario.outcomes)
    for s in entries:
        typed = type(s) is Section and s.domain == ctx.members and type(s.values) is tuple
        if not (typed and labels.issuperset(s.values)):
            raise ValueError(f"context {ctx.index}: {s} is not a section of {ctx.members}")


def marginalize(
    table: Mapping[Section, Fraction], target: Iterable[str]
) -> dict[Section, Fraction]:
    """Marginal of a distribution on E(U') to a subset U: sum over fibers."""
    keys = list(table)
    if not keys:
        raise ValueError("cannot marginalize an empty table")
    wanted = set(target)
    if not wanted <= set(keys[0].domain):
        raise ValueError(
            f"target {sorted(wanted)} is not a subset of the table domain {keys[0].domain}"
        )
    out: dict[Section, Fraction] = {}
    for section, p in table.items():
        reduced = restrict_section(section, wanted)
        out[reduced] = out.get(reduced, Fraction(0)) + p
    return out


def check_no_signalling(model: EmpiricalModel) -> list[SignallingViolation]:
    """Marginal disagreements across intersecting context pairs, one
    violation per disagreeing pair (at the first restricted section where
    the marginals differ, in canonical order).

    Each marginal is an exact sum over one fiber of the nonzero support's
    `overlap_table` (0 off its rows), summed as integer numerators over its
    table's common denominator, one per support position; empty means a
    compatible family.  The support and the violations are found once per
    model and kept.
    """
    if model._no_signalling is None:
        supports = [frozenset(s for s, p in table.items() if p != 0) for table in model.tables]
        support = support_model(model.scenario, supports)
        rows = support.overlap_table
        scales = [lcm(*(p.denominator for p in table.values())) for table in model.tables]
        # By support position, in the sorted supports the table was built
        # from (none were listed if no contexts overlap, and none are read).
        numerators = [
            [table[s].numerator * (scale // table[s].denominator) for s in listed]
            for table, scale, listed in zip(model.tables, scales, support._support_lists or ())
        ]
        violations: list[SignallingViolation] = []
        for i, j, section, left, right in rows:
            if violations and (violations[-1].first, violations[-1].second) == (i, j):
                continue
            a = sum(numerators[i][p] for p in left)
            b = sum(numerators[j][p] for p in right)
            if a * scales[j] != b * scales[i]:
                a, b = Fraction(a, scales[i]), Fraction(b, scales[j])
                violations.append(SignallingViolation(i, j, section, a, b))
        object.__setattr__(model, "_no_signalling", (support, tuple(violations)))
    return list(model._no_signalling[1])


def support_of(model: EmpiricalModel) -> SupportModel:
    """Support sets of a no-signalling model; signalling models are rejected
    because their restricted supports would depend on the context chosen.
    The model's first :func:`check_no_signalling` answers every call."""
    violations = model._no_signalling[1] if model._no_signalling else check_no_signalling(model)
    if violations:
        raise SignallingError(
            f"model is signalling on {len(violations)} context pair(s)", violations
        )
    return model._no_signalling[0]


def support_violations(model: SupportModel) -> list[SupportViolation]:
    """Overlap-consistency failures of a support model.

    For each intersecting context pair, the two sets of restricted possible
    sections must coincide; any one-sided section is reported.  The overlap
    table is walked once per model; each call returns a fresh list.
    """
    if model._support_violations is None:
        found = [
            SupportViolation(i, j, section, j if right else i)
            for i, j, section, left, right in model.overlap_table
            if not (left and right)
        ]
        object.__setattr__(model, "_support_violations", tuple(found))
    return list(model._support_violations)


def require_overlap_consistent(model: SupportModel) -> SupportModel:
    """Return the model, or raise :class:`SignallingError` listing its
    :func:`support_violations`, found once per model."""
    violations = support_violations(model)
    if violations:
        raise SignallingError(
            f"support is possibilistically signalling at {len(violations)} section(s)",
            violations,
        )
    return model


def _require_binary(scenario: Scenario) -> None:
    if set(scenario.outcomes) != {"0", "1"}:
        raise ValueError(f'outcomes must be exactly "0" and "1", got {scenario.outcomes}')


def ks_support(scenario: Scenario) -> SupportModel:
    """One-hot supports: per context, the sections assigning 1 to exactly one
    measurement and 0 to the rest."""
    _require_binary(scenario)
    supports = []
    for ctx in scenario.contexts:
        sections = {
            Section(ctx.members, tuple("1" if m == chosen else "0" for m in ctx.members))
            for chosen in ctx.members
        }
        supports.append(sections)
    return support_model(scenario, supports)


def parity_support(scenario: Scenario, parities: Sequence[int]) -> SupportModel:
    """Per-context parity supports: sections whose number of 1-outcomes is
    odd where the context's bit is 1, even where it is 0."""
    _require_binary(scenario)
    if len(parities) != len(scenario.contexts):
        raise ValueError(
            f"expected {len(scenario.contexts)} parity bits, got {len(parities)}"
        )
    supports = []
    for ctx, bit in zip(scenario.contexts, parities):
        if bit not in (0, 1):
            raise ValueError(f"parity bit must be 0 or 1, got {bit!r}")
        supports.append(
            {
                s
                for s in enumerate_sections(scenario, ctx.members)
                if s.values.count("1") % 2 == bit
            }
        )
    return support_model(scenario, supports)


def assignment_count(scenario: Scenario) -> int:
    """|O| ** |X|, the size of the global assignment space."""
    return len(scenario.outcomes) ** len(scenario.measurements)
