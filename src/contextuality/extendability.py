"""The global-section oracle and the classification it induces.

Global sections are the compatible families of support sections (Abramsky
& Brandenburger, NJP 13:113036, 2011).  The search joins the supports one
context at a time, most-constrained first, on tuples of outcome indices in
measurement order: one table per step maps the values already on a
context's members to its support rows' values on the rest (forward
checking).  Outside the search, each context's distinct restrictions of the
results are re-checked as sections against the untouched supports; they
give every extendability flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from .model import SupportModel
from .scenario import Context, Section


class Verdict(Enum):
    NON_CONTEXTUAL = "non_contextual_possibilistic"
    CONTEXTUAL = "contextual"
    STRONGLY_CONTEXTUAL = "strongly_contextual"


@dataclass(frozen=True)
class Classification:
    """Model verdict plus the full per-support-section extendability map."""

    verdict: Verdict
    extendable: dict[tuple[int, Section], bool]
    global_sections: tuple[Section, ...]


def _plan(model: SupportModel) -> list[Context]:
    """The contexts in search order: most already-assigned members first,
    then smallest support, then lowest index."""
    order, remaining, assigned = [], list(model.scenario.contexts), set()
    while remaining:
        order.append(min(remaining, key=lambda c: (
            -len(assigned.intersection(c.members)), len(model.supports[c.index]), c.index)))
        remaining.remove(order[-1])
        assigned.update(order[-1].members)
    return order


def _search(model: SupportModel) -> list[tuple[int, ...]]:
    """Every global section as a tuple of outcome indices, unordered."""
    scenario = model.scenario
    values = [0] * len(scenario.measurements)  # also scratch for the tables
    steps, assigned = [], set()
    for ctx in _plan(model):
        members = [scenario.position(m) for m in ctx.members]
        bound = [p for p in members if p in assigned]
        new = [p for p in members if p not in assigned]
        assigned.update(new)
        key = itemgetter(*bound) if bound else lambda _: ()  # one position: a bare key
        table: dict = {}
        for s in model.supports[ctx.index]:
            for p, v in zip(members, s.values):
                values[p] = scenario.outcome_index(v)
            table.setdefault(key(values), []).append(tuple(values[p] for p in new))
        steps.append((key, new, table))
    found = []

    def extend(k: int) -> None:
        if k == len(steps):
            found.append(tuple(values))
            return
        key, new, table = steps[k]
        for candidate in table.get(key(values), ()):
            for p, v in zip(new, candidate):
                values[p] = v
            extend(k + 1)

    extend(0)
    return found


def _checked(model: SupportModel, found: list) -> tuple[list[Section], list[set[Section]]]:
    """Sort the index tuples `found` and turn them into sections in place;
    also return each context's distinct restrictions of them, as sections.
    RuntimeError unless every restriction lies in its context's support."""
    scenario, outcomes = model.scenario, model.scenario.outcomes
    found.sort()
    restrictions = []
    for ctx in scenario.contexts:
        columns = [map(itemgetter(scenario.position(m)), found) for m in ctx.members]
        seen = {Section(ctx.members, tuple([outcomes[v] for v in k])) for k in set(zip(*columns))}
        if not seen <= model.supports[ctx.index]:
            raise RuntimeError(f"search produced a non-global section (context {ctx.index})")
        restrictions.append(seen)
    for k, entries in enumerate(found):  # in place: never hold both forms
        found[k] = Section(scenario.measurements, tuple([outcomes[v] for v in entries]))
    return found, restrictions


def global_sections(model: SupportModel) -> list[Section]:
    """All assignments on the full measurement set whose restriction to every
    context lies in that context's support, in canonical order."""
    return _checked(model, _search(model))[0]


def is_extendable_at(model: SupportModel, context: Context, section: Section) -> bool:
    """True iff some global section restricts to `section` on the context."""
    if section not in model.supports[context.index]:
        raise ValueError(
            f"{section.outcome_string()} is not in the support of context {context.index}"
        )
    return section in _checked(model, _search(model))[1][context.index]


def classify(model: SupportModel) -> Classification:
    """Verdict from the full extendability map.

    All support sections extendable: not contextual at the possibilistic
    level.  None extendable (equivalently: no global section): strongly
    contextual.  Otherwise: contextual.
    """
    sections, restrictions = _checked(model, _search(model))
    flags = {
        (ctx.index, s): s in restrictions[ctx.index]
        for ctx in model.scenario.contexts
        for s in model.support_list(ctx.index)
    }
    if all(flags.values()):
        verdict = Verdict.NON_CONTEXTUAL
    elif not any(flags.values()):
        verdict = Verdict.STRONGLY_CONTEXTUAL
    else:
        verdict = Verdict.CONTEXTUAL
    return Classification(verdict, flags, tuple(sections))
