"""The global-section oracle and the classification it induces.

Global sections are the compatible families of support sections (Abramsky
& Brandenburger, NJP 13:113036, 2011).  The oracle joins the supports one
context at a time, most-constrained first, on tuples of outcome indices in
measurement order: one table per step maps the values already on a
context's members to its support rows' values on the rest.

It counts global sections without listing them.  The completions of a
partial assignment depend only on its values on the step's frontier, the
measurements already assigned that this step or a later one reads, so one
depth-first search memoizes the number of completions on the frontier at
every step (bucket elimination along the context order: Dechter, AIJ 113,
1999).  A support row is extendable iff the search meets it with a nonzero
count.  Each extendable row is proved by a global section, completed from
the first place the search met it along memo entries with nonzero counts,
preferring rows no proof has passed through yet, so that few proofs cover
all the rows; outside the search, each context's distinct restrictions of
these proofs are re-checked as sections against the untouched supports, and
they give every extendability flag.  The proofs are kept: each also
witnesses that the obstruction of every section it passes through vanishes.
The list of global sections is built only on demand, by walking the live
memo entries of the search that counted them, so it never backtracks out of
a dead branch.  It is kept as sorted tuples of outcome indices, and a
`Section` is built only where one is read.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Callable

from .linalg import VerificationError
from .model import SupportModel
from .scenario import Context, Section


class Verdict(Enum):
    NON_CONTEXTUAL = "non_contextual_possibilistic"
    CONTEXTUAL = "contextual"
    STRONGLY_CONTEXTUAL = "strongly_contextual"


class SearchLimit(Exception):
    """The search memoized more frontier states than its limit allows."""


class _LazySections(Sequence):
    """A model's global sections as a read-only tuple.  They are listed once,
    on first use, from a finished search (`_steps`, memo, width) and kept as
    sorted tuples of outcome indices; a `Section` is built for each element
    read.  Its length is the count, and `len` and `bool` list nothing."""

    __slots__ = ("_model", "_count", "_search", "_found")

    def __init__(self, model: SupportModel, count: int, search: tuple[list, list, int]):
        self._model, self._count, self._found = model, count, None
        self._search = search if count else None  # held until listed

    def indices(self) -> list[tuple[int, ...]]:
        """The global sections as outcome-index tuples, in canonical order."""
        if self._found is None:
            found = _checked(self._model, _enumerate(*self._search))[0] if self._count else []
            self._found, self._search = found, None
        return self._found

    def _section(self, values: tuple[int, ...]) -> Section:
        scenario = self._model.scenario
        return Section(scenario.measurements, tuple([scenario.outcomes[v] for v in values]))

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:  # not through len(), which fails past sys.maxsize
        return self._count > 0

    def __getitem__(self, index):  # noqa: ANN001
        if isinstance(index, slice):
            return tuple(map(self._section, self.indices()[index]))
        return self._section(self.indices()[index])

    def __iter__(self):
        return map(self._section, self.indices())

    def __eq__(self, other) -> bool:  # noqa: ANN001
        return tuple(self) == other

    def __repr__(self) -> str:
        return f"<{self._count} global sections>"


@dataclass(frozen=True)
class Classification:
    """Model verdict, the full per-support-section extendability map, the
    exact number of global sections, which `global_sections` lists only
    when read (its `indices()` are the outcome-index tuples), and the
    re-checked proof sections, sorted outcome-index tuples that together pass
    through every extendable support section."""

    verdict: Verdict
    extendable: dict[tuple[int, Section], bool]
    global_sections: Sequence[Section]
    count: int
    proofs: tuple[tuple[int, ...], ...]


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


def _key(positions: list[int]) -> Callable:
    """The values at `positions` of an assignment; one position: a bare value."""
    return itemgetter(*positions) if positions else lambda _: ()


def _steps(model: SupportModel) -> list[tuple]:
    """One step per context of `_plan`, on tuples of outcome indices: (key
    of its members that earlier steps assigned, the positions of its other
    members, table from that key to its support rows' values on those, in
    canonical order, key of its frontier, key of all its members).  The
    frontier is what earlier steps assigned and this or a later step reads."""
    scenario, position = model.scenario, model.scenario.positions
    index = {o: i for i, o in enumerate(scenario.outcomes)}
    plan = [(ctx, [position[m] for m in ctx.members]) for ctx in _plan(model)]
    last = {p: k for k, (_, members) in enumerate(plan) for p in members}  # last reader
    values = [0] * len(scenario.measurements)  # scratch for the keys
    steps, frontier = [], []
    for k, (ctx, members) in enumerate(plan):
        bound = [p for p in members if p in frontier]
        new = [p for p in members if p not in frontier]
        key, table = _key(bound), {}
        for s in model.support_list(ctx.index):
            for p, v in zip(members, s.values):
                values[p] = index[v]
            table.setdefault(key(values), []).append(tuple([values[p] for p in new]))
        steps.append((key, new, table, _key(frontier), _key(members)))
        frontier = [p for p in frontier + new if last[p] > k]
    return steps


def _search(
    steps: list[tuple], width: int, limit: int | None = None
) -> tuple[int, list[dict], list[dict]]:
    """The number of global sections, by a depth-first search memoized on
    the frontier.  Also returns the memo (per step, frontier values to
    completions; a state with no table row is left out) and the live rows
    (per step, the values of each row met with a nonzero count, to a copy
    of the assignment it was first met in).  SearchLimit once the memo
    holds more than `limit` states."""
    memo: list[dict] = [{} for _ in steps]
    live: list[dict] = [{} for _ in steps]
    values, last = [0] * width, len(steps) - 1
    room = sys.maxsize if limit is None else limit  # states the memo may still take

    def completions(k: int, state, rows: list) -> int:  # noqa: ANN001
        nonlocal room
        room -= 1
        if room < 0:
            raise SearchLimit(f"the search memoized more than {limit} frontier states")
        _, new, _, _, row = steps[k]
        first, total = live[k], 0
        if k < last:
            child_key, _, child_table, child_frontier, _ = steps[k + 1]
            child_memo = memo[k + 1]
        for candidate in rows:
            for p, v in zip(new, candidate):
                values[p] = v
            if k == last:
                count = 1
            else:
                child_rows = child_table.get(child_key(values))
                if child_rows is None:
                    continue
                child = child_frontier(values)
                count = child_memo.get(child)
                if count is None:
                    count = completions(k + 1, child, child_rows)
            if count:
                total += count
                if row(values) not in first:
                    first[row(values)] = values.copy()
        memo[k][state] = total
        return total

    try:
        count = completions(0, (), steps[0][2][()])
    finally:
        del completions  # it refers to itself: free it and its cells without the cycle collector
    return count, memo, live


def _proofs(steps: list[tuple], memo: list[dict], live: list[dict]) -> list[tuple[int, ...]]:
    """A global section through every live row, emptying `live`: the first
    row left is completed from the assignment it was met in, taking at every
    later step the first row whose completion count is nonzero and that is
    still live, or else the first row whose count is nonzero, and the rows
    the completion passes through are removed."""
    proofs: list[tuple[int, ...]] = []
    last = len(steps) - 1
    for k, rows in enumerate(live):
        while rows:
            values = rows.pop(next(iter(rows)))
            for j in range(k + 1, len(steps)):
                key, new, table, _, row = steps[j]
                fallback = None
                for candidate in table[key(values)]:
                    for p, v in zip(new, candidate):
                        values[p] = v
                    if j == last or memo[j + 1].get(steps[j + 1][3](values)):
                        if row(values) in live[j]:
                            break
                        if fallback is None:
                            fallback = candidate
                else:
                    for p, v in zip(new, fallback):
                        values[p] = v
                live[j].pop(row(values), None)
            proofs.append(tuple(values))
    return proofs


def _enumerate(steps: list[tuple], memo: list[dict], width: int) -> list[tuple[int, ...]]:
    """Every global section as a tuple of outcome indices, unordered, walking
    only rows whose completion count is nonzero: each step reads its child's
    memo on the child's frontier, and every row of the last step completes."""
    found, values, last = [], [0] * width, len(steps) - 1
    walk = [
        (key, new, table) + ((steps[k + 1][3], memo[k + 1]) if k < last else (None, None))
        for k, (key, new, table, _, _) in enumerate(steps)
    ]

    def extend(k: int) -> None:
        key, new, table, child, child_memo = walk[k]
        for candidate in table[key(values)]:
            for p, v in zip(new, candidate):
                values[p] = v
            if k == last:
                found.append(tuple(values))
            elif child_memo.get(child(values)):
                extend(k + 1)

    extend(0)
    del extend  # as in `_search`: no cycle keeps `found` alive
    return found


def _checked(model: SupportModel, found: list) -> tuple[list[tuple[int, ...]], list[set[Section]]]:
    """Sort the index tuples `found` in place and return them with each
    context's distinct restrictions of them, as sections.  VerificationError
    unless every restriction lies in its context's support."""
    scenario, outcomes = model.scenario, model.scenario.outcomes
    found.sort()
    restrictions = []
    for ctx in scenario.contexts:
        columns = [map(itemgetter(scenario.positions[m]), found) for m in ctx.members]
        seen = {Section(ctx.members, tuple([outcomes[v] for v in k])) for k in set(zip(*columns))}
        if not seen <= model.supports[ctx.index]:
            raise VerificationError(f"search produced a non-global section (context {ctx.index})")
        restrictions.append(seen)
    return found, restrictions


def global_sections(model: SupportModel) -> list[Section]:
    """All assignments on the full measurement set whose restriction to every
    context lies in its support, in canonical order, listed by :func:`classify`."""
    return list(classify(model).global_sections)


def is_extendable_at(model: SupportModel, context: Context, section: Section) -> bool:
    """True iff some global section restricts to `section` on the context."""
    if section not in model.supports[context.index]:
        raise ValueError(
            f"{section.outcome_string()} is not in the support of context {context.index}"
        )
    return classify(model).extendable[context.index, section]


def classify(model: SupportModel, limit: int | None = None) -> Classification:
    """Verdict from the full extendability map.

    All support sections extendable: not contextual at the possibilistic
    level.  None extendable (equivalently: no global section): strongly
    contextual.  Otherwise: contextual.

    The oracle's one run.  VerificationError unless the re-checked proof
    sections cover exactly the support rows the search found live;
    SearchLimit if the search memoizes more than `limit` frontier states.
    """
    steps, width = _steps(model), len(model.scenario.measurements)
    count, memo, live = _search(steps, width, limit)
    extendable = sum(map(len, live))
    if count:
        proofs, restrictions = _checked(model, _proofs(steps, memo, live))
    else:  # no proof to re-check
        proofs, restrictions = [], [set() for _ in model.scenario.contexts]
    if sum(map(len, restrictions)) != extendable:
        raise VerificationError("proof sections do not cover exactly the extendable rows")
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
    sections = _LazySections(model, count, (steps, memo, width))
    return Classification(verdict, flags, sections, count, tuple(proofs))
