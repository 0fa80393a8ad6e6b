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
The list of global sections is built only on demand, from the live memo
entries of the search that counted them, each listing its completions once,
so it never backtracks out of a dead branch; a count of 0 lists nothing.
They are packed rows (`bytes` of outcome indices, which sort as the index
tuples do), re-checked in bulk by the function that re-checks the proofs,
which tests each byte column for each value once, for all the contexts
that hold its measurement, and kept as sorted outcome strings, cut from one
text of equal-width slots; a `Section` is built only where one is read.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from heapq import heapify, heappop, heappush
from functools import reduce
from itertools import compress, repeat
from operator import and_, itemgetter, or_
from struct import iter_unpack
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
    on first use, from a finished search (`_steps` and memo), and kept as
    their outcome strings in canonical order; a `Section` is built for each
    element read.  Its length is the count, and `len` and `bool` list nothing.
    With a count of 0 it is empty from the start: no blob is built, re-checked
    or written as text."""

    __slots__ = ("_model", "_count", "_search", "_found")

    def __init__(self, model: SupportModel, count: int, search: tuple[list, list]):
        self._model, self._count = model, count
        # The search is held until listed.
        self._found, self._search = (None, search) if count else ([], None)

    def _listed(self) -> list[str]:
        if self._found is None:
            blob = _listing(self._model, *self._search)
            _recheck(self._model, blob)
            self._found, self._search = _outcome_strings(self._model, blob), None
        return self._found

    def outcome_strings(self) -> list[str]:
        """Each global section's `outcome_string()`, in canonical order."""
        return self._listed()[:]

    def _section(self, text: str) -> Section:
        return Section(self._model.scenario.measurements, tuple(text.split(",")))

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:  # not through len(), which fails past sys.maxsize
        return self._count > 0

    def __getitem__(self, index):  # noqa: ANN001
        found = self._listed()[index]
        return tuple(map(self._section, found)) if isinstance(index, slice) else self._section(found)

    def __iter__(self):
        return map(self._section, self._listed())

    def __eq__(self, other) -> bool:  # noqa: ANN001
        return tuple(self) == other

    def __repr__(self) -> str:
        return f"<{self._count} global sections>"


@dataclass(frozen=True)
class Classification:
    """Model verdict, the full per-support-section extendability map, the
    exact number of global sections, which `global_sections` lists only
    when read (and names by `outcome_strings()` without building a
    `Section`), and the re-checked proof sections, sorted outcome-index
    tuples that together pass through every extendable support section."""

    verdict: Verdict
    extendable: dict[tuple[int, Section], bool]
    global_sections: Sequence[Section]
    count: int
    proofs: tuple[tuple[int, ...], ...]


def _plan(model: SupportModel) -> list[Context]:
    """The contexts in search order: most already-assigned members first,
    then smallest support, then lowest index.  Each context's count of
    assigned members is kept up to date through the `holders` of each
    measurement, and the minimum is taken from a heap whose stale entries
    (a count since raised) are skipped."""
    contexts, holders = model.scenario.contexts, model.scenario.holders
    count, done, assigned = [0] * len(contexts), [False] * len(contexts), set()
    heap = [(0, len(model.supports[c.index]), c.index) for c in contexts]
    heapify(heap)
    order = []
    while heap:
        negated, _, i = heappop(heap)
        if done[i] or -negated != count[i]:
            continue
        done[i] = True
        order.append(contexts[i])
        for m in contexts[i].members:
            if m not in assigned:
                assigned.add(m)
                for j in holders[m]:
                    if not done[j]:
                        count[j] += 1
                        heappush(heap, (-count[j], len(model.supports[j]), j))
    return order


def _key(positions: list[int]) -> Callable:
    """The values at `positions` of an assignment; one position: a bare value."""
    return itemgetter(*positions) if positions else lambda _: ()


def _steps(model: SupportModel) -> list[tuple]:
    """One step per context of `_plan`, on tuples of outcome indices: (key
    of its members that earlier steps assigned, the positions of its other
    members, table from that key to its support rows' values on those, in
    canonical order, key of its frontier, key of all its members, and the
    positions of the frontier and of the first key).  The frontier is what
    earlier steps assigned and this or a later step reads."""
    scenario, position = model.scenario, model.scenario.positions
    index = scenario.outcome_indices
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
        steps.append((key, new, table, _key(frontier), _key(members), frontier, bound))
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
        _, new, _, _, row, _, _ = steps[k]
        first, total = live[k], 0
        if k < last:
            child_key, _, child_table, child_frontier, _, _, _ = steps[k + 1]
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
                key, new, table, _, row, _, _ = steps[j]
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


def _code_size(model: SupportModel) -> int:
    """Bytes per outcome index in a packed row, big-endian, so that packed
    rows sort as the index tuples do."""
    return ((len(model.scenario.outcomes) - 1).bit_length() + 7) // 8


def _packer(size: int) -> Callable[[Sequence[int]], bytes]:
    return bytes if size == 1 else lambda row: b"".join([v.to_bytes(size, "big") for v in row])


# Rows joined at a time into the listing's blob: bounds the per-row `bytes`
# alive beside it.
_CHUNK = 1 << 14


def _listing(model: SupportModel, steps: list[tuple], memo: list[dict]) -> bytearray:
    """Every global section as a packed row in measurement order, in one
    blob, sorted.  Last step first, each memo state with a nonzero count
    lists its completions as integers: each row of its table, shifted to its
    measurements' bytes, ORed into each completion of the state it leads to.
    Integers of one width sort as their big-endian bytes do; they are
    written into the blob `_CHUNK` at a time from the end, and each chunk is
    dropped once written."""
    size, n = _code_size(model), len(model.scenario.measurements)
    level: dict = {(): [0]}  # past the last step: one empty completion
    for k in range(len(steps) - 1, -1, -1):
        _, new, table, _, _, frontier, bound = steps[k]
        # The table's key, and the next step's frontier, on the frontier's values and a row's.
        here, after = frontier + new, steps[k + 1][5] if k + 1 < len(steps) else []
        bound_of, child_of = _key(list(map(here.index, bound))), _key(list(map(here.index, after)))
        below, level = level, {}
        for state, count in memo[k].items():
            if count:
                prefix = state if type(state) is tuple else (state,)  # a bare value: one position
                level[state] = built = []
                for row in table[bound_of(prefix)]:
                    if tail := below.get(child_of(prefix + row)):
                        placed = sum(v << 8 * size * (n - 1 - p) for p, v in zip(new, row))
                        built += map(placed.__or__, tail)
    del below  # the second step's completions, before the rows are written
    rows = level.pop(())
    rows.sort()
    width = size * n
    blob = bytearray(len(rows) * width)
    while rows:
        chunk, end = rows[-_CHUNK:], len(rows) * width
        del rows[-_CHUNK:]
        blob[end - len(chunk) * width : end] = b"".join(
            map(int.to_bytes, chunk, repeat(width), repeat("big"))
        )
    return blob


_IS = [bytes(v) + b"\1" + bytes(255 - v) for v in range(256)]  # `translate`: v to 1, else 0


def _recheck(model: SupportModel, blob: bytes) -> list[set[Section]]:
    """Each context's distinct restrictions of the packed rows of `blob`
    (measurement order), read off the rows and `model.supports` alone;
    VerificationError unless each lies in its context's support.  A support
    small against the rows has each section s matched against every row at
    once: byte i of the AND over s's members of `column.translate(is s's
    value)`, as an integer, is 1 iff row i restricts to s, and the OR over
    the support must set every row.  Otherwise each row is looked up.  Each
    byte's column is sliced once, and each (byte, value) test is made once
    and shared by every context that holds the measurement."""
    scenario, size = model.scenario, _code_size(model)
    width, pack = size * len(scenario.measurements), _packer(size)
    rows, index = len(blob) // width, scenario.outcome_indices
    every, restrictions = int.from_bytes(b"\1" * rows, "big"), []
    columns = [blob[q::width] for q in range(width)]
    equal: dict[tuple[int, int], int] = {}  # (byte offset, value): the rows that have it
    for ctx in scenario.contexts:
        offsets = [scenario.positions[m] * size + b for m in ctx.members for b in range(size)]
        coded = {pack([index[v] for v in s.values]): s for s in model.supports[ctx.index]}
        # Per member, matching a section against every row costs about what
        # looking up 1/256 of the rows does, plus 16 rows' worth.
        if len(coded) * (rows // 256 + 16) <= rows:
            for q, v in {cell for code in coded for cell in zip(offsets, code)} - equal.keys():
                equal[q, v] = int.from_bytes(columns[q].translate(_IS[v]), "big")
            match = [reduce(and_, map(equal.get, zip(offsets, code)), every) for code in coded]
            seen = set(compress(coded.values(), match))
            if reduce(or_, match, 0) != every:
                seen.add(None)  # a row restricts to no section of the support
        else:
            seen = {coded.get(bytes(key)) for key in set(zip(*map(columns.__getitem__, offsets)))}
        if None in seen:
            raise VerificationError(f"search produced a non-global section (context {ctx.index})")
        restrictions.append(seen)
    return restrictions


def _outcome_strings(model: SupportModel, blob: bytes) -> list[str]:
    """The outcome strings of the packed rows of `blob`, in order, from UTF-8
    text in which each outcome index of the blob, in the blob's order, has a
    slot of the same width: its label, then a comma, or `end` after the last
    label of a row, padded with 0xFF (never in UTF-8).  `end` is the first
    character in no label and not a comma.  The slots are written one byte
    of the labels at a time, the padding is deleted unless there is none,
    and the text is split at each `end`."""
    n, size = len(model.scenario.measurements), _code_size(model)
    codes = map(itemgetter(0), iter_unpack(f"{size}s", blob))
    values = blob if size == 1 else list(map(int.from_bytes, codes, repeat("big")))
    outcomes = model.scenario.outcomes
    used = set(",".join(outcomes))
    end = next(c for c in map(chr, range(len(used) + 1)) if c not in used)
    labels = [o.encode("utf-8", "surrogatepass") for o in outcomes]
    stop = end.encode("utf-8", "surrogatepass")
    longest, cells = max(map(len, labels)), len(blob) // size
    width, rows = longest + len(stop), cells // n
    text = bytearray((b"\xff" * longest + b",").ljust(width, b"\xff")) * cells
    for j in range(longest):
        table = bytes([label.ljust(longest, b"\xff")[j] for label in labels]).ljust(256)
        text[j::width] = (
            values.translate(table) if size == 1 else bytes(map(table.__getitem__, values))
        )
    for j, byte in enumerate(stop, start=n * width - len(stop)):
        text[j :: n * width] = bytes([byte]) * rows
    del blob, values  # and each step below drops the text it was given
    if min(map(len, labels)) + 1 < width:
        text = text.translate(None, b"\xff")
    text = text.decode("utf-8", "surrogatepass")
    return text.split(end)[:-1]


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
        proofs = sorted(_proofs(steps, memo, live))
        restrictions = _recheck(model, b"".join(map(_packer(_code_size(model)), proofs)))
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
    sections = _LazySections(model, count, (steps, memo))
    return Classification(verdict, flags, sections, count, tuple(proofs))
