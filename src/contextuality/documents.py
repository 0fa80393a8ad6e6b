"""The JSON scenario file format.

A document carries a scenario and exactly one model: either per-context
support lists, or per-context probability tables.  Probabilities are
decimal-free rational strings like "1/2" so files stay exact; section
tuples are comma-joined outcome strings in context member order.

Example::

    {
      "name": "prbox",
      "measurements": ["a", "a'", "b", "b'"],
      "outcomes": ["0", "1"],
      "contexts": [["a", "b"], ["a", "b'"], ["a'", "b"], ["a'", "b'"]],
      "model": {
        "distribution": [
          {"0,0": "1/2", "1,1": "1/2"},
          {"0,0": "1/2", "1,1": "1/2"},
          {"0,0": "1/2", "1,1": "1/2"},
          {"0,1": "1/2", "1,0": "1/2"}
        ]
      }
    }
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .model import (
    EmpiricalModel,
    SupportModel,
    empirical_model,
    support_model,
    support_of,
)
from .scenario import Scenario, Section, build_scenario

_RATIONAL = re.compile(r"([0-9]+)(?:/([1-9][0-9]*))?")  # ASCII digits, whole string

_TOP_LEVEL_KEYS = ("name", "measurements", "outcomes", "contexts", "model")


class DocumentError(ValueError):
    """A scenario file failed validation; `errors` lists path-tagged messages."""

    def __init__(self, errors):  # noqa: ANN001
        self.errors = tuple(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ScenarioDocument:
    """A parsed scenario file: the scenario plus a support or distribution model."""

    name: str
    scenario: Scenario
    kind: str  # "support" or "distribution"
    support: SupportModel | None
    empirical: EmpiricalModel | None
    # A distribution's support, filled on the first successful call of
    # `support_model`; a declared field for the reason given at
    # Scenario._overlaps.
    _extracted: SupportModel | None = field(default=None, init=False, repr=False, compare=False)

    def support_model(self) -> SupportModel:
        """The support of the document's model.

        For distribution documents this extracts the support once, rejecting
        signalling models (whose restricted supports would be ambiguous) on
        every call.
        """
        if self.support is not None:
            return self.support
        if self._extracted is None:
            assert self.empirical is not None
            object.__setattr__(self, "_extracted", support_of(self.empirical))
        return self._extracted


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """Object hook for json.loads: a repeated key is an error, not an overwrite."""
    out = dict(pairs)
    if len(out) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        raise DocumentError([f"duplicate key {k!r}" for k, n in counts.items() if n > 1])
    return out


def parse_rational(text: str, where: str, errors: list[str]) -> Fraction | None:
    if not isinstance(text, str):
        errors.append(f'{where}: probability must be a rational string like "1/2"')
        return None
    match = _RATIONAL.fullmatch(text)
    if not match:
        errors.append(f"{where}: bad rational {text!r} (expected nonnegative p or p/q)")
        return None
    p, q = match.group(1), match.group(2)
    return Fraction(int(p), int(q) if q else 1)


def _string_list(raw, where: str, errors: list[str]) -> list[str] | None:  # noqa: ANN001
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        errors.append(f"{where}: expected a list of strings")
        return None
    return raw


def _parse_tuple(
    text: str, scenario: Scenario, members: tuple[str, ...], where: str, errors: list[str]
) -> Section | None:
    if not isinstance(text, str):
        errors.append(f"{where}: section must be a comma-joined outcome string")
        return None
    values = tuple(text.split(","))
    if len(values) != len(members):
        errors.append(
            f"{where}: section {text!r} has {len(values)} outcomes, context has {len(members)}"
        )
        return None
    bad = [v for v in values if v not in scenario.outcomes]
    if bad:
        errors.append(f"{where}: unknown outcome(s) {bad} in section {text!r}")
        return None
    return Section(members, values)


def parse_scenario(text: str) -> ScenarioDocument:
    """Parse and validate a scenario document; raises :class:`DocumentError`
    carrying every schema error found, each tagged with its path."""
    errors: list[str] = []
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError([f"invalid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise DocumentError(["top level: expected a JSON object"])

    errors += [f"top level: unknown key {key!r}" for key in raw if key not in _TOP_LEVEL_KEYS]
    errors += [f"top level: missing key {key!r}" for key in _TOP_LEVEL_KEYS if key not in raw]
    if errors:
        raise DocumentError(errors)

    name = raw["name"]
    if not isinstance(name, str) or not name:
        errors.append("name: expected a nonempty string")

    measurements = _string_list(raw["measurements"], "measurements", errors)
    outcomes = raw["outcomes"]
    if not isinstance(outcomes, list) or not all(
        isinstance(o, (str, int)) and not isinstance(o, bool) for o in outcomes
    ):
        errors.append("outcomes: expected a list of strings or integers")
        outcomes = None

    contexts = raw["contexts"]
    if not isinstance(contexts, list):
        errors.append("contexts: expected a list of member lists")
        contexts = None
    else:
        checked = []
        for k, ctx in enumerate(contexts):
            got = _string_list(ctx, f"contexts[{k}]", errors)
            if got is not None:
                checked.append(got)
        contexts = checked if len(checked) == len(contexts) else None
    if errors or measurements is None or outcomes is None or contexts is None:
        raise DocumentError(errors)

    order = {m: i for i, m in enumerate(measurements)}
    for k, ctx in enumerate(contexts):
        known = [m for m in ctx if m in order]
        if known != sorted(known, key=order.__getitem__):
            errors.append(
                f"contexts[{k}]: members must be listed in measurement order "
                f"(outcome tuples are read in that order)"
            )
    if errors:
        raise DocumentError(errors)

    try:
        scenario = build_scenario(measurements, outcomes, contexts)
    except ValueError as exc:
        raise DocumentError([f"scenario: {exc}"]) from exc

    model = raw["model"]
    if not isinstance(model, dict) or set(model) not in ({"support"}, {"distribution"}):
        raise DocumentError(
            ['model: expected an object with exactly one of "support" or "distribution"']
        )

    if "support" in model:
        support = _parse_support(model["support"], scenario, errors)
        if errors:
            raise DocumentError(errors)
        return ScenarioDocument(name, scenario, "support", support, None)

    empirical = _parse_distribution(model["distribution"], scenario, errors)
    if errors:
        raise DocumentError(errors)
    return ScenarioDocument(name, scenario, "distribution", None, empirical)


def _parse_support(raw, scenario: Scenario, errors: list[str]) -> SupportModel | None:  # noqa: ANN001
    where = "model.support"
    if not isinstance(raw, list) or len(raw) != len(scenario.contexts):
        errors.append(f"{where}: expected one section list per context ({len(scenario.contexts)})")
        return None
    supports = []
    for ctx, entries in zip(scenario.contexts, raw):
        here = f"{where}[{ctx.index}]"
        if not isinstance(entries, list) or not entries:
            errors.append(f"{here}: expected a nonempty list of sections")
            return None
        sections = []
        for entry in entries:
            section = _parse_tuple(entry, scenario, ctx.members, here, errors)
            if section is not None:
                sections.append(section)
        if len(set(sections)) != len(sections):
            errors.append(f"{here}: duplicate sections")
        supports.append(sections)
    if errors:
        return None
    return support_model(scenario, supports)


def _parse_distribution(raw, scenario: Scenario, errors: list[str]) -> EmpiricalModel | None:  # noqa: ANN001
    where = "model.distribution"
    if not isinstance(raw, list) or len(raw) != len(scenario.contexts):
        errors.append(f"{where}: expected one table per context ({len(scenario.contexts)})")
        return None
    tables = []
    for ctx, entries in zip(scenario.contexts, raw):
        here = f"{where}[{ctx.index}]"
        if not isinstance(entries, dict):
            errors.append(f"{here}: expected an object mapping sections to rationals")
            return None
        table = {}
        for key, value in entries.items():
            section = _parse_tuple(key, scenario, ctx.members, here, errors)
            probability = parse_rational(value, f"{here}[{key!r}]", errors)
            if section is not None and probability is not None:
                table[section] = probability
        total = sum(table.values(), Fraction(0))
        if not errors and total != 1:
            errors.append(f"{here}: probabilities sum to {total}, expected 1")
        tables.append(table)
    if errors:
        return None
    return empirical_model(scenario, tables)


def serialize_document(document: ScenarioDocument) -> str:
    """Canonical JSON for a document; rational values round-trip exactly."""
    scenario = document.scenario
    payload: dict = {
        "name": document.name,
        "measurements": list(scenario.measurements),
        "outcomes": list(scenario.outcomes),
        "contexts": [list(ctx.members) for ctx in scenario.contexts],
    }
    if document.kind == "support":
        assert document.support is not None
        payload["model"] = {
            "support": [
                [s.outcome_string() for s in document.support.support_list(ctx.index)]
                for ctx in scenario.contexts
            ]
        }
    else:
        assert document.empirical is not None
        # empirical_model fills each table in canonical section order, and a
        # Fraction prints as "p/q", or "p" when integral.
        tables = [
            {s.outcome_string(): str(p) for s, p in table.items() if p}
            for table in document.empirical.tables
        ]
        payload["model"] = {"distribution": tables}
    return json.dumps(payload, indent=2) + "\n"
