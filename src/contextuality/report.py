"""Analysis reports: a stable, canonically ordered machine-readable form and
a human rendering with the support table laid out per context row."""

from __future__ import annotations

import json
from itertools import product
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Sequence

from .analysis import false_positives, gcd_condition
from .cohomology import ObstructionResult, Ring, all_obstructions
from .documents import ScenarioDocument
from .extendability import classify
from .scenario import is_connected

RING_ORDER = (Ring.Z2, Ring.Z)


def witness_payload(result: ObstructionResult) -> list[dict]:
    assert result.witness is not None
    payload = []
    for index, combo in enumerate(result.witness):
        payload.append(
            {
                "context": index,
                "terms": [
                    {"section": s.outcome_string(), "coefficient": c}
                    for s, c in combo.terms()
                ],
            }
        )
    return payload


def _certificate_payload(result: ObstructionResult, equation_lists: dict[int, list]) -> dict:
    """`equation_lists` maps id() of a `system.equations` tuple, kept alive by
    the caller, to its payload, so that every certificate over one tuple
    holds the same list."""
    certificate = result.certificate
    assert certificate is not None
    equations = result.system.equations
    if id(equations) not in equation_lists:
        equation_lists[id(equations)] = [
            {"first": i, "second": j, "section": s.outcome_string()} for i, j, s in equations
        ]
    multipliers = ["0"] * certificate.length  # str(0) and str(Fraction(0)) alike
    for r, m in zip(certificate.rows, certificate.values):
        multipliers[r] = str(m)
    return {
        "reason": certificate.reason,
        "multipliers": multipliers,
        "equations": equation_lists[id(equations)],
    }


def build_report(
    document: ScenarioDocument,
    rings: Sequence[Ring] = RING_ORDER,
    include_witnesses: bool = False,
) -> dict:
    """Run the full analysis and collect it into a JSON-compatible dict.

    Raises :class:`contextuality.model.SignallingError` for signalling
    distribution documents or overlap-inconsistent supports.
    """
    scenario = document.scenario
    report: dict = {
        "name": document.name,
        "measurements": list(scenario.measurements),
        "outcomes": list(scenario.outcomes),
        "contexts": [list(ctx.members) for ctx in scenario.contexts],
        "model_kind": document.kind,
    }

    # For a distribution this is the one no-signalling check: it raises on
    # any violation, so a report that gets past it records that it holds.
    support = document.support_model()
    if document.kind == "distribution":
        report["no_signalling"] = {"holds": True, "violations": []}
    report["support"] = [
        [s.outcome_string() for s in support.support_list(ctx.index)]
        for ctx in scenario.contexts
    ]

    classification = classify(support)
    outcomes = scenario.outcomes
    report["classification"] = {
        "verdict": classification.verdict.value,
        "global_sections": [
            ",".join([outcomes[v] for v in g]) for g in classification.global_sections.indices()
        ],
        "extendable": [
            {
                "context": index,
                "section": section.outcome_string(),
                "extendable": flag,
            }
            for (index, section), flag in classification.extendable.items()
        ],
    }
    report["connected"] = is_connected(scenario)

    gcd_report = gcd_condition(scenario)
    report["gcd"] = {
        "degrees": {m: gcd_report.degrees[m] for m in scenario.measurements},
        "gcd": gcd_report.gcd,
        "cover_size": gcd_report.cover_size,
        "holds": gcd_report.holds,
    }

    report["obstructions"] = {}
    report["false_positives"] = {}
    for ring in rings:
        results = all_obstructions(support, ring)
        entries = []
        equation_lists: dict[int, list] = {}  # keyed on tuples that `results` holds
        for (index, section), result in results.items():
            entry = {
                "context": index,
                "section": section.outcome_string(),
                "vanishes": result.vanishes,
            }
            if include_witnesses:
                if result.vanishes:
                    entry["witness"] = witness_payload(result)
                else:
                    entry["certificate"] = _certificate_payload(result, equation_lists)
            entries.append(entry)
        vanishing = sum(1 for e in entries if e["vanishes"])
        report["obstructions"][ring.value] = {
            "total": len(entries),
            "vanishing": vanishing,
            "results": entries,
        }
        fp = false_positives(support, ring, obstructions=results, classification=classification)
        report["false_positives"][ring.value] = {
            "sections": [
                {"context": index, "section": section.outcome_string()}
                for index, section in fp.sections
            ],
            "strong_contextuality_false_positive": fp.strong_contextuality_false_positive,
        }
    return report


def _support_table(report: dict) -> list[str]:
    """The support rendered as rows of 0/1 columns when all contexts share
    an arity, one listing line per context otherwise."""
    contexts = report["contexts"]
    support = report["support"]
    arities = {len(ctx) for ctx in contexts}
    lines = ["support:"]
    if len(arities) == 1:
        outcomes = report["outcomes"]
        width = arities.pop()
        columns = [",".join(vals) for vals in product(outcomes, repeat=width)]
        label_width = max(len(f"[{i}] {' '.join(ctx)}") for i, ctx in enumerate(contexts))
        col_width = max(len(c) for c in columns) + 2
        header = " " * (label_width + 2) + "".join(c.rjust(col_width) for c in columns)
        lines.append(header)
        for i, ctx in enumerate(contexts):
            label = f"[{i}] {' '.join(ctx)}".ljust(label_width)
            row = "".join(
                ("1" if c in support[i] else "0").rjust(col_width) for c in columns
            )
            lines.append(f"  {label}{row}")
    else:
        for i, ctx in enumerate(contexts):
            lines.append(f"  [{i}] {' '.join(ctx)}: {' '.join(support[i])}")
    return lines


def format_witness(witness_payload: list[dict]) -> list[str]:
    lines = []
    for entry in witness_payload:
        terms = entry["terms"]
        if not terms:
            rendered = "0"
        else:
            parts = []
            for term in terms:
                c = term["coefficient"]
                sign = "-" if c < 0 else "+"
                parts.append(f"{sign} {abs(c)}*({term['section']})")
            rendered = " ".join(parts).lstrip("+ ")
        lines.append(f"    context {entry['context']}: {rendered}")
    return lines


def render_text(report: dict, include_witnesses: bool = False) -> str:
    lines = [f"model {report['name']} ({report['model_kind']})"]
    lines.append(f"measurements: {' '.join(report['measurements'])}")
    lines.append(f"outcomes: {' '.join(report['outcomes'])}")
    lines.append("contexts:")
    for i, ctx in enumerate(report["contexts"]):
        lines.append(f"  [{i}] {{{', '.join(ctx)}}}")

    if "no_signalling" in report:
        verdict = "holds" if report["no_signalling"]["holds"] else "violated"
        lines.append(f"no-signalling: {verdict}")

    lines.extend(_support_table(report))

    cls = report["classification"]
    total = len(cls["extendable"])
    extendable = sum(1 for e in cls["extendable"] if e["extendable"])
    lines.append(
        f"classification: {cls['verdict'].replace('_', ' ')}; "
        f"{len(cls['global_sections'])} global sections; "
        f"{extendable}/{total} support sections extendable"
    )
    lines.append(f"connected: {'yes' if report['connected'] else 'no'}")

    gcd_data = report["gcd"]
    degrees = " ".join(f"{m}={d}" for m, d in gcd_data["degrees"].items())
    lines.append(
        f"degrees: {degrees}; gcd {gcd_data['gcd']} divides {gcd_data['cover_size']} "
        f"contexts: {'yes' if gcd_data['holds'] else 'no'}"
    )

    for ring_key, data in report["obstructions"].items():
        ring_name = Ring(ring_key).describe()
        non_vanishing = data["total"] - data["vanishing"]
        lines.append(
            f"obstructions over {ring_name}: {non_vanishing}/{data['total']} non-vanishing"
        )
        if include_witnesses:
            for entry in data["results"]:
                where = f"context {entry['context']} section {entry['section']}"
                if entry["vanishes"] and "witness" in entry:
                    lines.append(f"  {where}: vanishes, witness:")
                    lines.extend(format_witness(entry["witness"]))
                elif "certificate" in entry:
                    lines.append(
                        f"  {where}: does not vanish ({entry['certificate']['reason']})"
                    )

    for ring_key, data in report["false_positives"].items():
        ring_name = Ring(ring_key).describe()
        if data["sections"]:
            where = ", ".join(
                f"context {e['context']} section {e['section']}" for e in data["sections"]
            )
        else:
            where = "none"
        flag = "yes" if data["strong_contextuality_false_positive"] else "no"
        lines.append(
            f"false positives over {ring_name}: {where} "
            f"(strong-contextuality false positive: {flag})"
        )
    return "\n".join(lines) + "\n"


def _json_indented(value: object) -> str:
    """`json.dumps(value, indent=2)` for a tree with string keys, in one pass
    over the tree and one generator frame per open container.  Strings go
    through the C encoder of :mod:`json`; None, booleans and ints are
    written directly, and any other scalar by `json.dumps`.  A container met
    a second time at the same indent (the equation list every certificate
    of a ring shares) is rendered to text then, and that text is reused from
    the third time on."""
    seen: set[tuple[int, str]] = set()
    texts: dict[tuple[int, str], str] = {}

    def render(value: object, indent: str) -> Iterable[str]:
        if isinstance(value, str):
            return (encode_basestring_ascii(value),)
        if value is None:
            return ("null",)
        if value is True:
            return ("true",)
        if value is False:
            return ("false",)
        if type(value) is int:
            return (int.__repr__(value),)
        if not isinstance(value, (dict, list, tuple)):
            return (json.dumps(value),)
        if not value:
            return ("{}" if isinstance(value, dict) else "[]",)
        key = (id(value), indent)
        if key in texts:
            return (texts[key],)
        if key in seen:
            texts[key] = "".join(container(value, indent))
            return (texts[key],)
        seen.add(key)
        return container(value, indent)

    def container(value: dict | list | tuple, indent: str) -> Iterator[str]:
        inner = indent + "  "
        separator = "\n" + inner
        if isinstance(value, dict):
            yield "{"
            for name, item in value.items():
                yield separator + encode_basestring_ascii(name) + ": "
                yield from render(item, inner)
                separator = ",\n" + inner
            yield "\n" + indent + "}"
        else:
            yield "["
            for item in value:
                yield separator
                yield from render(item, inner)
                separator = ",\n" + inner
            yield "\n" + indent + "]"

    return "".join(render(value, ""))


def emit_report(report: dict, as_json: bool, include_witnesses: bool = False) -> str:
    """Render a report for output.  The JSON form is byte-identical to
    `json.dumps(report, indent=2)` plus a newline, and reparses to the same
    dict.  A subtree that several entries share, such as the equation list
    of a ring's certificates, is rendered at most twice, however often it
    recurs."""
    if as_json:
        return _json_indented(report) + "\n"
    return render_text(report, include_witnesses=include_witnesses)


__all__ = [
    "RING_ORDER",
    "build_report",
    "emit_report",
    "format_witness",
    "render_text",
    "witness_payload",
]
