"""Analysis reports: a stable, canonically ordered machine-readable form and
a human rendering with the support table laid out per context row."""

from __future__ import annotations

import json
from itertools import product
from typing import Sequence

from .analysis import _false_positives, gcd_condition
from .cohomology import ObstructionResult, Ring, _obstructions
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


def _certificate_payload(result: ObstructionResult) -> dict:
    """The certificate as its nonzero terms: ascending indices into the
    report's top-level `equations` (the rows of delta^0) and their
    multipliers as exact strings."""
    certificate = result.certificate
    assert certificate is not None
    return {
        "reason": certificate.reason,
        "rows": list(certificate.rows),
        "values": list(map(str, certificate.values)),
    }


def build_report(
    document: ScenarioDocument,
    rings: Sequence[Ring] = RING_ORDER,
    include_witnesses: bool = False,
) -> dict:
    """Run the full analysis and collect it into a JSON-compatible dict.

    Raises :class:`contextuality.model.SignallingError` for signalling
    distributions, and for overlap-inconsistent supports unless `rings=()`.
    """
    scenario = document.scenario
    report: dict = {
        "schema": 2,
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
    report["classification"] = {
        "verdict": classification.verdict.value,
        "global_sections": classification.global_sections.outcome_strings(),
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

    if include_witnesses:
        # The rows of delta^0, which certificates over either ring index.
        report["equations"] = [
            {"first": i, "second": j, "section": s.outcome_string()}
            for i, j, s, _, _ in support.overlap_table
        ]
    report["obstructions"] = {}
    report["false_positives"] = {}
    verdicts = _obstructions(support, rings, classification)
    found = _false_positives(support, verdicts, classification)
    for ring, results in verdicts.items():
        entries = []
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
                    entry["certificate"] = _certificate_payload(result)
            entries.append(entry)
        vanishing = sum(1 for e in entries if e["vanishes"])
        report["obstructions"][ring.value] = {
            "total": len(entries),
            "vanishing": vanishing,
            "results": entries,
        }
        report["false_positives"][ring.value] = {
            "sections": [
                {"context": index, "section": section.outcome_string()}
                for index, section in found[ring].sections
            ],
            "strong_contextuality_false_positive": found[ring].strong_contextuality_false_positive,
        }
    return report


# A support table wider than this many columns is listed one line per context.
MAX_TABLE_COLUMNS = 256


def _support_table(report: dict) -> list[str]:
    """The support rendered as rows of 0/1 columns, one per section of E(C),
    when all contexts share an arity and E(C) has at most
    `MAX_TABLE_COLUMNS` sections; one listing line per context otherwise."""
    contexts = report["contexts"]
    support = report["support"]
    outcomes = report["outcomes"]
    arities = {len(ctx) for ctx in contexts}
    lines = ["support:"]
    if len(arities) == 1 and len(outcomes) ** min(arities) <= MAX_TABLE_COLUMNS:
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


def emit_report(report: dict, as_json: bool, include_witnesses: bool = False) -> str:
    """Render a report for output: `json.dumps(report, indent=2)` plus a
    newline, or the text rendering."""
    if as_json:
        return json.dumps(report, indent=2) + "\n"
    return render_text(report, include_witnesses=include_witnesses)


__all__ = [
    "RING_ORDER",
    "build_report",
    "emit_report",
    "format_witness",
    "render_text",
    "witness_payload",
]
