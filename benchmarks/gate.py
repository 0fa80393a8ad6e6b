"""The benchmark's correctness gate, run on every pass.

Each check raises :class:`GateError` when a result differs from ground
truth.  Proofs are re-checked here, independently of the
program's own re-checks: integer certificates in scaled integer arithmetic,
witness families by pushing their coefficients onto every overlap.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

from families import CONTEXTUAL, NON_CONTEXTUAL, STRONGLY_CONTEXTUAL, Truth

# Pinned results for the bundled corpus: verdict, support sections,
# non-vanishing obstructions per ring and false positives per ring (the same
# on Z and Z/2).  Strongly contextual models have no global section.
CORPUS = {
    "hardy": Truth(CONTEXTUAL, 13, 0, 1),
    "prbox": Truth(STRONGLY_CONTEXTUAL, 8, 8, 0, 0),
    "ghz": Truth(STRONGLY_CONTEXTUAL, 16, 16, 0, 0),
    "triangle": Truth(STRONGLY_CONTEXTUAL, 6, 6, 0, 0),
    "ks18": Truth(STRONGLY_CONTEXTUAL, 36, 36, 0, 0),
    "peres-mermin": Truth(STRONGLY_CONTEXTUAL, 24, 24, 0, 0),
    "ks-false-positive": Truth(STRONGLY_CONTEXTUAL, 15, 6, 9, 0),
}

RING_NAMES = {"z2": "Z/2", "z": "Z"}


class GateError(Exception):
    """A result differs from ground truth or its proof fails re-checking."""


def _expect(what: str, got, want) -> None:  # noqa: ANN001
    if got != want:
        raise GateError(f"{what}: got {got!r}, expected {want!r}")


def check_classification(result, truth: Truth) -> None:  # noqa: ANN001
    _expect("verdict", result.verdict.value, truth.verdict)
    _expect("support sections", len(result.extendable), truth.sections)
    if truth.global_sections is not None:
        _expect("global sections", len(result.global_sections), truth.global_sections)
    extendable = sum(result.extendable.values())
    if truth.verdict == STRONGLY_CONTEXTUAL:
        _expect("extendable sections", extendable, 0)
    elif truth.verdict == NON_CONTEXTUAL:
        _expect("extendable sections", extendable, truth.sections)


def check_obstructions(results, support, ring, truth: Truth) -> None:  # noqa: ANN001
    """Counts against the truth, then every proof."""
    _expect("obstructions", len(results), truth.sections)
    non_vanishing = sum(not r.vanishes for r in results.values())
    _expect("non-vanishing obstructions", non_vanishing, truth.non_vanishing)
    modulus = 2 if ring.value == "z2" else 0
    for (base, section), result in results.items():
        where = f"context {base} section {section.values}"
        if result.ring is not ring or result.base != base or result.section != section:
            raise GateError(f"{where}: result is for another question")
        if result.vanishes:
            if result.certificate is not None or not _witness_holds(
                support, base, section, result.witness, modulus
            ):
                raise GateError(f"{where}: witness family fails the overlap re-check")
        elif result.witness is not None or not _certificate_holds(
            result.system.matrix, result.system.rhs, result.certificate, modulus
        ):
            raise GateError(f"{where}: certificate fails the re-check")


def _certificate_holds(matrix, rhs, certificate, modulus: int) -> bool:  # noqa: ANN001
    """y.A integral (even over Z/2) and y.b not, checked on y scaled by the
    common denominator L: y.A = 0 and y.b != 0 modulo L."""
    if certificate is None or len(certificate.multipliers) != len(rhs):
        return False
    y = [Fraction(v) for v in certificate.multipliers]
    if modulus:
        if any(v.denominator != 1 for v in y):
            return False
        scale = modulus
    else:
        scale = lcm(*(v.denominator for v in y))
    weights = [v.numerator * (scale // v.denominator) for v in y] if not modulus else [
        v.numerator for v in y
    ]
    totals = [0] * (len(matrix[0]) if matrix else 0)
    constant = 0
    for weight, row, b in zip(weights, matrix, rhs):
        if weight:
            constant += weight * b
            for j, a in enumerate(row):
                if a:
                    totals[j] += weight * a
    return all(t % scale == 0 for t in totals) and constant % scale != 0


def _reduced(coefficients: dict, modulus: int) -> dict:
    if modulus:
        coefficients = {k: c % modulus for k, c in coefficients.items()}
    return {k: c for k, c in coefficients.items() if c}


def _witness_holds(support, base, section, witness, modulus: int) -> bool:  # noqa: ANN001
    """1*section on the base context, every term in its context's support,
    and equal push-forwards onto every overlap of two contexts."""
    contexts = support.scenario.contexts
    if witness is None or len(witness) != len(contexts):
        return False
    if _reduced(witness[base].coefficients, modulus) != {section: 1}:
        return False
    for ctx, combo in zip(contexts, witness):
        if combo.domain != ctx.members:
            return False
        if any(s not in support.supports[ctx.index] for s in combo.coefficients):
            return False
    for i, first in enumerate(contexts):
        for second in contexts[i + 1 :]:
            overlap = set(first.members) & set(second.members)
            if overlap and _push(witness[first.index], overlap, modulus) != _push(
                witness[second.index], overlap, modulus
            ):
                return False
    return True


def _push(combo, overlap: set, modulus: int) -> dict:  # noqa: ANN001
    keep = [k for k, m in enumerate(combo.domain) if m in overlap]
    image: dict[tuple, int] = {}
    for s, c in combo.coefficients.items():
        key = tuple(s.values[k] for k in keep)
        image[key] = image.get(key, 0) + c
    return _reduced(image, modulus)


def check_report(report: dict, truth: Truth) -> None:
    _expect("report verdict", report["classification"]["verdict"], truth.verdict)
    if truth.global_sections is not None:
        _expect(
            "report global sections",
            len(report["classification"]["global_sections"]),
            truth.global_sections,
        )
    for ring in RING_NAMES:
        data = report["obstructions"][ring]
        _expect(f"report {ring} obstructions", data["total"], truth.sections)
        _expect(
            f"report {ring} non-vanishing",
            data["total"] - data["vanishing"],
            truth.non_vanishing,
        )
        for entry in data["results"]:
            proof = "witness" if entry["vanishes"] else "certificate"
            if proof not in entry:
                raise GateError(f"report {ring}: an entry lacks its {proof}")
        _expect(
            f"report {ring} false positives",
            len(report["false_positives"][ring]["sections"]),
            truth.false_positives,
        )


def check_json(text: str, report: dict) -> None:
    _expect("JSON round trip", json.loads(text), report)


def check_text(text: str, truth: Truth) -> None:
    verdict = truth.verdict.replace("_", " ")
    if f"classification: {verdict};" not in text:
        raise GateError(f"text report lacks the verdict {verdict!r}")
    for name in RING_NAMES.values():
        line = (
            f"obstructions over {name}: "
            f"{truth.non_vanishing}/{truth.sections} non-vanishing"
        )
        if line not in text:
            raise GateError(f"text report lacks {line!r}")
