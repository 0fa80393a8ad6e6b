"""Derived diagnostics: the degree-gcd divisibility condition, the witness
coefficient-sum invariant on connected one-hot models, and detection of
false positives (vanishing obstructions at non-extendable sections), each
re-checked from its own witness and a count of the model pinned to it."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .cohomology import ObstructionResult, Ring, VerificationError, all_obstructions, verify_witness
from .extendability import Classification, Verdict, classify
from .model import SupportModel, ks_support
from .scenario import Scenario, Section, is_connected


@dataclass(frozen=True)
class GcdReport:
    """Per-measurement context degrees and whether their gcd divides the
    cover size, a necessary condition for a one-hot global section."""

    degrees: dict[str, int]
    gcd: int
    cover_size: int
    holds: bool


@dataclass(frozen=True)
class FalsePositiveReport:
    """Support sections whose obstruction vanishes although they do not
    extend to any global section."""

    ring: Ring
    sections: tuple[tuple[int, Section], ...]
    strong_contextuality_false_positive: bool


def gcd_condition(scenario: Scenario) -> GcdReport:
    degrees = {m: len(holders) for m, holders in scenario.holders.items()}
    g = gcd(*degrees.values()) if degrees else 1
    size = len(scenario.contexts)
    return GcdReport(degrees, g, size, size % g == 0)


def is_ks_shaped(model: SupportModel) -> bool:
    """True iff the supports are exactly the one-hot sections per context."""
    if set(model.scenario.outcomes) != {"0", "1"}:
        return False
    reference = ks_support(model.scenario)
    return model.supports == reference.supports


def witness_context_sums(result: ObstructionResult) -> list[int]:
    """Coefficient sum of each context's witness entry (vanishing results)."""
    if result.witness is None:
        raise ValueError("result has no witness")
    return [combo.coefficient_sum() for combo in result.witness]


def ks_vanishing_implies_gcd_check(model: SupportModel) -> bool:
    """Confirm, on a connected one-hot model, that an integer obstruction can
    only vanish when the gcd condition holds, and that every integer witness
    family has coefficient sum exactly 1 in every context.

    Vacuously true when no obstruction vanishes.
    """
    if not is_ks_shaped(model):
        raise ValueError("model does not have one-hot supports")
    if not is_connected(model.scenario):
        raise ValueError("model is not connected")
    results = all_obstructions(model, Ring.Z)
    vanishing = [r for r in results.values() if r.vanishes]
    for result in vanishing:
        if any(total != 1 for total in witness_context_sums(result)):
            return False
    if vanishing and not gcd_condition(model.scenario).holds:
        return False
    return True


def false_positives(
    model: SupportModel,
    ring: Ring,
    obstructions: dict[tuple[int, Section], ObstructionResult] | None = None,
    classification: Classification | None = None,
) -> FalsePositiveReport:
    """Join the obstruction verdicts with the extendability oracle.

    `obstructions` and `classification` may be passed in when already
    computed for the model; the classification is computed first, and the
    obstructions read it.  Every reported pair is re-verified from its own
    proofs: its witness by :func:`verify_witness`, and a fresh search must
    count no global section once the pair's context support is cut to the
    one section.  A disagreement raises :class:`VerificationError`.
    """
    if classification is None:
        classification = classify(model)
    if obstructions is None:
        obstructions = all_obstructions(model, ring, classification=classification)
    return _false_positives(model, {ring: obstructions}, classification)[ring]


def _false_positives(
    model: SupportModel,
    verdicts: dict[Ring, dict[tuple[int, Section], ObstructionResult]],
    classification: Classification,
) -> dict[Ring, FalsePositiveReport]:
    """:func:`false_positives` on each ring of `verdicts`.  A pair's pinned
    search does not depend on the ring, so it runs once for all of them."""
    pinned: set[tuple[int, Section]] = set()  # the pairs whose search counted nothing
    reports: dict[Ring, FalsePositiveReport] = {}
    for ring, obstructions in verdicts.items():
        pairs: list[tuple[int, Section]] = []
        for (index, section), result in obstructions.items():
            if not result.vanishes or classification.extendable[(index, section)]:
                continue
            if (index, section) not in pinned:
                cut = list(model.supports)
                cut[index] = frozenset((section,))
                if classify(SupportModel(model.scenario, tuple(cut))).count:
                    raise VerificationError(f"oracle disagreement at context {index}, {section}")
                pinned.add((index, section))
            witness = result.witness
            if witness is None or not verify_witness(model, index, section, witness, ring):
                raise VerificationError(f"obstruction disagreement at context {index}, {section}")
            pairs.append((index, section))
        flag = classification.verdict is Verdict.STRONGLY_CONTEXTUAL and any(
            r.vanishes for r in obstructions.values()
        )
        reports[ring] = FalsePositiveReport(ring, tuple(pairs), flag)
    return reports
