"""Degree/gcd diagnostics and false-positive detection.

Core claims:
    - triangle degrees (2,2,2): gcd 2 does not divide 3 contexts
    - the five-context cover has degrees A:3 B:2 C:2 D:3 E:3 F:1 G:1,
      gcd 1 divides 5
    - the parity square has all degrees 2 and gcd 2 divides 6
    - the degrees are each measurement's count of the contexts holding it,
      in measurement order, on the bundled covers, 200 random ones and the
      one-hot ring of 3,000
    - on connected one-hot models, integer witness coefficient sums are 1
      in every context and vanishing implies the gcd condition
    - false positives are exactly {vanishing} minus {extendable}: Hardy has
      exactly one over Z; the PR box none; the five-context cover triggers
      the strong-contextuality false-positive flag
    - reported false positives are re-verified from their own proofs: one
      pinned count per pair (the model with that context's support cut to
      the one section), which rejects a pair it finds extendable, and one
      verify_witness of the pair's own witness, which rejects a changed or
      missing witness; no obstruction batch is run and no global section is
      listed
    - a report over both rings runs each false positive's pinned search
      once: ks-false-positive classifies 10 times (1 + 9 pairs), Hardy twice
    - Hardy beside the one-hot ring of 11 (81,190 global sections) has
      exactly the one false positive (0, "0,0") on both rings, found with
      the listing of global sections disabled
    - on 200 random consistent models and both rings, the false positives
      are exactly the vanishing sections that no global section of a
      brute-force enumeration restricts to
"""

import json
import random
import re
from collections import Counter
from dataclasses import replace

import pytest

from contextuality import (
    Ring,
    VerificationError,
    all_obstructions,
    build_report,
    build_scenario,
    classify,
    combination,
    false_positives,
    gcd_condition,
    is_ks_shaped,
    ks_support,
    ks_vanishing_implies_gcd_check,
    parse_scenario,
    restrict_section,
    verify_witness,
    witness_context_sums,
)
from contextuality.corpus import example_text

import helpers


KSFP_VANISHING = {  # frozen from an integer sweep of all 15 sections
    (0, "1,0,0"),
    (1, "0,0,1"),
    (1, "0,1,0"),
    (1, "1,0,0"),
    (2, "0,0,1"),
    (2, "0,1,0"),
    (2, "1,0,0"),
    (3, "1,0,0"),
    (4, "1,0,0"),
}


def test_gcd_triangle(corpus):
    report = gcd_condition(corpus["triangle"].scenario)
    assert report.degrees == {"A": 2, "B": 2, "C": 2}
    assert (report.gcd, report.cover_size, report.holds) == (2, 3, False)


def test_gcd_five_context_cover(corpus):
    report = gcd_condition(corpus["ks-false-positive"].scenario)
    assert report.degrees == {"A": 3, "B": 2, "C": 2, "D": 3, "E": 3, "F": 1, "G": 1}
    assert (report.gcd, report.cover_size, report.holds) == (1, 5, True)


def test_gcd_single_context():
    scen = build_scenario("AB", "01", [("A", "B")])
    report = gcd_condition(scen)
    assert (report.gcd, report.cover_size, report.holds) == (1, 1, True)


def test_gcd_peres_mermin(corpus):
    report = gcd_condition(corpus["peres-mermin"].scenario)
    assert all(d == 2 for d in report.degrees.values())
    assert len(report.degrees) == 9
    assert (report.gcd, report.cover_size, report.holds) == (2, 6, True)


def test_gcd_ks18(corpus):
    report = gcd_condition(corpus["ks18"].scenario)
    assert all(d == 2 for d in report.degrees.values())
    assert (report.gcd, report.cover_size, report.holds) == (2, 9, False)


def test_gcd_degrees_count_the_contexts_holding_each_measurement(corpus):
    rng = random.Random(25)
    scenarios = [document.scenario for document in corpus.values()]
    scenarios += [helpers.random_scenario(rng, 8, 8) for _ in range(200)]
    scenarios.append(helpers.ring_cover(3000).scenario)
    for scenario in scenarios:
        counts = Counter(m for ctx in scenario.contexts for m in ctx.members)
        report = gcd_condition(scenario)
        assert list(report.degrees.items()) == [(m, counts[m]) for m in scenario.measurements]


def test_ks_shape_detection(corpus_supports):
    assert is_ks_shaped(corpus_supports["triangle"])
    assert is_ks_shaped(corpus_supports["ks18"])
    assert is_ks_shaped(corpus_supports["ks-false-positive"])
    assert not is_ks_shaped(corpus_supports["hardy"])
    assert not is_ks_shaped(corpus_supports["peres-mermin"])


def test_gcd_check_vacuous_on_triangle(corpus_supports):
    assert ks_vanishing_implies_gcd_check(corpus_supports["triangle"])


def test_gcd_check_nontrivial_on_five_context_cover(corpus_supports):
    model = corpus_supports["ks-false-positive"]
    results = all_obstructions(model, Ring.Z)
    assert any(r.vanishes for r in results.values())
    assert gcd_condition(model.scenario).holds
    assert ks_vanishing_implies_gcd_check(model)


def test_witness_sums_are_one_on_connected_one_hot_models(corpus_supports):
    model = corpus_supports["ks-false-positive"]
    for result in all_obstructions(model, Ring.Z).values():
        if result.vanishes:
            assert witness_context_sums(result) == [1] * 5


def test_gcd_check_rejects_wrong_shapes(corpus_supports):
    with pytest.raises(ValueError, match="one-hot"):
        ks_vanishing_implies_gcd_check(corpus_supports["hardy"])
    disconnected = build_scenario("ABCD", "01", [("A", "B"), ("C", "D")])
    with pytest.raises(ValueError, match="not connected"):
        ks_vanishing_implies_gcd_check(ks_support(disconnected))


def test_hardy_false_positive_is_exactly_s1(corpus_supports):
    model = corpus_supports["hardy"]
    report = false_positives(model, Ring.Z)
    assert [
        (index, s.outcome_string()) for index, s in report.sections
    ] == [(0, "0,0")]
    assert not report.strong_contextuality_false_positive  # Hardy is not strongly contextual


def test_pr_box_has_no_false_positives(corpus_supports):
    for ring in (Ring.Z, Ring.Z2):
        report = false_positives(corpus_supports["prbox"], ring)
        assert report.sections == ()
        assert not report.strong_contextuality_false_positive


def test_five_context_cover_flags_strong_contextuality_false_positive(corpus_supports):
    model = corpus_supports["ks-false-positive"]
    report = false_positives(model, Ring.Z)
    got = {(index, s.outcome_string()) for index, s in report.sections}
    assert got == KSFP_VANISHING  # strongly contextual: vanishing = false positive
    assert report.strong_contextuality_false_positive


def test_false_positives_are_vanishing_minus_extendable(corpus_supports):
    for name in ("hardy", "prbox", "ghz", "triangle", "ks-false-positive"):
        model = corpus_supports[name]
        for ring in (Ring.Z, Ring.Z2):
            results = all_obstructions(model, ring)
            cls = classify(model)
            expected = {
                key
                for key, result in results.items()
                if result.vanishes and not cls.extendable[key]
            }
            report = false_positives(model, ring, obstructions=results)
            assert set(report.sections) == expected, (name, ring)
            for key in report.sections:
                assert results[key].vanishes


def _pinned(model, index, section):
    supports = list(model.supports)
    supports[index] = frozenset((section,))
    return supports


def test_false_positives_are_reverified_by_one_pinned_count_per_pair(corpus_supports, monkeypatch):
    from contextuality import analysis, extendability

    model = corpus_supports["ks-false-positive"]
    results = all_obstructions(model, Ring.Z)
    classification = classify(model)
    counted = []

    def counting(searched):
        counted.append(searched)
        return classify(searched)

    def unused(*args):
        raise AssertionError("false_positives must not run this")

    monkeypatch.setattr(analysis, "classify", counting)
    monkeypatch.setattr(analysis, "all_obstructions", unused)
    monkeypatch.setattr(extendability, "global_sections", unused)
    monkeypatch.setattr(extendability, "_listing", unused)
    report = false_positives(model, Ring.Z, obstructions=results, classification=classification)
    assert {(i, s.outcome_string()) for i, s in report.sections} == KSFP_VANISHING
    assert [m.scenario for m in counted] == [model.scenario] * len(KSFP_VANISHING)
    assert [list(m.supports) for m in counted] == [
        _pinned(model, index, section) for index, section in report.sections
    ]

    # A pinned count that is not 0 is an oracle disagreement.
    index, section = report.sections[0]
    monkeypatch.setattr(analysis, "classify", lambda searched: replace(classify(searched), count=1))
    message = re.escape(f"oracle disagreement at context {index}, {section}")
    with pytest.raises(VerificationError, match=message):
        false_positives(model, Ring.Z, obstructions=results, classification=classification)
    monkeypatch.undo()

    # So is a classification that calls an extendable vanishing section of
    # Hardy non-extendable.
    model = corpus_supports["hardy"]
    results = all_obstructions(model, Ring.Z)
    classification = classify(model)
    key = next(k for k, r in results.items() if r.vanishes and classification.extendable[k])
    wrong = replace(classification, extendable={**classification.extendable, key: False})
    message = re.escape(f"oracle disagreement at context {key[0]}, {key[1]}")
    with pytest.raises(VerificationError, match=message):
        false_positives(model, Ring.Z, obstructions=results, classification=wrong)


def test_a_report_pins_each_false_positive_once_for_both_rings(monkeypatch):
    from contextuality import analysis, cohomology, report

    searched = []

    def counting(model):
        searched.append(model)
        return classify(model)

    for module in (analysis, cohomology, report):
        monkeypatch.setattr(module, "classify", counting)
    # ks-false-positive: the report's classification and one pinned search
    # for each of its 9 false positives (the same on both rings), not 1 + 2 * 9.
    # Hardy: one false positive over either ring, 1 + 1, not 1 + 2.
    for name, calls, pairs in (("ks-false-positive", 10, 9), ("hardy", 2, 1)):
        searched.clear()
        built = build_report(parse_scenario(example_text(name)), rings=(Ring.Z2, Ring.Z))
        assert len(searched) == calls, name
        for ring in (Ring.Z2, Ring.Z):
            assert len(built["false_positives"][ring.value]["sections"]) == pairs


@pytest.mark.parametrize("ring", [Ring.Z, Ring.Z2])
def test_false_positives_are_reverified_from_their_own_witness(ring, corpus_supports, monkeypatch):
    from contextuality import analysis

    model = corpus_supports["ks-false-positive"]
    results = all_obstructions(model, ring)
    classification = classify(model)
    checked = []

    def counting(*args):
        checked.append(args)
        return verify_witness(*args)

    monkeypatch.setattr(analysis, "verify_witness", counting)
    report = false_positives(model, ring, obstructions=results, classification=classification)
    assert report.sections
    assert checked == [
        (model, index, section, results[(index, section)].witness, ring)
        for index, section in report.sections
    ]
    monkeypatch.undo()

    # A witness changed in one coefficient, or no witness, is an obstruction
    # disagreement.  Every context of this cover overlaps another, so adding
    # 1 to a term of a non-base entry breaks a fiber sum.
    index, section = key = report.sections[0]
    witness = results[key].witness
    other = (index + 1) % len(witness)
    combo = witness[other]
    target = model.support_list(other)[0]
    bumped = combination(
        ring, combo.domain, {**combo.coefficients, target: combo.coefficients.get(target, 0) + 1}
    )
    changed = witness[:other] + (bumped,) + witness[other + 1 :]
    message = re.escape(f"obstruction disagreement at context {index}, {section}")
    for mutated in (changed, None):
        wrong = {**results, key: replace(results[key], witness=mutated)}
        with pytest.raises(VerificationError, match=message):
            false_positives(model, ring, obstructions=wrong, classification=classification)


def _hardy_beside_ring(k):
    """Hardy's model beside a ring of k one-hot 4-sets on disjoint
    measurements, the ring's consecutive contexts sharing one measurement."""
    hardy, ring = json.loads(example_text("hardy")), helpers.ring_cover_document(k)
    document = {
        "name": f"hardy-ring{k}",
        "outcomes": ["0", "1"],
        **{key: hardy[key] + ring[key] for key in ("measurements", "contexts")},
        "model": {"support": hardy["model"]["support"] + ring["model"]["support"]},
    }
    return parse_scenario(json.dumps(document)).support_model()


def test_hardy_beside_the_ring_of_11_lists_no_global_section(monkeypatch):
    from contextuality import extendability

    model = _hardy_beside_ring(11)
    assert classify(model).count == 81190

    def unused(*args):
        raise AssertionError("false_positives must not list global sections")

    monkeypatch.setattr(extendability, "_listing", unused)
    for ring in (Ring.Z2, Ring.Z):
        report = false_positives(model, ring)
        assert [(i, s.outcome_string()) for i, s in report.sections] == [(0, "0,0")], ring
        assert not report.strong_contextuality_false_positive


def test_false_positives_match_exhaustive_global_sections():
    rng = random.Random(171)
    found = 0
    for _ in range(200):
        model = helpers.random_consistent_support(rng)
        exhaustive = helpers.exhaustive_global_sections(model)
        members = [ctx.members for ctx in model.scenario.contexts]
        extended = {(i, restrict_section(g, m)) for g in exhaustive for i, m in enumerate(members)}
        for ring in (Ring.Z2, Ring.Z):
            results = all_obstructions(model, ring)
            expected = tuple(k for k, r in results.items() if r.vanishes and k not in extended)
            assert false_positives(model, ring, obstructions=results).sections == expected
            found += len(expected)
    assert found  # some models have false positives
