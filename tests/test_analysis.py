"""Degree/gcd diagnostics and false-positive detection.

Core claims:
    - triangle degrees (2,2,2): gcd 2 does not divide 3 contexts
    - the five-context cover has degrees A:3 B:2 C:2 D:3 E:3 F:1 G:1,
      gcd 1 divides 5
    - the parity square has all degrees 2 and gcd 2 divides 6
    - on connected one-hot models, integer witness coefficient sums are 1
      in every context and vanishing implies the gcd condition
    - false positives are exactly {vanishing} minus {extendable}: Hardy has
      exactly one over Z; the PR box none; the five-context cover triggers
      the strong-contextuality false-positive flag
    - reported false positives are re-verified against one fresh
      global-section search, which rejects a pair it finds extendable, and
      one fresh batch of obstructions per ring, which rejects a pair it
      finds non-vanishing
"""

from dataclasses import replace

import pytest

from contextuality import (
    Ring,
    all_obstructions,
    build_scenario,
    classify,
    false_positives,
    gcd_condition,
    is_ks_shaped,
    ks_support,
    ks_vanishing_implies_gcd_check,
    witness_context_sums,
)


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


def test_false_positives_are_reverified_by_one_fresh_search(corpus_supports, monkeypatch):
    from contextuality import Section, analysis

    model = corpus_supports["ks-false-positive"]
    classification = classify(model)
    searches = []

    def counted(searched):
        searches.append(searched)
        return real(searched)

    real = analysis.global_sections
    monkeypatch.setattr(analysis, "global_sections", counted)
    report = false_positives(model, Ring.Z, classification=classification)
    assert len(report.sections) == len(KSFP_VANISHING) and searches == [model]

    # A search that extends one reported section is an oracle disagreement.
    index, s = report.sections[-1]
    measurements = model.scenario.measurements
    extension = Section(
        measurements, tuple(s.value_of(m) if m in s.domain else "0" for m in measurements)
    )
    monkeypatch.setattr(analysis, "global_sections", lambda searched: [extension])
    with pytest.raises(RuntimeError, match="oracle disagreement"):
        false_positives(model, Ring.Z, classification=classification)


@pytest.mark.parametrize("ring", [Ring.Z, Ring.Z2])
def test_false_positives_are_reverified_by_one_fresh_batch(ring, corpus_supports, monkeypatch):
    from contextuality import analysis

    model = corpus_supports["ks-false-positive"]
    results = all_obstructions(model, ring)
    classification = classify(model)
    batches = []

    def counted(searched, searched_ring):
        batches.append((searched, searched_ring))
        return all_obstructions(searched, searched_ring)

    monkeypatch.setattr(analysis, "all_obstructions", counted)
    report = false_positives(model, ring, obstructions=results, classification=classification)
    assert report.sections and batches == [(model, ring)]

    # A fresh batch that finds one reported section non-vanishing is an
    # obstruction disagreement.
    key = report.sections[0]

    def disagreeing(searched, searched_ring):
        fresh = dict(all_obstructions(searched, searched_ring))
        fresh[key] = replace(fresh[key], vanishes=False)
        return fresh

    monkeypatch.setattr(analysis, "all_obstructions", disagreeing)
    with pytest.raises(RuntimeError, match="obstruction disagreement"):
        false_positives(model, ring, obstructions=results, classification=classification)
