"""The global-section oracle and the classification it induces.

Core claims:
    - PR box, triangle, GHZ, the 18-vector model, the parity square, and the
      five-context one-hot cover admit no global section
    - Hardy is contextual but not strongly: exactly the (a,b) -> (0,0)
      section fails to extend, and there are exactly 5 global sections
    - a full-support model admits every assignment
    - backtracking agrees with exhaustive enumeration set-for-set
    - relabelling measurements permutes global sections bijectively
    - the oracle's output, order and extendability flags do not depend on
      the order measurements and outcomes are declared in: nested,
      disconnected and one-measurement covers, one-hot rings with
      trace(T^k) global sections
    - the search visits the most-constrained context first, in the order
      a minimum over every remaining context at every step gives
      (helpers.reference_plan), on the bundled models, 200 random ones,
      shuffled one-hot rings and a torus grid
    - the soundness re-check rejects an assignment outside one support
    - classify counts global sections without listing them: on 200 random
      models the count and the lazily listed sections equal
      global_sections; the ring of 20 (45,239,074 sections) is classified,
      counted and proved with the enumeration disabled
    - the lazy list behaves as the tuple, is built once and only when read,
      and is not built at all when the count is 0: the PR box, ks18 and a
      random one-hot cover list, re-check and write nothing, in classify
      and in build_report
    - a proof section outside a support, or proofs that miss an extendable
      row, raise RuntimeError
    - classify, global_sections and is_extendable_at each run the oracle
      once: one search and, where there is a global section, one proof
      pass, both called from classify
    - the report lists the global sections from classify's own search, in
      global_sections' order, and builds no section to do so, only one per
      element read; a listed classification, once dropped, leaves nothing
      behind without the cycle collector
    - listed sections equal the exhaustive ones in canonical order, as
      sections and as the report's strings, whatever the order of the
      outcome labels' strings (hypothesis), and with more than 256 outcomes
      (two bytes per outcome index); the bulk re-check gives each context's
      restrictions and rejects a row outside one support both where it
      matches whole supports against all rows and where it looks up each
      row, for the listing and for the proofs, and it matches whole
      supports only where they are small against the rows
    - the listing's re-check and outcome strings equal a per-row reference
      on random consistent models and shuffled rings relabeled "off"/"on",
      "é" or "10" (hypothesis), each row once and 256 times over; one
      corrupted byte, an index past the outcomes or a row outside a support,
      is refused; the rows are split right when the labels hold every ASCII
      character but the comma
"""

import gc
import random
import runpy
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    Section,
    Verdict,
    VerificationError,
    build_scenario,
    classify,
    enumerate_sections,
    global_sections,
    is_connected,
    is_extendable_at,
    parse_scenario,
    restrict_section,
    support_model,
)
from contextuality import extendability
from contextuality.documents import ScenarioDocument
from contextuality.extendability import (
    _code_size,
    _listing,
    _outcome_strings,
    _plan,
    _recheck,
    _search,
    _steps,
)
from contextuality.report import build_report

import helpers
from helpers import section

HARDY_GLOBALS = {"0,0,1,1", "1,0,1,0", "1,0,1,1", "1,1,0,0", "1,1,1,0"}
SMALL_CORPUS = ("hardy", "prbox", "ghz", "triangle", "peres-mermin", "ks-false-positive")


def test_pr_box_has_no_global_section(corpus_supports):
    assert global_sections(corpus_supports["prbox"]) == []
    assert classify(corpus_supports["prbox"]).verdict is Verdict.STRONGLY_CONTEXTUAL


def test_triangle_has_no_global_section(corpus_supports):
    assert global_sections(corpus_supports["triangle"]) == []


def test_full_support_admits_everything():
    scen = build_scenario("ABC", "01", [("A", "B"), ("B", "C")])
    model = support_model(
        scen,
        [enumerate_sections(scen, ctx.members) for ctx in scen.contexts],
    )
    sections = global_sections(model)
    assert len(sections) == 8
    cls = classify(model)
    assert cls.verdict is Verdict.NON_CONTEXTUAL
    assert all(cls.extendable.values())


def test_hardy_globals_frozen(corpus_supports):
    # Frozen from exhaustive enumeration over all 16 assignments.
    got = {g.outcome_string() for g in global_sections(corpus_supports["hardy"])}
    assert got == HARDY_GLOBALS


def test_hardy_extendability(corpus_supports):
    model = corpus_supports["hardy"]
    ab = model.scenario.contexts[0]
    s1 = section(ab.members, "0,0")
    assert not is_extendable_at(model, ab, s1)
    assert is_extendable_at(model, ab, section(ab.members, "1,1"))
    cls = classify(model)
    assert cls.verdict is Verdict.CONTEXTUAL
    non_extendable = [key for key, flag in cls.extendable.items() if not flag]
    assert non_extendable == [(0, s1)]


def test_ghz_nothing_extends(corpus_supports):
    cls = classify(corpus_supports["ghz"])
    assert cls.verdict is Verdict.STRONGLY_CONTEXTUAL
    assert not any(cls.extendable.values())
    assert len(cls.extendable) == 16


def test_five_context_one_hot_cover_strongly_contextual(corpus_supports):
    cls = classify(corpus_supports["ks-false-positive"])
    assert cls.verdict is Verdict.STRONGLY_CONTEXTUAL


def test_extendability_requires_support_membership(corpus_supports):
    model = corpus_supports["prbox"]
    ctx = model.scenario.contexts[0]
    with pytest.raises(ValueError, match="not in the support"):
        is_extendable_at(model, ctx, section(ctx.members, "0,1"))


def test_classification_consistency_conditions(corpus_supports):
    for name, model in corpus_supports.items():
        cls = classify(model)
        empty = not cls.global_sections
        assert (cls.verdict is Verdict.STRONGLY_CONTEXTUAL) == empty, name
        assert (not any(cls.extendable.values())) == empty, name
        if cls.verdict is Verdict.NON_CONTEXTUAL:
            assert all(cls.extendable.values()), name


def test_backtracking_matches_exhaustive_on_corpus(corpus_supports):
    for name in SMALL_CORPUS:  # ks18 has 2**18 assignments, above the bound
        model = corpus_supports[name]
        got = set(global_sections(model))
        assert got == helpers.exhaustive_global_sections(model), name


def test_backtracking_matches_exhaustive_randomized():
    rng = random.Random(113)
    for _ in range(200):
        scen = helpers.random_scenario(rng)
        model = helpers.random_any_support(rng, scen)
        assert set(global_sections(model)) == helpers.exhaustive_global_sections(model)


def test_global_sections_come_out_canonically_sorted(corpus_supports):
    model = corpus_supports["hardy"]
    sections = global_sections(model)
    keys = [model.scenario.section_sort_key(g) for g in sections]
    assert keys == sorted(keys)


def test_returned_sections_hit_every_support():
    rng = random.Random(114)
    for _ in range(100):
        scen = helpers.random_scenario(rng)
        model = helpers.random_image_support(rng, scen)
        for g in global_sections(model):
            for ctx in scen.contexts:
                assert restrict_section(g, ctx.members) in model.supports[ctx.index]


def _relabel_section(s: Section, mapping: dict, target) -> Section:
    inverse = {new: old for old, new in mapping.items()}
    domain = tuple(sorted((mapping[m] for m in s.domain), key=target.positions.__getitem__))
    return Section(domain, tuple(s.values[s.domain.index(inverse[m])] for m in domain))


def test_relabelling_permutes_global_sections():
    rng = random.Random(115)
    for _ in range(100):
        scen = helpers.random_scenario(rng)
        model = helpers.random_any_support(rng, scen)
        shuffled = list(scen.measurements)
        rng.shuffle(shuffled)
        mapping = dict(zip(scen.measurements, shuffled))
        relabeled = build_scenario(
            scen.measurements,  # same label set and declaration order
            scen.outcomes,
            [[mapping[m] for m in ctx.members] for ctx in scen.contexts],
        )
        relabeled_model = support_model(
            relabeled,
            [
                {_relabel_section(s, mapping, relabeled) for s in model.supports[i]}
                for i in range(len(scen.contexts))
            ],
        )
        original = classify(model)
        permuted = classify(relabeled_model)
        assert original.verdict is permuted.verdict
        expected = {_relabel_section(g, mapping, relabeled) for g in original.global_sections}
        assert expected == set(permuted.global_sections)


def _check_against_exhaustive(model):
    """Global sections, their order, every flag and every is_extendable_at
    answer agree with full enumeration."""
    scen = model.scenario
    expected = sorted(helpers.exhaustive_global_sections(model), key=scen.section_sort_key)
    assert global_sections(model) == expected
    cls = classify(model)
    assert list(cls.global_sections) == expected
    for ctx in scen.contexts:
        images = {restrict_section(g, ctx.members) for g in expected}
        for s in model.support_list(ctx.index):
            assert cls.extendable[(ctx.index, s)] == (s in images)
            assert is_extendable_at(model, ctx, s) == (s in images)
    return expected


def test_oracle_matches_exhaustive_in_any_declaration_order():
    rng = random.Random(116)
    shapes = {"nested": 0, "disconnected": 0, "one-measurement": 0, "extendable": 0}
    for trial in range(200):
        base = helpers.random_scenario(rng, max_measurements=7, max_contexts=6)
        contexts = [ctx.members for ctx in base.contexts]
        if trial % 4 == 3:  # a disjoint union of two covers
            other = helpers.random_scenario(rng, max_measurements=3, max_contexts=2)
            contexts += [tuple("q" + m for m in ctx.members) for ctx in other.contexts]
        declared = sorted({m for members in contexts for m in members})
        rng.shuffle(declared)
        outcomes = rng.choice([("0", "1"), ("1", "0"), ("b", "a", "c")])
        if len(outcomes) == 3 and len(declared) > 5:
            outcomes = ("1", "0")
        scen = build_scenario(declared, outcomes, contexts)
        members = [set(ctx.members) for ctx in scen.contexts]
        shapes["nested"] += any(a < b for a in members for b in members)
        shapes["disconnected"] += not is_connected(scen)
        shapes["one-measurement"] += any(len(m) == 1 for m in members)
        if trial % 2:
            model = helpers.random_image_support(rng, scen)
        else:
            model = helpers.random_any_support(rng, scen)
        shapes["extendable"] += bool(_check_against_exhaustive(model))
    assert min(shapes.values()) >= 20, shapes


def _trace_of_power(k: int) -> int:
    t = [[2, 1], [1, 0]]
    power = [[1, 0], [0, 1]]
    for _ in range(k):
        power = [[sum(power[i][m] * t[m][j] for m in range(2)) for j in range(2)] for i in range(2)]
    return power[0][0] + power[1][1]


@pytest.mark.parametrize("k", range(3, 9))
def test_one_hot_rings_have_trace_of_transfer_power_global_sections(k):
    rng = random.Random(117 + k)
    for model in (helpers.ring_cover(k), helpers.ring_cover(k, rng), helpers.ring_cover(k, rng)):
        sections = global_sections(model)
        assert len(sections) == _trace_of_power(k)
        keys = [model.scenario.section_sort_key(g) for g in sections]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert classify(model).verdict is Verdict.NON_CONTEXTUAL
        if k <= 4:
            _check_against_exhaustive(model)


def _model(measurements, contexts_and_supports):
    scen = build_scenario(measurements, "01", [c for c, _ in contexts_and_supports])
    return support_model(
        scen, [[section(c, text) for text in texts] for c, texts in contexts_and_supports]
    )


def test_plan_takes_most_assigned_then_smallest_support_then_lowest_index():
    full = ["0,0", "0,1", "1,0", "1,1"]
    model = _model(
        "abcde",
        [
            ("ab", full),
            ("bc", ["0,0", "1,1"]),
            ("cd", ["0,0", "0,1", "1,1"]),
            ("de", ["0,1", "1,0"]),
        ],
    )
    # All start unassigned: 1 and 3 have the smallest support, 1 is lower.
    # Then 0 and 2 share one assigned member each, 2 has the smaller support;
    # then 0 and 3 share one each and 3 has the smaller support.
    assert [ctx.index for ctx in _plan(model)] == [1, 2, 3, 0]
    model = _model(
        "abcd",
        [("abc", ["0,0,1", "1,1,0"]), ("ab", full), ("cd", ["0,1", "1,0"])],
    )
    # Two assigned members beat one, whatever the support sizes.
    assert [ctx.index for ctx in _plan(model)] == [0, 1, 2]


def test_plan_is_that_of_the_minimum_over_remaining_contexts(corpus_supports):
    rng = random.Random(137)
    models = list(corpus_supports.values())
    models += [helpers.random_consistent_support(rng) for _ in range(200)]
    models += [helpers.ring_cover(k, random.Random(k)) for k in (5, 12)]
    models.append(helpers.grid_cover(4))
    for model in models:
        assert _plan(model) == helpers.reference_plan(model)


def test_soundness_recheck_rejects_an_assignment_outside_one_support(corpus_supports):
    model = corpus_supports["hardy"]
    scen = model.scenario
    exhaustive = helpers.exhaustive_global_sections(model)
    good = [tuple(map(scen.outcome_indices.__getitem__, g.values)) for g in global_sections(model)]
    bad = next(
        values
        for values in product(range(len(scen.outcomes)), repeat=len(scen.measurements))
        if Section(scen.measurements, tuple(scen.outcomes[v] for v in values)) not in exhaustive
    )
    steps = _steps(model)
    blob = _listing(model, steps, _search(steps, len(scen.measurements))[1])
    assert blob == b"".join(map(bytes, good))  # listed in canonical order
    restrictions = _recheck(model, b"".join(map(bytes, reversed(good))))
    listed = _outcome_strings(model, blob)
    assert listed == [g.outcome_string() for g in global_sections(model)]
    assert restrictions == [
        {restrict_section(g, ctx.members) for g in global_sections(model)}
        for ctx in scen.contexts
    ]
    with pytest.raises(RuntimeError, match="non-global section"):
        _recheck(model, b"".join(map(bytes, good + [bad])))


def test_count_and_lazy_list_agree_with_global_sections():
    rng = random.Random(118)
    for trial in range(200):
        scen = helpers.random_scenario(rng)
        if trial % 2:
            model = helpers.random_image_support(rng, scen)
        else:
            model = helpers.random_any_support(rng, scen)
        cls = classify(model)
        sections = global_sections(model)
        assert cls.count == len(sections)
        assert list(cls.global_sections) == sections


def _refuse(*args):
    raise AssertionError("the global sections were listed")


def test_classify_counts_and_proves_the_ring_of_20_without_listing(monkeypatch):
    monkeypatch.setattr(extendability, "global_sections", _refuse)
    monkeypatch.setattr(extendability, "_listing", _refuse)
    model = helpers.ring_cover(20)
    cls = classify(model)
    assert cls.verdict is Verdict.NON_CONTEXTUAL
    assert cls.count == 45_239_074 == _trace_of_power(20)
    assert len(cls.extendable) == 80 and all(cls.extendable.values())
    assert len(cls.global_sections) == 45_239_074 and cls.global_sections
    ctx = model.scenario.contexts[7]
    assert is_extendable_at(model, ctx, model.support_list(ctx.index)[2])


def test_lazy_list_behaves_as_the_tuple_and_is_built_once(corpus_supports, monkeypatch):
    model = corpus_supports["hardy"]
    expected = tuple(global_sections(model))
    calls = []
    real = extendability._listing
    monkeypatch.setattr(extendability, "_listing", lambda *a: calls.append(a) or real(*a))
    sections = classify(model).global_sections
    # Listed from classify's own search, never a second one.
    monkeypatch.setattr(extendability, "_search", lambda *a: pytest.fail("searched again"))
    assert len(sections) == 5 and sections and not calls
    assert sections == expected and expected == sections and sections != list(expected)
    assert sections[0] == expected[0] and sections[-1] == expected[-1]
    assert sections[1:3] == expected[1:3] and expected[2] in sections
    assert tuple(sections) == expected and list(reversed(sections)) == list(expected[::-1])
    assert sections.index(expected[3]) == 3
    assert len(calls) == 1
    monkeypatch.undo()
    assert classify(model) == classify(model)


def test_no_global_section_builds_nothing(corpus_supports, monkeypatch):
    monkeypatch.setattr(extendability, "global_sections", _refuse)
    cls = classify(corpus_supports["ks-false-positive"])
    assert cls.count == 0 and not cls.global_sections and len(cls.global_sections) == 0
    assert list(cls.global_sections) == [] and cls.global_sections == ()


def test_a_count_of_0_lists_nothing(corpus, monkeypatch):
    families = runpy.run_path(str(Path(__file__).parents[1] / "benchmarks" / "families.py"))
    cover = parse_scenario(families["random_cover"](11, random.Random(34)).text)
    for name in ("_listing", "_recheck", "_outcome_strings"):
        monkeypatch.setattr(extendability, name, _refuse)
    for document in (corpus["prbox"], corpus["ks18"], cover):
        cls = classify(document.support_model())
        assert cls.count == 0 and cls.verdict is Verdict.STRONGLY_CONTEXTUAL
        assert cls.global_sections.outcome_strings() == [] and list(cls.global_sections) == []
        assert build_report(document)["classification"]["global_sections"] == []


def test_a_proof_section_outside_a_support_is_refused(monkeypatch):
    real = extendability._steps

    def corrupted(model):
        steps = real(model)
        _, new, table, *_ = steps[-1]  # every reached row of the last step is live
        table[next(iter(table))] = [tuple(1 for _ in new)]
        return steps

    monkeypatch.setattr(extendability, "_steps", corrupted)
    model = helpers.ring_cover(5)
    with pytest.raises(RuntimeError, match="non-global section"):
        classify(model)
    with pytest.raises(RuntimeError, match="non-global section"):
        global_sections(model)


def test_proofs_that_miss_an_extendable_row_are_refused(corpus_supports, monkeypatch):
    real = extendability._proofs
    monkeypatch.setattr(extendability, "_proofs", lambda *args: real(*args)[1:])
    with pytest.raises(RuntimeError, match="extendable rows"):
        classify(corpus_supports["hardy"])


def test_every_entry_point_runs_one_search_from_classify(corpus_supports, monkeypatch):
    calls = []
    for name in ("_search", "_proofs"):
        real = getattr(extendability, name)

        def recorded(*args, real=real, name=name):
            calls.append((name, sys._getframe(1).f_code.co_name))
            return real(*args)

        monkeypatch.setattr(extendability, name, recorded)
    for model in (corpus_supports["hardy"], corpus_supports["prbox"], helpers.ring_cover(5)):
        ctx = model.scenario.contexts[-1]
        proved = [("_proofs", "classify")] if classify(model).count else []  # none to re-check
        for entry in (
            classify,
            global_sections,
            lambda m: is_extendable_at(m, ctx, m.support_list(ctx.index)[0]),
        ):
            calls.clear()
            entry(model)
            assert calls == [("_search", "classify"), *proved]


def _document(model):
    return ScenarioDocument("generated", model.scenario, "support", model, None)


def test_report_lists_the_global_sections_of_classify_s_own_search(monkeypatch):
    rng = random.Random(120)
    models = [helpers.ring_cover(k, order) for k in range(3, 12) for order in (None, rng)]
    for trial in range(200):
        scen = helpers.random_scenario(rng)
        if trial % 2:
            models.append(helpers.random_image_support(rng, scen))
        else:
            models.append(helpers.random_any_support(rng, scen))
    searches = []
    real = extendability._search
    monkeypatch.setattr(extendability, "_search", lambda *a: searches.append(a) or real(*a))
    for model in models:
        searches.clear()
        listed = build_report(_document(model), rings=())["classification"]["global_sections"]
        assert len(searches) == 1
        assert listed == [g.outcome_string() for g in global_sections(model)]


def test_report_builds_fewer_sections_than_it_lists(monkeypatch):
    built = []

    def counted(*args):
        built.append(None)
        return Section(*args)

    monkeypatch.setattr(extendability, "Section", counted)
    model = helpers.ring_cover(11)
    listed = build_report(_document(model))["classification"]["global_sections"]
    # The re-checks look restrictions up by their packed rows: none is built.
    assert len(listed) == _trace_of_power(11) and 0 == len(built) < len(listed)
    assert classify(model).global_sections[-1].outcome_string() == listed[-1]
    assert len(built) == 1  # one per element read


def test_a_listed_classification_leaves_nothing_behind():
    model = helpers.ring_cover(11)
    model.support_list(0)  # the model's own cache
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cls = classify(model)
        assert len(list(cls.global_sections)) == _trace_of_power(11)
        del cls
        assert tracemalloc.get_traced_memory()[0] - start < 1 << 20
        assert gc.collect() == 0  # no reference cycle was left to collect
    finally:
        tracemalloc.stop()
        gc.enable()


# Outcome labels whose string order is not the order they are declared in.
LABELS = ("10", "2", "0", "ab", "-1", "x9", "1")


def _packed(model, sections):
    scenario = model.scenario
    return b"".join(
        b"".join(scenario.outcome_indices[v].to_bytes(_code_size(model), "big") for v in g.values)
        for g in sections
    )


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    outcomes=st.lists(st.sampled_from(LABELS), min_size=2, max_size=3, unique=True),
)
def test_listed_sections_are_the_exhaustive_ones_whatever_the_labels(seed, outcomes):
    rng = random.Random(seed)
    cover = helpers.random_scenario(rng, max_measurements=4, max_contexts=4)
    scen = build_scenario(cover.measurements, outcomes, [c.members for c in cover.contexts])
    if rng.randrange(2):
        model = helpers.random_image_support(rng, scen)
    else:
        model = helpers.random_any_support(rng, scen)
    expected = sorted(helpers.exhaustive_global_sections(model), key=scen.section_sort_key)
    cls = classify(model)
    assert list(cls.global_sections) == expected == global_sections(model)
    listed = build_report(_document(model), rings=())["classification"]["global_sections"]
    assert listed == [g.outcome_string() for g in expected]
    # Each row 256 times over: every support is small against the rows, so
    # the re-check matches it against all of them at once.
    bad = [
        g
        for values in product(scen.outcomes, repeat=len(scen.measurements))
        if (g := Section(scen.measurements, values)) not in expected
    ][:1]
    if expected:
        steps = _steps(model)
        blob = _listing(model, steps, _search(steps, len(scen.measurements))[1])
        assert blob == _packed(model, expected)  # listed in canonical order
    for copies in (1, 256):
        restrictions = _recheck(model, _packed(model, expected) * copies)
        listed = _outcome_strings(model, _packed(model, [g for g in expected for _ in range(copies)]))
        assert listed == [g.outcome_string() for g in expected for _ in range(copies)]
        assert restrictions == [
            {restrict_section(g, ctx.members) for g in expected} for ctx in scen.contexts
        ]
        if bad:
            with pytest.raises(VerificationError, match="non-global section"):
                _recheck(model, _packed(model, expected + bad) * copies)


def test_more_than_256_outcomes_take_two_bytes_each():
    labels = [str(i) for i in reversed(range(300))]  # "299" has index 0
    scen = build_scenario("abc", labels, ["ab", "bc"])
    first = ["299,7", "256,7", "3,255", "3,298"]
    second = ["7,0", "7,299", "255,257"]
    model = support_model(
        scen, [{section("ab", s) for s in first}, {section("bc", s) for s in second}]
    )
    expected = [
        section("abc", f"{a},{b},{c}")
        for a, b in (s.split(",") for s in first)
        for bb, c in (s.split(",") for s in second)
        if b == bb
    ]
    expected.sort(key=scen.section_sort_key)
    assert [g.outcome_string() for g in expected][:2] == ["299,7,299", "299,7,0"]
    assert _code_size(model) == 2
    cls = classify(model)
    assert cls.verdict is Verdict.CONTEXTUAL and cls.count == 5
    assert [s.outcome_string() for (_, s), flag in cls.extendable.items() if not flag] == ["3,298"]
    assert list(cls.global_sections) == expected and cls.global_sections[-1] == expected[-1]
    assert cls.global_sections.outcome_strings() == [g.outcome_string() for g in expected]
    assert all(max(p) >= 256 for p in cls.proofs)
    listed = build_report(_document(model), rings=())["classification"]["global_sections"]
    assert listed == [g.outcome_string() for g in expected]
    for copies in (1, 256):
        restrictions = _recheck(model, _packed(model, expected) * copies)
        assert restrictions == [
            {restrict_section(g, ctx.members) for g in expected} for ctx in scen.contexts
        ]
        bad = _packed(model, [section("abc", "3,298,0")])
        with pytest.raises(VerificationError, match="non-global section"):
            _recheck(model, (_packed(model, expected) + bad) * copies)


def test_the_recheck_takes_bitsets_only_for_supports_small_against_the_rows(monkeypatch):
    read = []

    class Spy(list):
        def __getitem__(self, value):
            read.append(value)
            return super().__getitem__(value)

    monkeypatch.setattr(extendability, "_IS", Spy(extendability._IS))
    model = helpers.ring_cover(3)
    steps = _steps(model)
    blob = _listing(model, steps, _search(steps, len(model.scenario.measurements))[1])
    assert len(blob) // 9 < 4 * 16  # each support has 4 sections
    restrictions = _recheck(model, blob)
    assert read == []  # looked up per row
    assert _recheck(model, blob * 256) == restrictions
    assert sorted(set(read)) == [0, 1]  # matched by bitsets


@pytest.mark.parametrize("k", [3, 11])
def test_a_listed_row_outside_a_support_is_refused(k, monkeypatch):
    real = extendability._listing
    # An all-0 row: no one-hot support holds its restrictions.
    monkeypatch.setattr(extendability, "_listing", lambda *a: real(*a) + bytes(4 * k - k))
    cls = classify(helpers.ring_cover(k))
    with pytest.raises(VerificationError, match="non-global section"):
        cls.global_sections.outcome_strings()


def _relabeled(model, labels):
    """The model with outcome k renamed labels[k]."""
    scen = model.scenario
    names = dict(zip(scen.outcomes, labels))
    relabeled = build_scenario(scen.measurements, labels, [c.members for c in scen.contexts])
    supports = [
        {Section(s.domain, tuple(names[v] for v in s.values)) for s in model.supports[c.index]}
        for c in scen.contexts
    ]
    return support_model(relabeled, supports)


def _reference_rows(model, blob):
    """Each context's restrictions of the packed rows of `blob`, and their
    outcome strings, one row and one context at a time, with sections."""
    scen, size = model.scenario, _code_size(model)
    width = size * len(scen.measurements)
    restrictions, strings = [set() for _ in scen.contexts], []
    for start in range(0, len(blob), width):
        row = [int.from_bytes(blob[q : q + size], "big") for q in range(start, start + width, size)]
        if max(row) >= len(scen.outcomes):
            raise VerificationError("an outcome index past the outcomes")
        g = Section(scen.measurements, tuple(scen.outcomes[v] for v in row))
        for ctx in scen.contexts:
            s = restrict_section(g, ctx.members)
            if s not in model.supports[ctx.index]:
                raise VerificationError("a row outside a support")
            restrictions[ctx.index].add(s)
        strings.append(",".join(g.values))
    return restrictions, strings


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    labels=st.permutations(["off", "on", "é", "10"]).map(lambda p: tuple(p[:2])),
    ring=st.booleans(),
)
def test_the_listing_s_recheck_and_text_match_a_per_row_reference(seed, labels, ring):
    rng = random.Random(seed)
    if ring:
        model = helpers.ring_cover(rng.randint(3, 5), rng)
    else:
        model = helpers.random_consistent_support(rng)
    model = _relabeled(model, labels)
    cls, steps = classify(model), _steps(model)
    width = len(model.scenario.measurements)  # one byte per outcome index
    listed = _listing(model, steps, _search(steps, width)[1]) if cls.count else b""
    assert listed == _packed(model, cls.global_sections)
    restrictions, strings = _reference_rows(model, listed)
    # Each row once: looked up row by row; 256 times: ring supports are
    # matched against all rows at once.
    for copies in (1, 256):
        blob = bytes(listed) * copies
        assert _recheck(model, blob) == restrictions
        assert _outcome_strings(model, blob) == strings * copies
        if not blob:
            continue
        row = rng.randrange(len(blob) // width)
        at = row * width + rng.randrange(width)
        past = bytearray(blob)
        past[at] = rng.randrange(len(model.scenario.outcomes), 256)
        with pytest.raises(VerificationError, match="non-global section"):
            _recheck(model, past)
        outside = bytearray(blob)
        outside[at] ^= 1  # the other outcome
        try:
            _reference_rows(model, outside[row * width : (row + 1) * width])
        except VerificationError:
            with pytest.raises(VerificationError, match="non-global section"):
                _recheck(model, outside)
        else:  # another global section
            distinct = {bytes(outside[q : q + width]) for q in range(0, len(outside), width)}
            assert _recheck(model, outside) == _reference_rows(model, b"".join(distinct))[0]


def test_rows_split_at_a_character_in_no_label_when_labels_take_all_of_ascii():
    # Every ASCII character but the comma is a label: the rows end in a
    # character of two UTF-8 bytes, and every slot is padded.
    labels = [chr(c) for c in range(128) if c != ord(",")] + ["\u2028", "\xe9"]
    scen = build_scenario("abc", labels, ["ab", "bc"])
    values = random.Random(34).sample(labels, 12)
    model = support_model(
        scen,
        [
            {Section(("a", "b"), (a, b)) for a, b in zip(values[:6], values[6:])},
            {Section(("b", "c"), (b, c)) for b, c in zip(values[6:], values[:6])},
        ],
    )
    cls = classify(model)
    assert cls.count == 6
    blob = _packed(model, cls.global_sections)
    restrictions, strings = _reference_rows(model, blob)
    assert _recheck(model, blob) == restrictions
    assert _outcome_strings(model, blob) == strings == cls.global_sections.outcome_strings()
