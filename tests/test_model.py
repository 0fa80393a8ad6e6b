"""Empirical and support models: marginals, no-signalling, support
extraction, and the one-hot / parity generators.

Core claims:
    - marginalization is the exact fiber sum and is transitive
    - the PR box with uniform halves is no-signalling; point-mass mismatch
      across an overlap is reported as one violation for that pair
    - the no-signalling check, read off the nonzero support's overlap
      fibers, reports what marginalizing every full table onto every overlap
      reports: the same pairs, sections and Fraction marginals, on random
      tables with zero entries, signalling or not
    - a distribution document's overlap table is built once, by the check,
      and never from marginals or an enumeration of an overlap's sections
    - a model's tables are summed once: a signalling document raises the
      same SignallingError on a second support_model() without reading a
      table again, and the violations a caller gets are its own list
    - the check adds no Fraction: it sums integer numerators over each
      table's common denominator and still reports what marginalize does,
      with exact Fraction marginals, where 1/3 + 1/6 meets 1/2 and where
      the two sides differ by 1/(2^89 - 1), and on random tables
    - overlap consistency is decided once per model: a report over both
      rings plus require_overlap_consistent walks the overlap table for
      violations once (bundled models), as do repeated support_violations
      and require_overlap_consistent calls on random arbitrary supports,
      whose violations are the one-sided fibers in table order, each time
      in the caller's own list and with the same SignallingError message
    - the Hardy support has exactly 13 sections; PR has 2 per context
    - one-hot supports have one section per context member; parity supports
      hold the stated parity
    - every bundled support model is consistent on all overlaps
    - the overlap table is the fibers of restriction, rebuilt section by
      section with restrict_section (bundled, random consistent and random
      arbitrary supports, nested contexts and one-sided fibers included),
      with rows and fibers in enumeration order, once each fiber's positions
      are mapped back through support_list
    - support_list is the support in canonical order, and a list returned
      to a caller is the caller's own
    - support_model checks each section by its labels, never enumerating a
      context (bundled models, one context of 40 measurements); an entry
      outside E(C) (not a Section, a wrong domain, an unknown label, values
      not a tuple) raises, from support_model and empirical_model, exactly
      where membership in the enumerated E(C) did, with its message
"""

import json
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from contextuality import (
    Ring,
    Section,
    SignallingError,
    SignallingViolation,
    SupportViolation,
    build_report,
    build_scenario,
    check_no_signalling,
    empirical_model,
    enumerate_sections,
    ks_support,
    marginalize,
    model as model_module,
    parity_support,
    parse_scenario,
    restrict_section,
    support_model,
    support_of,
    support_violations,
)
from contextuality.corpus import example_text

import helpers
from helpers import section

HARDY_TABLES = {  # signalling-free fixture whose support is the Hardy table
    ("a", "b"): {"0,0": "1/10", "0,1": "1/10", "1,0": "1/10", "1,1": "7/10"},
    ("a", "b'"): {"0,1": "1/5", "1,0": "3/5", "1,1": "1/5"},
    ("a'", "b"): {"0,1": "3/5", "1,0": "1/5", "1,1": "1/5"},
    ("a'", "b'"): {"0,0": "1/5", "0,1": "2/5", "1,0": "2/5"},
}


def bell_scenario():
    return build_scenario(
        ["a", "a'", "b", "b'"],
        "01",
        [("a", "b"), ("a", "b'"), ("a'", "b"), ("a'", "b'")],
    )


def hardy_distribution():
    scen = bell_scenario()
    tables = []
    for ctx in scen.contexts:
        raw = HARDY_TABLES[ctx.members]
        tables.append({section(ctx.members, k): Fraction(v) for k, v in raw.items()})
    return empirical_model(scen, tables)


def test_marginalize_uniform_and_point_mass():
    scen = bell_scenario()
    pairs = enumerate_sections(scen, ("a", "b"))
    uniform = {s: Fraction(1, 4) for s in pairs}
    assert marginalize(uniform, ("a",)) == {
        section(("a",), "0"): Fraction(1, 2),
        section(("a",), "1"): Fraction(1, 2),
    }
    point = {s: Fraction(1 if s.values == ("0", "1") else 0) for s in pairs}
    marginal = marginalize(point, ("b",))
    assert marginal[section(("b",), "1")] == 1
    assert marginal[section(("b",), "0")] == 0


def test_marginalize_pr_row_by_hand_sum():
    # (1/2, 0, 0, 1/2) on (a, b) restricted to a: cells 00+01 and 10+11.
    scen = bell_scenario()
    pairs = enumerate_sections(scen, ("a", "b"))
    row = dict(zip(pairs, [Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1, 2)]))
    assert marginalize(row, ("a",)) == {
        section(("a",), "0"): Fraction(1, 2),
        section(("a",), "1"): Fraction(1, 2),
    }


def test_marginalize_requires_subset():
    scen = bell_scenario()
    table = {s: Fraction(1, 4) for s in enumerate_sections(scen, ("a", "b"))}
    with pytest.raises(ValueError, match="not a subset"):
        marginalize(table, ("a'",))


def test_marginalization_transitive():
    rng = random.Random(110)
    for _ in range(200):
        scen = helpers.random_scenario(rng)
        full = scen.measurements
        weights = [rng.randint(0, 5) for _ in range(len(scen.outcomes) ** len(full))]
        total = sum(weights) or 1
        if sum(weights) == 0:
            weights[0] = total
        table = {
            s: Fraction(w, total)
            for s, w in zip(enumerate_sections(scen, full), weights)
        }
        mid = tuple(rng.sample(full, rng.randint(0, len(full))))
        small = tuple(rng.sample(mid, rng.randint(0, len(mid)))) if mid else ()
        via = marginalize(marginalize(table, mid), small)
        assert via == marginalize(table, small)
        # the marginal's support is the set of restrictions of the support
        from contextuality import restrict_section

        reduced = marginalize(table, mid)
        expected = {restrict_section(s, mid) for s, p in table.items() if p}
        assert {s for s, p in reduced.items() if p} == expected


def test_empirical_model_validation():
    scen = bell_scenario()
    half = {section(("a", "b"), "0,0"): Fraction(1, 2)}
    with pytest.raises(ValueError, match="sum to 1/2"):
        empirical_model(scen, [half] * 4)
    bad_key = {Section(("a",), ("0",)): Fraction(1)}
    with pytest.raises(ValueError, match="not a section"):
        empirical_model(scen, [bad_key] * 4)


def test_pr_box_is_no_signalling(corpus):
    model = corpus["prbox"].empirical
    assert check_no_signalling(model) == []


def test_point_mass_mismatch_gives_one_violation():
    scen = build_scenario(["a", "b", "b'"], "01", [("a", "b"), ("a", "b'")])
    tables = [
        {section(("a", "b"), "0,0"): Fraction(1)},
        {section(("a", "b'"), "1,0"): Fraction(1)},
    ]
    model = empirical_model(scen, tables)
    violations = check_no_signalling(model)
    assert len(violations) == 1
    violation = violations[0]
    assert (violation.first, violation.second) == (0, 1)
    assert violation.section == section(("a",), "0")
    assert (violation.first_marginal, violation.second_marginal) == (1, 0)
    with pytest.raises(SignallingError):
        support_of(model)


def test_single_context_never_signals():
    scen = build_scenario("AB", "01", [("A", "B")])
    table = {s: Fraction(1, 4) for s in enumerate_sections(scen, ("A", "B"))}
    assert check_no_signalling(empirical_model(scen, [table])) == []


def _violations_by_marginals(model):
    """No-signalling the long way: marginalize both full tables onto each
    overlap and compare them on every section of its carrier, in order."""
    violations = []
    for i, j, carrier in model.scenario.overlaps:
        left = marginalize(model.tables[i], carrier)
        right = marginalize(model.tables[j], carrier)
        for target in enumerate_sections(model.scenario, carrier):
            a, b = left.get(target, Fraction(0)), right.get(target, Fraction(0))
            if a != b:
                violations.append(SignallingViolation(i, j, target, a, b))
                break
    return violations


def _random_tables(rng, scen):
    """Per-context tables with many zero entries: marginals of one random
    global distribution (no-signalling), with probability 1/2 one context
    redrawn on its own (usually signalling)."""

    def table(members):
        sections = enumerate_sections(scen, members)
        weights = [rng.choice((0, 0, 1, 2, 3)) for _ in sections]
        weights[rng.randrange(len(weights))] += 1
        return {s: Fraction(w, sum(weights)) for s, w in zip(sections, weights)}

    joint = table(scen.measurements)
    tables = [marginalize(joint, ctx.members) for ctx in scen.contexts]
    if rng.random() < 0.5:
        k = rng.randrange(len(tables))
        tables[k] = table(scen.contexts[k].members)
    return empirical_model(scen, tables)


def test_no_signalling_on_overlap_fibers_matches_marginals():
    rng = random.Random(114)
    signalling = compatible = zeros = 0
    for _ in range(300):
        model = _random_tables(rng, helpers.random_scenario(rng))
        expected = _violations_by_marginals(model)
        got = check_no_signalling(model)
        assert got == expected
        for violation in got:
            assert type(violation.first_marginal) is Fraction
            assert type(violation.second_marginal) is Fraction
        assert check_no_signalling(model) == expected  # the cached support again
        if expected:
            signalling += 1
            with pytest.raises(SignallingError) as raised:
                support_of(model)
            assert list(raised.value.violations) == expected
        else:
            compatible += 1
            derived = support_of(model)
            assert derived.supports == tuple(
                frozenset(s for s, p in table.items() if p) for table in model.tables
            )
        zeros += any(p == 0 for table in model.tables for p in table.values())
    assert signalling >= 50 and compatible >= 50 and zeros >= 200


def _forbid_fraction_sums(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a Fraction was added")

    for name in ("__add__", "__radd__"):
        monkeypatch.setattr(Fraction, name, forbidden)


def test_no_signalling_sums_integer_numerators(monkeypatch):
    big = 2**89 - 1  # prime: the tables' common denominators differ by a factor of it
    scen = build_scenario(["a", "b", "c"], "01", [("a", "b"), ("a", "c")])
    second = {section(("a", "c"), "0,0"): Fraction(1, 2), section(("a", "c"), "1,1"): Fraction(1, 2)}
    for gap in (0, Fraction(1, big), -Fraction(1, big)):
        first = {
            section(("a", "b"), "0,0"): Fraction(1, 3),
            section(("a", "b"), "0,1"): Fraction(1, 6) + gap,  # a = 0: 1/3 + 1/6 + gap
            section(("a", "b"), "1,1"): Fraction(1, 2) - gap,
        }
        model = empirical_model(scen, [first, second])
        expected = _violations_by_marginals(model)
        with monkeypatch.context() as patched:
            _forbid_fraction_sums(patched)
            got = check_no_signalling(model)
        assert got == expected
        if gap:
            [violation] = got
            assert violation.section == section(("a",), "0")
            assert violation.first_marginal == Fraction(1, 2) + gap
            assert violation.second_marginal == Fraction(1, 2)
            assert type(violation.first_marginal) is Fraction
        else:
            assert got == []
    rng = random.Random(115)
    for _ in range(100):
        model = _random_tables(rng, helpers.random_scenario(rng))
        expected = _violations_by_marginals(model)
        with monkeypatch.context() as patched:
            _forbid_fraction_sums(patched)
            got = check_no_signalling(model)
        assert got == expected


def test_distribution_overlap_table_is_built_once(monkeypatch):
    listed = []
    enumerated = []
    support_list = model_module.SupportModel.support_list

    def counted_list(self, index):
        listed.append(index)
        return support_list(self, index)

    def counted_enumerate(scenario, members):
        enumerated.append(tuple(members))
        return enumerate_sections(scenario, members)

    def forbidden(*args):
        raise AssertionError("marginalize called")

    monkeypatch.setattr(model_module.SupportModel, "support_list", counted_list)
    monkeypatch.setattr(model_module, "enumerate_sections", counted_enumerate)
    monkeypatch.setattr(model_module, "marginalize", forbidden)
    document = parse_scenario(example_text("prbox"))
    support = document.support_model()
    overlaps = document.scenario.overlaps
    # The build lists the support of each side of each overlap, once.
    built = [index for i, j, _ in overlaps for index in (i, j)]
    assert listed == built
    table = support.overlap_table
    assert check_no_signalling(document.empirical) == []
    assert support_of(document.empirical) is support
    assert document.support_model() is support
    assert support.overlap_table is table
    assert listed == built
    contexts = {ctx.members for ctx in document.scenario.contexts}
    assert set(enumerated) <= contexts
    assert not contexts & {carrier for *_, carrier in overlaps}


def test_support_model_never_enumerates_a_context(corpus_supports, monkeypatch):
    enumerated = []

    def counted(scenario, members):
        enumerated.append(tuple(members))
        return enumerate_sections(scenario, members)

    monkeypatch.setattr(model_module, "enumerate_sections", counted)
    for model in corpus_supports.values():
        assert support_model(model.scenario, model.supports).supports == model.supports
    wide = parse_scenario(json.dumps(helpers.one_section_document(40))).support_model()
    assert [len(s) for s in wide.supports] == [1]
    assert enumerated == []


class _TaggedSection(Section):
    """Equal to no Section, so never a member of an enumerated E(C)."""


def test_entries_outside_e_c_raise_the_enumerated_checks_message():
    scen = build_scenario("abc", ["1", "0", "2"], [("a", "b"), ("b", "c")])
    other = Section(("b", "c"), ("0", "0"))
    entries = [
        Section(("a", "b"), ("0", "2")),
        Section(("a", "b"), ("2", "1")),
        ("a", "b"),
        "0,2",
        None,
        Section(("b", "a"), ("0", "2")),
        Section(("a",), ("0",)),
        Section(("a", "c"), ("0", "2")),
        Section(("a", "b"), ("0", "3")),
        Section(("a", "b"), (0, "2")),
        Section(("a", "b"), "02"),
        _TaggedSection(("a", "b"), ("0", "2")),
    ]
    # The reference: membership in the enumerated E(C), as the check was.
    allowed = set(enumerate_sections(scen, ("a", "b")))
    assert sum(entry in allowed for entry in entries) == 2
    for entry in entries:
        builds = [
            lambda: support_model(scen, [{entry}, {other}]),
            lambda: empirical_model(scen, [{entry: 1}, {other: 1}]),
        ]
        for build in builds:
            if entry in allowed:
                build()
                continue
            with pytest.raises(ValueError) as caught:
                build()
            assert str(caught.value) == f"context 0: {entry} is not a section of ('a', 'b')"


def test_a_signalling_document_is_summed_once():
    reads = []

    class Counting(dict):
        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

    raw = json.loads(example_text("prbox"))
    raw["model"]["distribution"][0] = {"0,0": "1"}  # a = 0 here, not in context 1
    document = parse_scenario(json.dumps(raw))
    tables = tuple(map(Counting, document.empirical.tables))
    document = replace(document, empirical=replace(document.empirical, tables=tables))
    with pytest.raises(SignallingError) as first:
        document.support_model()
    summed = len(reads)
    assert summed > 0 and first.value.violations
    with pytest.raises(SignallingError) as second:
        document.support_model()
    assert second.value.violations == first.value.violations
    got = check_no_signalling(document.empirical)
    assert got == list(first.value.violations)
    got.clear()
    assert check_no_signalling(document.empirical) == list(first.value.violations)
    assert len(reads) == summed


def test_hardy_support_has_13_sections(corpus):
    derived = support_of(hardy_distribution())
    assert sum(len(s) for s in derived.supports) == 13
    assert derived.supports == corpus["hardy"].support_model().supports


def test_pr_support_two_sections_per_context(corpus):
    derived = corpus["prbox"].support_model()
    assert [len(s) for s in derived.supports] == [2, 2, 2, 2]
    assert sum(len(s) for s in derived.supports) == 8


def test_deterministic_model_gives_singleton_supports():
    from contextuality import restrict_section

    scen = build_scenario("AB", "01", [("A",), ("B",), ("A", "B")])
    g = Section(("A", "B"), ("1", "0"))
    tables = []
    for ctx in scen.contexts:
        tables.append(
            {s: Fraction(1 if s == restrict_section(g, ctx.members) else 0)
             for s in enumerate_sections(scen, ctx.members)}
        )
    model = empirical_model(scen, tables)
    derived = support_of(model)
    assert all(len(s) == 1 for s in derived.supports)


def test_ks_support_shapes(corpus):
    triangle = ks_support(corpus["triangle"].scenario)
    for index in range(3):
        got = {s.outcome_string() for s in triangle.supports[index]}
        assert got == {"0,1", "1,0"}
    assert triangle.supports == corpus["triangle"].support_model().supports

    ks18 = ks_support(corpus["ks18"].scenario)
    for index in range(9):
        got = {s.outcome_string() for s in ks18.supports[index]}
        assert got == {"1,0,0,0", "0,1,0,0", "0,0,1,0", "0,0,0,1"}
    assert ks18.supports == corpus["ks18"].support_model().supports

    single = build_scenario("A", "01", [("A",)])
    assert ks_support(single).supports == (frozenset({Section(("A",), ("1",))}),)


def test_ks_support_sizes_match_context_sizes():
    rng = random.Random(111)
    for _ in range(100):
        scen = helpers.random_scenario(rng, antichain=True)
        model = ks_support(scen)
        for ctx in scen.contexts:
            support = model.supports[ctx.index]
            assert len(support) == len(ctx.members)
            assert all(s.values.count("1") == 1 for s in support)


def test_ks_support_requires_binary_outcomes():
    scen = build_scenario("AB", ["x", "y", "z"], [("A", "B")])
    with pytest.raises(ValueError, match='"0" and "1"'):
        ks_support(scen)
    with pytest.raises(ValueError, match='"0" and "1"'):
        parity_support(scen, [0])


def test_parity_support_small_cases():
    two = build_scenario("AB", "01", [("A", "B")])
    even = parity_support(two, [0])
    assert {s.outcome_string() for s in even.supports[0]} == {"0,0", "1,1"}
    one = build_scenario("A", "01", [("A",)])
    odd = parity_support(one, [1])
    assert {s.outcome_string() for s in odd.supports[0]} == {"1"}


def test_peres_mermin_is_rows_odd_columns_even(corpus):
    scen = corpus["peres-mermin"].scenario
    generated = parity_support(scen, [1, 1, 1, 0, 0, 0])
    assert generated.supports == corpus["peres-mermin"].support_model().supports
    assert all(len(s) == 4 for s in generated.supports)


def test_ghz_support_is_a_parity_table(corpus):
    scen = corpus["ghz"].scenario
    generated = parity_support(scen, [0, 1, 1, 1])
    assert generated.supports == corpus["ghz"].support_model().supports


def test_corpus_supports_are_overlap_consistent(corpus_supports):
    for name, model in corpus_supports.items():
        assert support_violations(model) == [], name


def test_overlap_table_is_the_fibers_of_restriction(corpus_supports):
    rng = random.Random(113)
    models = list(corpus_supports.values())
    models += [helpers.random_consistent_support(rng) for _ in range(60)]
    models += [helpers.random_any_support(rng, helpers.random_scenario(rng)) for _ in range(60)]
    nested = one_sided = 0
    for model in models:
        table = model.overlap_table
        # Each fiber holds positions into its context's sorted support.
        sections = [
            (i, j, target, tuple(model.support_list(i)[p] for p in left),
             tuple(model.support_list(j)[p] for p in right))
            for i, j, target, left, right in table
        ]
        assert sections == helpers.fibers_by_restriction(model)
        members = [set(ctx.members) for ctx in model.scenario.contexts]
        nested += any(
            members[i] < members[j] or members[j] < members[i]
            for i, j, _ in model.scenario.overlaps
        )
        one_sided += sum(not left or not right for *_, left, right in table)
    assert nested and one_sided


def test_support_list_is_sorted_and_a_fresh_list(corpus_supports):
    rng = random.Random(119)
    models = list(corpus_supports.values())
    models += [helpers.random_any_support(rng, helpers.random_scenario(rng)) for _ in range(20)]
    for model in models:
        for index, support in enumerate(model.supports):
            expected = sorted(support, key=model.scenario.section_sort_key)
            first = model.support_list(index)
            assert first == expected
            first.reverse()
            first.append(None)
            assert model.support_list(index) == expected


def test_support_of_satisfies_restriction_consistency():
    rng = random.Random(112)
    for _ in range(100):
        scen = helpers.random_scenario(rng)
        model = helpers.random_image_support(rng, scen)
        assert support_violations(model) == []


def test_inconsistent_supports_are_reported():
    scen = build_scenario("ABC", "01", [("A", "B"), ("B", "C")])
    model = support_model(
        scen,
        [
            {section(("A", "B"), "0,0")},
            {section(("B", "C"), "1,0")},
        ],
    )
    violations = support_violations(model)
    assert violations
    assert {v.present_in for v in violations} == {0, 1}


def test_overlap_consistency_is_walked_once_per_model(monkeypatch):
    walks = []
    table = model_module.SupportModel.overlap_table

    def counted(self):
        walks.append(sys._getframe(1).f_code.co_name)
        return table.fget(self)

    monkeypatch.setattr(model_module.SupportModel, "overlap_table", property(counted))
    for name in ("hardy", "prbox", "ks18"):
        document = parse_scenario(example_text(name))
        support = document.support_model()
        walks.clear()
        build_report(document, rings=(Ring.Z2, Ring.Z))
        assert model_module.require_overlap_consistent(support) is support
        assert support_violations(support) == []
        assert walks.count("support_violations") == 1
    rng = random.Random(116)
    seen = 0
    for _ in range(60):
        model = helpers.random_any_support(rng, helpers.random_scenario(rng))
        expected = [
            SupportViolation(i, j, target, i if left else j)
            for i, j, target, left, right in helpers.fibers_by_restriction(model)
            if not (left and right)
        ]
        walks.clear()
        first = support_violations(model)
        assert first == expected
        first.append(None)  # the caller's own list
        assert support_violations(model) == expected
        if expected:
            seen += 1
            message = rf"^support is possibilistically signalling at {len(expected)} section\(s\)$"
            for _ in range(2):
                with pytest.raises(SignallingError, match=message) as raised:
                    model_module.require_overlap_consistent(model)
                assert list(raised.value.violations) == expected
        assert walks.count("support_violations") == 1
    assert seen >= 20


def test_support_must_be_nonempty():
    scen = build_scenario("AB", "01", [("A", "B")])
    with pytest.raises(ValueError, match="nonempty"):
        support_model(scen, [set()])
