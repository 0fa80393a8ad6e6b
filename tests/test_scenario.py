"""Scenario construction, sections, restriction, the nerve, and connectivity.

Core claims:
    - contexts are canonicalized to global measurement order; duplicates rejected
    - a context inside another warns once per such pair, with the messages
      and order of the loop over ordered context pairs (a fixed cover and
      200 random ones, each declared in both index orders)
    - section restriction is function restriction and is transitive
    - enumeration order is lexicographic with the last measurement fastest
    - the nerve's simplices are injective index tuples with nonempty carrier
    - carriers grow along faces
    - connectivity matches an independent union-find computation
    - the overlaps found from the contexts holding each measurement are
      those of the loop over every context pair (helpers.reference_overlaps),
      pairs and common members in the same order, on the bundled covers,
      200 random ones, shuffled one-hot rings and a torus grid
"""

import random
import warnings

import pytest

from contextuality import (
    CoverWarning,
    Section,
    build_scenario,
    canonical_subset,
    enumerate_sections,
    face,
    is_connected,
    nerve,
    restrict_section,
)

import helpers


def triangle():
    return build_scenario("ABC", "01", [("A", "B"), ("B", "C"), ("C", "A")])


def test_contexts_canonicalized():
    scen = triangle()
    assert [c.members for c in scen.contexts] == [("A", "B"), ("B", "C"), ("A", "C")]
    assert [c.index for c in scen.contexts] == [0, 1, 2]


def test_duplicate_context_rejected():
    with pytest.raises(ValueError, match="duplicate context"):
        build_scenario("AB", "01", [("A", "B"), ("B", "A")])


def test_cover_must_reach_every_measurement():
    with pytest.raises(ValueError, match="does not reach"):
        build_scenario("ABC", "01", [("A", "B")])


def test_subset_context_warns_but_is_allowed():
    with pytest.warns(CoverWarning):
        scen = build_scenario("ABC", "01", [("A", "B", "C"), ("A", "B")])
    assert len(scen.contexts) == 2


def _containment_messages_by_pairs(scenario):
    """The containment warnings as the loop over ordered context pairs gave
    them, in its order."""
    members = [ctx.members for ctx in scenario.contexts]
    return [
        f"context {a} is contained in context {b}"
        for a in members
        for b in members
        if a != b and set(a) < set(b)
    ]


def test_nested_contexts_warn_as_the_ordered_pair_loop_did():
    rng = random.Random(11)
    fixed = [("A", "B", "C"), ("A", "B"), ("B", "C"), ("A",), ("C", "D")]
    covers = [("ABCD", fixed)]
    for _ in range(200):
        scen = helpers.random_scenario(rng)
        covers.append((scen.measurements, [ctx.members for ctx in scen.contexts]))
    counts = []
    for measurements, contexts in covers:
        for declared in (contexts, contexts[::-1]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                scen = build_scenario(measurements, "01", declared)
            assert all(w.category is CoverWarning and w.filename == __file__ for w in caught)
            assert [str(w.message) for w in caught] == _containment_messages_by_pairs(scen)
            counts.append(len(caught))
    assert counts[:2] == [4, 4] and sum(count > 1 for count in counts) >= 20


def test_outcome_labels_validated():
    with pytest.raises(ValueError, match="at least two outcomes"):
        build_scenario("AB", ["0"], [("A", "B")])
    with pytest.raises(ValueError, match="no commas"):
        build_scenario("AB", ["0", "1,2"], [("A", "B")])


def test_restrict_section_examples():
    s = Section(("a", "b"), ("0", "1"))
    assert restrict_section(s, {"a"}) == Section(("a",), ("0",))
    assert restrict_section(s, {"a", "b"}) == s
    ghz = Section(("A", "B", "C"), ("0", "1", "1"))
    assert restrict_section(ghz, {"A", "B"}) == Section(("A", "B"), ("0", "1"))
    with pytest.raises(ValueError, match="outside section domain"):
        restrict_section(s, {"c"})


def test_restriction_transitivity_randomized():
    rng = random.Random(101)
    for _ in range(200):
        scen = helpers.random_scenario(rng)
        domain = scen.measurements
        s = Section(domain, tuple(rng.choice(scen.outcomes) for _ in domain))
        mid = set(rng.sample(domain, rng.randint(0, len(domain))))
        small = set(rng.sample(sorted(mid), rng.randint(0, len(mid)))) if mid else set()
        via = restrict_section(restrict_section(s, mid), small)
        direct = restrict_section(s, small)
        assert via == direct


def test_enumerate_sections_order_matches_tables():
    scen = build_scenario("ab", "01", [("a", "b")])
    got = [s.values for s in enumerate_sections(scen, ("a", "b"))]
    assert got == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]


def test_enumerate_sections_empty_and_triple():
    scen = build_scenario("ABC", "01", [("A", "B", "C")])
    assert enumerate_sections(scen, ()) == [Section((), ())]
    assert len(enumerate_sections(scen, ("A", "B", "C"))) == 8


def test_enumerate_sections_sorted_unique_sized():
    rng = random.Random(102)
    for _ in range(200):
        scen = helpers.random_scenario(rng)
        subset = canonical_subset(
            scen, rng.sample(scen.measurements, rng.randint(0, len(scen.measurements)))
        )
        sections = enumerate_sections(scen, subset)
        assert len(sections) == len(scen.outcomes) ** len(subset)
        assert len(set(sections)) == len(sections)
        keys = [scen.section_sort_key(s) for s in sections]
        assert keys == sorted(keys)


def test_nerve_triangle():
    scen = triangle()
    dims = nerve(scen, 2)
    assert [s.vertices for s in dims[0]] == [(0,), (1,), (2,)]
    by_vertices = {s.vertices: s.carrier for s in dims[1]}
    assert by_vertices[(0, 1)] == ("B",)
    assert by_vertices[(0, 2)] == ("A",)
    assert by_vertices[(1, 2)] == ("C",)
    assert len(dims[1]) == 6  # both orderings of each intersecting pair
    assert dims[2] == []  # A&B&C have empty intersection


def test_nerve_pr_cover_carrier():
    scen = build_scenario(
        ["a", "a'", "b", "b'"],
        "01",
        [("a", "b"), ("a", "b'"), ("a'", "b"), ("a'", "b'")],
    )
    carriers = {s.vertices: s.carrier for s in nerve(scen, 1)[1]}
    assert carriers[(0, 1)] == ("a",)
    assert (0, 3) not in carriers  # (a,b) and (a',b') are disjoint


def test_nerve_excludes_disjoint_and_repeats():
    scen = build_scenario("ABCD", "01", [("A", "B"), ("C", "D")])
    dims = nerve(scen, 1)
    assert dims[1] == []
    assert all(len(set(s.vertices)) == len(s.vertices) for layer in dims for s in layer)


def test_face_examples():
    scen = triangle()
    simplex = [s for s in nerve(scen, 1)[1] if s.vertices == (0, 1)][0]
    assert face(scen, simplex, 0).vertices == (1,)
    assert face(scen, simplex, 1).vertices == (0,)
    with pytest.raises(IndexError):
        face(scen, simplex, 2)


def test_carrier_monotone_under_faces():
    rng = random.Random(103)
    checked = 0
    while checked < 200:
        scen = helpers.random_scenario(rng)
        for q in (1, 2):
            for simplex in nerve(scen, q)[q]:
                for j in range(q + 1):
                    bigger = face(scen, simplex, j)
                    assert set(simplex.carrier) <= set(bigger.carrier)
                    checked += 1


def test_is_connected_examples():
    assert is_connected(triangle())
    split = build_scenario("ABCD", "01", [("A", "B"), ("C", "D")])
    assert not is_connected(split)


def test_ks18_cover_is_connected(corpus):
    # Frozen from a breadth-first walk of the 9-context intersection graph.
    assert is_connected(corpus["ks18"].scenario)
    assert helpers.connected_by_union_find(corpus["ks18"].scenario)


def test_connectivity_matches_union_find():
    rng = random.Random(104)
    for _ in range(200):
        scen = helpers.random_scenario(rng)
        assert is_connected(scen) == helpers.connected_by_union_find(scen)


def test_overlaps_are_those_of_the_loop_over_every_pair(corpus):
    rng = random.Random(136)
    scenarios = [document.scenario for document in corpus.values()]
    scenarios += [helpers.random_scenario(rng, 8, 8) for _ in range(200)]
    scenarios += [helpers.ring_cover(k, random.Random(k)).scenario for k in (3, 12)]
    scenarios.append(helpers.grid_cover(4).scenario)
    for scenario in scenarios:
        assert scenario.overlaps == helpers.reference_overlaps(scenario)
