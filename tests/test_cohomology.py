"""Linear combinations, the cochain complex, and the obstruction.

Core claims:
    - push-forward sums fibers and is functorial; restriction of the
      embedding 1*s is 1*(s restricted)
    - the Hardy family (s1, s6+s7-s8, s11, s15) passes the witness check and
      restricts as computed by hand: to {a} it gives 1*(a:0), to {b'} the
      positive and negative (b':1) terms cancel leaving 1*(b':0)
    - a witness check against a base index outside the cover (negative or
      past the end) fails
    - the degree-0 coboundary on a pair (i, j) is w(i) - w(j) on the overlap
    - the coboundary matrix reproduces the coboundary map entry for entry,
      equals the row-by-row scan of helpers.reference_coboundary_matrix
      (also on overlap-inconsistent supports), and its GF(2) kernel on the
      triangle matches brute-force cocycle counting (2 cocycles: the all-0
      and all-1 families)
    - every obstruction system is delta^0 on the pairs i < j with the base
      block moved right: the non-base columns are its matrix and minus the
      base section's column its right-hand side; building one validates the
      base context and section like obstruction() does
    - obstruction verdicts: Hardy (a,b)->(0,0) vanishes over Z with a
      verified witness; PR box, triangle, GHZ sections do not vanish
    - inconsistent supports and non-support sections are rejected
    - support_at sorts the restricted supports: it lists exactly what
      filtering the subset's enumerated sections did, on every subset of
      every context of the bundled and 60 random models, half of them with
      three outcomes declared out of string order, the empty subset
      included (one empty section); a subset no context holds raises
    - the batch path gives exactly the per-section results, refuses
      signalling supports before solving, and factorizations carry no state
      from one solve to the next
    - Z/2 first: every Z verdict equals a per-section integer solve of the
      untouched system (bundled, random and Fano models); halved Z/2
      certificates pass the dense reference check and fail it with one 1/2
      zeroed or the vector doubled; with the echelon path forced, where
      every section is non-vanishing mod 2 (PR box, GHZ-4) delta^0 is
      factored once per call, each base context factors only its cocycle
      projection and nothing is factored over Z
    - all-vs-nothing components: on the PR box and GHZ-4 nothing is
      factored on either ring; the test runs once per call, unless the
      classification passed in counts a global section (Hardy); on the bundled all-vs-nothing models, GHZ-4
      and chain16 every section of a base context shares one certificate,
      with the all-vs-nothing reason (halved over Z), at most as many terms
      as the largest certificate before, and passing the dense reference
      check; on random models side by side with a parity graph and a lone
      context, over two or three outcome labels in either order, a
      component is all-vs-nothing exactly when brute force finds no point
      in every context's affine hull, its sections are refuted by the
      finder's rows on both rings, and every other component's results
      equal those of the forced echelon path
    - an all-vs-nothing base runs no solver machinery: on the PR box, GHZ-4,
      chain16, KS-18 and Peres-Mermin, on each ring and on both, nothing is
      factored, a pass builds only its pass-wide memos (no per-base
      projection, refutations or Hermite form), each base's certificate is
      re-checked once per ring, and every section of a block holds the
      same Certificate object
    - one GF(2) theory per support shape: _annihilator runs once per
      distinct support (twice on GHZ-4 and chain16, once on KS-18 and the
      one-hot ring of 11), and on those models, on random models and on
      random models beside a parity graph over two or three outcome labels
      the finder's rows equal helpers.reference_all_vs_nothing's, which
      computes every context's theory on its own
    - cocycle projection: on the bundled, 60 random, Fano, GHZ-3/4 and
      chain16 models every Z/2 verdict equals a per-section GF(2) solve,
      every certificate passes the dense reference check, every
      single-multiplier flip of a Z/2 certificate is rejected, and over Z a
      section non-vanishing mod 2 carries y/2
    - a mod-2 certificate that fails its re-check against the system, or a
      Hermite form that solves a system the integer lattice does not reach,
      raises VerificationError
    - the one-hot Fano plane is the model where Z is strictly stronger: all
      21 sections vanish over Z/2 (verified witnesses) and all 21 are
      non-vanishing over Z, with Hermite certificates whose denominators do
      not divide 2
    - integer cocycle lattice: over Z, delta^0 is factored at most once per
      call and each base context factors at most one lattice projection; on
      Hardy and ks-false-positive no per-base system is factored, while on
      the Fano plane every base context factors exactly one Hermite system;
      on the one-hot rings of 5 to 9 contexts every section extends, so
      nothing is factored over Z, with or without the classification passed
      in; on ks-false-positive, a lattice cocycle with one coordinate
      changed fails substitution and raises VerificationError
    - the search is only an accelerator: where it memoizes more frontier
      states than delta^0 has entries (the one-hot 6 x 6 torus grid) or
      nests past the recursion limit (the one-hot ring of 60 under a
      lowered limit), classify_in_reach gives None, no proof family is
      built, and all_obstructions and obstruction decide every section by
      its cocycle, with the verdicts the proofs give
    - witnesses are re-checked on the overlap table: deciding Hardy and a
      one-hot ring calls no restrict_combination
    - a pass reads the overlap fibers by support position: one Z/2
      all_obstructions on GHZ-4, its support model built, hashes at most 2
      Sections per support section (the parent hashed 576 for its 64)
    - verify_witness places each term of an entry at its support position:
      one Z/2 all_obstructions on the one-hot ring of 11 hashes at most 444
      Sections (620 when every entry was read over its whole support)
    - obstruction systems are views on their model: on GHZ-4 and on the
      bundled models, over both rings, every result of an all_obstructions
      call holds the call's model, and a system holds only its ring, base,
      section and model; its variables leave out the base block, and each
      read of its equations, matrix and rhs builds them anew as the overlap
      table's (i, j, section) labels and the dense split of
      coboundary_matrix(model, ring, 0), and reading every result's matrix
      and rhs (GHZ-4, ks18, the one-hot ring of 11) leaves the memory that
      cohomology.py allocated unchanged
    - no field of a result or of its system is a dict, the call's delta^0,
      its list of rows or of columns, or one of its rows or columns;
      systems of two calls on equal models, each with its own overlap
      table, are equal, with equal hashes
    - results are views too: an ObstructionResult holds its model, last and
      out of its repr, and no ObstructionSystem; its system, built on each
      read, equals ObstructionSystem(ring, base, section, model), also
      after dataclasses.replace
    - delta^0's rows are the overlap table's entries put through the one
      row builder, each kept by the per-row memo; its columns, built on
      first read, are the transpose of its rows, and they are the very
      matrix the solver's GF(2) echelon factors (with the echelon path
      forced)
    - an all-vs-nothing pass builds only the rows it reads: on the PR box,
      GHZ-4 and chain16, on each ring and on both, neither the list of
      every row nor the columns are built, and the rows built, each once,
      are exactly the distinct rows of the pass's certificates (34 of
      GHZ-4's 96)
    - certificates are their nonzero terms: multipliers is the dense
      expansion of the terms (0 over Z/2, Fraction 0 over Z), a certificate
      rebuilt from its dense multipliers (helpers.dense_certificate) or
      from its terms equals it, and the constructor refuses rows out of
      order, repeated or out of range, zero multipliers, and rows and
      multipliers of different counts
    - one pass serves both rings: `report`, `obstruction --all` and
      `obstruction --context/--section` with `--ring both` (Hardy, PR box,
      ks-false-positive, Fano) each build one _Coboundary, run the
      all-vs-nothing test once (never for the report on Hardy, whose
      classification counts a global section), factor delta^0's transpose
      mod 2 once (never on the PR box) and search at most once (never for
      the report, which passes its classification)
    - each ring's results from a both-rings pass equal a lone
      all_obstructions on that ring (verdict, witness, certificate and
      system), with and without the classification passed, on the bundled
      models, the one-hot Fano plane, GHZ-4 and 50 random models, and the
      one-section form gives the same results
    - delta^0's transpose is never built on the PR box or GHZ-4, nor on the
      one-hot ring of 5 given its classification, on one ring or both; it
      is built exactly once per pass where the echelon runs (Hardy, and
      the PR box and GHZ-4 with the echelon path forced)
"""

import copy
import dataclasses
import gc
import json
import random
import sys
import tracemalloc
import typing
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    Ring,
    Section,
    SignallingError,
    VerificationError,
    all_obstructions,
    build_obstruction_system,
    build_scenario,
    canonical_subset,
    coboundary,
    coboundary_matrix,
    cochain,
    cochain_basis,
    cochain_from_vector,
    cochain_to_vector,
    combination,
    embed,
    enumerate_sections,
    gf2_cohomology_dimensions,
    ks_support,
    obstruction,
    parity_support,
    push_forward,
    restrict_combination,
    restrict_section,
    support_at,
    support_model,
    support_violations,
    verify_witness,
    zero_cochain,
    zero_combination,
)
from contextuality import Verdict, classify, cohomology, linalg
from contextuality.cli import main
from contextuality.cohomology import classify_in_reach
from contextuality.corpus import example_text
from contextuality.documents import parse_scenario
from contextuality.extendability import SearchLimit
from contextuality.linalg import Certificate, check_certificate, factor, mat_vec, solve_linear
from contextuality.report import RING_ORDER
from contextuality.scenario import nerve

import helpers
from helpers import section


def hardy_witness(scen):
    ab, ab_, a_b, a_b_ = (ctx.members for ctx in scen.contexts)
    r1 = embed(Ring.Z, section(ab, "0,0"))
    r2 = combination(
        Ring.Z,
        ab_,
        {
            section(ab_, "0,1"): 1,
            section(ab_, "1,0"): 1,
            section(ab_, "1,1"): -1,
        },
    )
    r3 = embed(Ring.Z, section(a_b, "1,0"))
    r4 = embed(Ring.Z, section(a_b_, "1,0"))
    return (r1, r2, r3, r4)


def test_push_forward_identity():
    combo = combination(
        Ring.Z,
        ("a", "b"),
        {section(("a", "b"), "0,1"): 2, section(("a", "b"), "1,0"): -1},
    )
    assert push_forward(lambda s: s, combo) == combo


def test_push_forward_fiber_cancellation():
    x = section(("a", "b"), "0,0")
    y = section(("a", "b"), "0,1")
    combo = combination(Ring.Z, ("a", "b"), {x: 1, y: -1})
    result = push_forward(lambda s: restrict_section(s, {"a"}), combo, domain=("a",))
    assert result.is_zero


def test_hardy_family_restrictions_by_hand(corpus):
    scen = corpus["hardy"].scenario
    r1, r2, r3, r4 = hardy_witness(scen)
    assert restrict_combination(r2, {"a"}) == embed(Ring.Z, section(("a",), "0"))
    assert restrict_combination(r2, {"a"}) == restrict_combination(r1, {"a"})
    # (b':1) + (b':0) - (b':1) collapses to (b':0), matching r4 restricted.
    assert restrict_combination(r2, {"b'"}) == embed(Ring.Z, section(("b'",), "0"))
    assert restrict_combination(r2, {"b'"}) == restrict_combination(r4, {"b'"})
    assert restrict_combination(r3, {"b"}) == restrict_combination(r1, {"b"})
    assert restrict_combination(r3, {"a'"}) == restrict_combination(r4, {"a'"})


def test_hardy_paper_family_is_a_witness(corpus, corpus_supports):
    scen = corpus["hardy"].scenario
    model = corpus_supports["hardy"]
    witness = hardy_witness(scen)
    assert verify_witness(model, 0, section(scen.contexts[0].members, "0,0"), witness, Ring.Z)


@pytest.mark.parametrize("base", [-4, 4])
def test_witness_with_base_out_of_range_is_rejected(base, corpus, corpus_supports):
    # -4 would index the base entry of context 0 from the end.
    scen = corpus["hardy"].scenario
    witness = hardy_witness(scen)
    t = section(scen.contexts[0].members, "0,0")
    assert not verify_witness(corpus_supports["hardy"], base, t, witness, Ring.Z)


def test_embedding_commutes_with_restriction():
    s = Section(("a", "b", "c"), ("0", "1", "1"))
    left = restrict_combination(embed(Ring.Z, s), {"a", "c"})
    assert left == embed(Ring.Z, restrict_section(s, {"a", "c"}))
    zero = zero_combination(Ring.Z, ("a", "b"))
    assert restrict_combination(zero, {"a"}).is_zero


def test_mod2_coefficients_are_reduced():
    s = section(("a", "b"), "0,0")
    combo = combination(Ring.Z2, ("a", "b"), {s: 3})
    assert combo.coefficients == {s: 1}
    assert (combo + combo).is_zero


def test_combination_domain_mismatch_rejected():
    with pytest.raises(ValueError, match="cannot appear"):
        combination(Ring.Z, ("a",), {section(("a", "b"), "0,0"): 1})


def test_restrict_combination_requires_subset():
    combo = embed(Ring.Z, section(("a", "b"), "0,1"))
    with pytest.raises(ValueError, match="cannot restrict"):
        restrict_combination(combo, {"c"})


def test_push_forward_rejects_mixed_target_domains():
    x = section(("a", "b"), "0,0")
    y = section(("a", "b"), "1,1")
    combo = combination(Ring.Z, ("a", "b"), {x: 1, y: 1})

    def crooked(s):
        return restrict_section(s, {"a"} if s == x else {"b"})

    with pytest.raises(ValueError, match="mixed domains"):
        push_forward(crooked, combo)
    with pytest.raises(ValueError, match="cannot infer"):
        push_forward(lambda s: s, zero_combination(Ring.Z, ("a",)))


def test_coboundary_degree_zero_formula(corpus_supports):
    model = corpus_supports["triangle"]
    ring = Ring.Z
    values = {}
    for ctx in model.scenario.contexts:
        values[(ctx.index,)] = embed(ring, model.support_list(ctx.index)[0])
    omega = cochain(model, ring, 0, values)
    delta = coboundary(0, omega)
    for (i, j), value in delta.values.items():
        carrier = [s for s in delta.values if s == (i, j)]
        overlap = set(model.scenario.contexts[i].members) & set(
            model.scenario.contexts[j].members
        )
        expected = restrict_combination(values[(i,)], overlap) - restrict_combination(
            values[(j,)], overlap
        )
        assert value == expected


def test_compatible_family_has_zero_coboundary(corpus_supports):
    rng = random.Random(116)
    model = corpus_supports["prbox"]
    omega = helpers.compatible_cochain(rng, model, Ring.Z)
    delta = coboundary(0, omega)
    assert all(v.is_zero for v in delta.values.values())


def test_coboundary_squared_is_zero_small():
    rng = random.Random(117)
    for _ in range(20):
        model = helpers.random_consistent_support(rng)
        for ring in (Ring.Z, Ring.Z2):
            omega = helpers.random_cochain(rng, model, ring, 0)
            twice = coboundary(1, coboundary(0, omega))
            assert all(v.is_zero for v in twice.values.values())


def test_degree_mismatch_rejected(corpus_supports):
    omega = zero_cochain(corpus_supports["triangle"], Ring.Z, 0)
    with pytest.raises(ValueError, match="degree"):
        coboundary(1, omega)


def test_single_context_cover_has_empty_matrix():
    scen = build_scenario("AB", "01", [("A", "B")])
    model = support_model(scen, [{section(("A", "B"), "0,0")}])
    assert coboundary_matrix(model, Ring.Z, 0) == []


def test_matrix_applied_to_compatible_family_is_zero(corpus_supports):
    model = corpus_supports["prbox"]
    matrix = coboundary_matrix(model, Ring.Z2, 0)
    # The all-ones cochain is the indicator of the unique GF(2) compatible
    # family of full supports: every variable equal.
    ones = [1] * len(cochain_to_vector(zero_cochain(model, Ring.Z2, 0)))
    assert all(v % 2 == 0 for v in mat_vec(matrix, ones))


def test_triangle_kernel_matches_cocycle_enumeration(corpus_supports):
    from contextuality.linalg import gf2_nullity, gf2_rank

    model = corpus_supports["triangle"]
    matrix = coboundary_matrix(model, Ring.Z2, 0)
    assert len(matrix) == 12 and len(matrix[0]) == 6
    nullity = gf2_nullity(matrix, width=6)
    cocycles = 0
    for bits in product((0, 1), repeat=6):
        omega = cochain_from_vector(model, Ring.Z2, 0, bits)
        delta = coboundary(0, omega)
        if all(v.is_zero for v in delta.values.values()):
            cocycles += 1
    assert cocycles == 2 ** nullity == 2  # the all-0 and all-1 families
    assert gf2_rank(matrix) == 5
    z_dim, b_dim, h_dim = gf2_cohomology_dimensions(model, 0)
    assert (z_dim, b_dim, h_dim) == (1, 0, 1)


def test_matrix_agrees_with_coboundary_randomized():
    rng = random.Random(118)
    for _ in range(60):
        model = helpers.random_consistent_support(rng)
        for ring in (Ring.Z, Ring.Z2):
            for degree in (0, 1):
                omega = helpers.random_cochain(rng, model, ring, degree)
                matrix = coboundary_matrix(model, ring, degree)
                via_matrix = [ring.reduce(v) for v in mat_vec(matrix, cochain_to_vector(omega))]
                direct = cochain_to_vector(coboundary(degree, omega))
                assert via_matrix == [ring.reduce(v) for v in direct]


def test_matrix_matches_row_scan_reference():
    # On the pair (0, 1), B:1 is possible only through context 2, so its row
    # of the degree-0 matrix is zero and must stay in place.
    scen = build_scenario("ABCD", "01", [("A", "B"), ("B", "C"), ("B", "D")])
    gap = support_model(
        scen,
        [
            {section(("A", "B"), "0,0")},
            {section(("B", "C"), "0,0")},
            {section(("B", "D"), "0,1"), section(("B", "D"), "1,1")},
        ],
    )
    assert sum(not any(row) for row in coboundary_matrix(gap, Ring.Z, 0)) == 2
    rng = random.Random(122)
    models = [gap]
    for k in range(120):
        if k % 2:
            models.append(helpers.random_consistent_support(rng))
        else:
            models.append(helpers.random_any_support(rng, helpers.random_scenario(rng)))
    assert sum(bool(support_violations(model)) for model in models) >= 10
    for model in models:
        for ring in (Ring.Z, Ring.Z2):
            for degree in (0, 1):
                expected = helpers.reference_coboundary_matrix(model, ring, degree)
                assert coboundary_matrix(model, ring, degree) == expected


@pytest.mark.parametrize("ring", [Ring.Z, Ring.Z2])
def test_obstruction_system_is_coboundary_with_base_block_moved_right(ring, corpus_supports):
    rng = random.Random(123)
    models = list(corpus_supports.values())
    models += [helpers.random_consistent_support(rng) for _ in range(60)]
    for model in models:
        delta = coboundary_matrix(model, ring, 0)
        pairs = [
            (simplex.vertices, s)
            for simplex in nerve(model.scenario, 1)[1]
            for s in support_at(model, simplex.carrier)
        ]
        rows = [row for row, ((i, j), _) in zip(delta, pairs) if i < j]
        equations = tuple((i, j, s) for (i, j), s in pairs if i < j)
        basis = [(simplex.vertices[0], s) for simplex, s in cochain_basis(model, 0)]
        for ctx in model.scenario.contexts:
            kept = [k for k, (owner, _) in enumerate(basis) if owner != ctx.index]
            for s in model.support_list(ctx.index):
                system = build_obstruction_system(model, ctx.index, s, ring)
                column = basis.index((ctx.index, s))
                assert system.equations == equations
                assert system.variables == tuple(basis[k] for k in kept)
                assert system.matrix == tuple(tuple(row[k] for k in kept) for row in rows)
                assert system.rhs == tuple(ring.reduce(-row[column]) for row in rows)


def test_build_obstruction_system_rejects_bad_inputs(corpus_supports):
    model = corpus_supports["prbox"]
    members = model.scenario.contexts[0].members
    with pytest.raises(ValueError, match="not in the support"):
        build_obstruction_system(model, 0, section(members, "0,1"), Ring.Z)
    for base in (9, -1):
        with pytest.raises(ValueError, match="no context"):
            build_obstruction_system(model, base, section(members, "0,0"), Ring.Z2)
    with pytest.raises(SignallingError, match="possibilistically signalling"):
        build_obstruction_system(_crooked_support(), 0, section(("A", "B"), "0,0"), Ring.Z)


def test_matrix_entries_are_signs(corpus_supports):
    for name in ("ghz", "peres-mermin"):
        matrix = coboundary_matrix(corpus_supports[name], Ring.Z, 0)
        assert {v for row in matrix for v in row} <= {-1, 0, 1}


def test_hardy_obstruction_vanishes_over_z(corpus_supports):
    model = corpus_supports["hardy"]
    s1 = section(model.scenario.contexts[0].members, "0,0")
    result = obstruction(model, 0, s1, Ring.Z)
    assert result.vanishes
    assert result.witness is not None
    assert verify_witness(model, 0, s1, result.witness, Ring.Z)
    coefficients = [c for combo in result.witness for _, c in combo.terms()]
    assert -1 in coefficients  # negative coefficients are unavoidable here


def test_pr_box_obstructions_never_vanish(corpus_supports):
    model = corpus_supports["prbox"]
    for ring in (Ring.Z, Ring.Z2):
        results = all_obstructions(model, ring)
        assert len(results) == 8
        assert all(not r.vanishes for r in results.values())
        for r in results.values():
            assert r.certificate is not None
            assert check_certificate(
                [list(row) for row in r.system.matrix], list(r.system.rhs), r.certificate
            )


def test_triangle_obstructions_never_vanish(corpus_supports):
    for ring in (Ring.Z, Ring.Z2):
        results = all_obstructions(corpus_supports["triangle"], ring)
        assert len(results) == 6
        assert all(not r.vanishes for r in results.values())


def test_ghz_all_sixteen_fail_mod2(corpus_supports):
    results = all_obstructions(corpus_supports["ghz"], Ring.Z2)
    assert len(results) == 16
    assert all(not r.vanishes for r in results.values())


def test_full_support_obstructions_vanish():
    scen = build_scenario("ABC", "01", [("A", "B"), ("B", "C")])
    from contextuality import enumerate_sections

    model = support_model(
        scen, [enumerate_sections(scen, ctx.members) for ctx in scen.contexts]
    )
    for ring in (Ring.Z, Ring.Z2):
        assert all(r.vanishes for r in all_obstructions(model, ring).values())


def test_obstruction_rejects_bad_inputs(corpus_supports):
    model = corpus_supports["prbox"]
    ctx = model.scenario.contexts[0]
    with pytest.raises(ValueError, match="not in the support"):
        obstruction(model, 0, section(ctx.members, "0,1"), Ring.Z)
    scen = build_scenario("ABC", "01", [("A", "B"), ("B", "C")])
    crooked = support_model(
        scen,
        [{section(("A", "B"), "0,0")}, {section(("B", "C"), "1,0")}],
    )
    with pytest.raises(SignallingError, match="possibilistically signalling"):
        obstruction(crooked, 0, section(("A", "B"), "0,0"), Ring.Z)


def test_support_at_matches_any_containing_context(corpus_supports):
    model = corpus_supports["ghz"]
    got = {s.outcome_string() for s in support_at(model, ("A",))}
    assert got == {"0", "1"}
    assert support_at(model, ()) == [Section((), ())]
    with pytest.raises(ValueError, match="not contained"):
        support_at(model, ("A", "A'"))
    # Every pair of A, B, C lies in a context, but no context holds all three.
    triangle = ks_support(build_scenario("ABC", "01", [("A", "B"), ("B", "C"), ("A", "C")]))
    with pytest.raises(ValueError, match="not contained"):
        support_at(triangle, "ABC")


def _support_at_by_enumeration(model, subset):
    """support_at as it was: the subset's sections, enumerated, filtered by
    the restrictions of every containing context's support."""
    scenario = model.scenario
    target = canonical_subset(scenario, subset)
    possible = {
        restrict_section(s, target)
        for ctx in scenario.contexts
        if set(target) <= set(ctx.members)
        for s in model.supports[ctx.index]
    }
    return [s for s in enumerate_sections(scenario, target) if s in possible]


def test_support_at_is_the_enumeration_filter(corpus_supports):
    rng = random.Random(20)
    models = list(corpus_supports.values())
    for k in range(60):
        scen = helpers.random_scenario(rng)
        if k % 2:  # three outcomes, declared out of string order
            contexts = [ctx.members for ctx in scen.contexts]
            scen = build_scenario(scen.measurements, rng.sample("012", 3), contexts)
        models.append(helpers.random_any_support(rng, scen))
    for model in models:
        for ctx in model.scenario.contexts:
            for size in range(len(ctx.members) + 1):
                for subset in combinations(ctx.members, size):
                    expected = _support_at_by_enumeration(model, subset)
                    assert support_at(model, subset[::-1]) == expected


@pytest.mark.parametrize("identify", [True, False])
@pytest.mark.parametrize("ring", [Ring.Z, Ring.Z2])
def test_batch_matches_per_section(ring, identify, corpus_supports):
    rng = random.Random(120)
    models = list(corpus_supports.values())
    models += [helpers.random_consistent_support(rng) for _ in range(60)]
    for model in models:
        batch = all_obstructions(model, ring, identify=identify)
        assert list(batch) == helpers.sections_of(model)
        for (index, s), result in batch.items():
            single = obstruction(model, index, s, ring, identify=identify)
            assert result.vanishes == single.vanishes
            assert result.witness == single.witness
            assert result.certificate == single.certificate
            assert result.system == single.system


def _crooked_support():
    scen = build_scenario("ABC", "01", [("A", "B"), ("B", "C")])
    return support_model(
        scen,
        [{section(("A", "B"), "0,0")}, {section(("B", "C"), "1,0")}],
    )


def test_batch_rejects_signalling_before_solving(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a system of a signalling support was built or solved")

    for name in ("build_obstruction_system", "factor", "solve_linear"):
        monkeypatch.setattr(cohomology, name, forbidden)
    for ring in (Ring.Z, Ring.Z2):
        with pytest.raises(SignallingError, match="possibilistically signalling"):
            all_obstructions(_crooked_support(), ring)


@pytest.mark.parametrize("ring", [Ring.Z, Ring.Z2])
def test_factorization_keeps_no_state_between_solves(ring, corpus_supports):
    for name in ("hardy", "ks-false-positive", "prbox"):
        model = corpus_supports[name]
        for ctx in model.scenario.contexts:
            systems = [
                build_obstruction_system(model, ctx.index, s, ring)
                for s in model.support_list(ctx.index)
            ]
            matrix, width = systems[0].matrix, len(systems[0].variables)
            shared = factor(matrix, ring, width=width)
            before = copy.deepcopy(vars(shared))
            for second in systems:
                fresh = factor(matrix, ring, width=width).solve(second.rhs)
                for first in systems:
                    shared.solve(first.rhs)
                    assert shared.solve(second.rhs) == fresh
            assert vars(shared) == before


# ---------------------------------------------------------------------------
# Z/2 first: halved certificates, the Hermite fallback, laziness

HALVED = "Z/2 certificate halved: y.A even, y.b odd"


def fano_one_hot():
    """One-hot supports on the Fano plane: 7 measurements, lines {i, i+1,
    i+3} mod 7 as contexts.  Every measurement lies in 3 contexts, so
    summing a witness's coefficient sums over the contexts gives 3*sum = 7:
    no integer witness, though the system is solvable mod 2."""
    points = [f"p{i}" for i in range(7)]
    lines = [[points[(i + d) % 7] for d in (0, 1, 3)] for i in range(7)]
    return ks_support(build_scenario(points, "01", lines))


def ghz_parity(parties):
    """n-party GHZ parity supports on the contexts with an even number of Y
    measurements (helpers.ghz_scenario); a context with 2j Y's has outcome
    parity j mod 2."""
    scenario = helpers.ghz_scenario(parties)
    bits = [sum(m[0] == "Y" for m in c.members) // 2 % 2 for c in scenario.contexts]
    return parity_support(scenario, bits)


@pytest.mark.parametrize("identify", [True, False])
def test_fano_plane_vanishes_mod_2_but_not_over_z(identify):
    model = fano_one_hot()
    mod2 = all_obstructions(model, Ring.Z2, identify=identify)
    assert len(mod2) == 21
    for (index, s), result in mod2.items():
        assert result.vanishes
        assert verify_witness(model, index, s, result.witness, Ring.Z2)
    over_z = all_obstructions(model, Ring.Z, identify=identify)
    assert len(over_z) == 21
    for result in over_z.values():
        assert not result.vanishes
        certificate = result.certificate
        assert certificate.reason != HALVED
        assert helpers.reference_check_certificate(
            result.system.matrix, result.system.rhs, certificate
        )
        # A certificate whose denominators divide 2 would, doubled, refute
        # the system mod 2.
        assert lcm(*(Fraction(v).denominator for v in certificate.multipliers)) > 2


def _halved_mutations(certificate):
    """The first 1/2 set to 0 (some column of y.A becomes half-integral:
    every row of an obstruction system has a +-1 entry), and the vector
    doubled (y.b becomes integral)."""
    y = certificate.multipliers
    i = next(i for i, v in enumerate(y) if v)
    out = [y[:i] + (Fraction(0),) + y[i + 1 :], tuple(2 * v for v in y)]
    return [helpers.dense_certificate(Ring.Z, m, certificate.reason) for m in out]


def test_z_verdicts_match_per_section_integer_solve(corpus_supports):
    rng = random.Random(122)
    models = list(corpus_supports.values())
    models += [helpers.random_consistent_support(rng) for _ in range(60)]
    models.append(fano_one_hot())
    halved = 0
    for model in models:
        for result in all_obstructions(model, Ring.Z).values():
            system = result.system
            assert result.vanishes == solve_linear(system.matrix, system.rhs, Ring.Z).solvable
            if result.vanishes or result.certificate.reason != HALVED:
                continue
            halved += 1
            assert helpers.reference_check_certificate(
                system.matrix, system.rhs, result.certificate
            )
            for mutated in _halved_mutations(result.certificate):
                assert not check_certificate(system.matrix, system.rhs, mutated)
                assert not helpers.reference_check_certificate(system.matrix, system.rhs, mutated)
    assert halved > 0


@pytest.mark.parametrize("name", ["prbox", "ghz4"])
def test_no_integer_or_identified_factorization_when_mod_2_decides(
    name, corpus_supports, monkeypatch
):
    model = corpus_supports["prbox"] if name == "prbox" else ghz_parity(4)
    helpers.echelon_only(monkeypatch)
    factored: list[tuple[int, int]] = []

    def guarded_factor(matrix, ring, width=None):
        if ring is Ring.Z:
            raise AssertionError("factored over Z")
        factored.append((len(matrix), width))
        return factor(matrix, ring, width)

    monkeypatch.setattr(cohomology, "factor", guarded_factor)
    sections = [len(support) for support in model.supports]
    equations = len(model.overlap_table)
    for ring in (Ring.Z, Ring.Z2):
        factored.clear()
        results = all_obstructions(model, ring)
        assert not any(result.vanishes for result in results.values())
        # delta^0 transposed, once per call, then one cocycle projection
        # (|S_b| rows, one column per cocycle) per base context; no
        # per-base system, which has one row per equation.
        (height, width), *projections = factored
        assert (height, width) == (sum(sections), equations)
        assert [rows for rows, _ in projections] == sections
        assert len({cols for _, cols in projections}) == 1
        assert equations not in sections


_RINGS = ["ring5", "ring6", "ring7", "ring8", "ring9"]


@pytest.mark.parametrize("name", _RINGS + ["hardy", "fano", "ks-false-positive"])
def test_integer_lattice_is_factored_once_per_call(name, corpus_supports, monkeypatch):
    if name in corpus_supports:
        model = corpus_supports[name]
    else:
        model = fano_one_hot() if name == "fano" else helpers.ring_cover(int(name[4:]))
    factored: list[tuple[int, int]] = []

    def recording_factor(matrix, ring, width=None):
        if ring is Ring.Z:
            factored.append((len(matrix), width))
        return factor(matrix, ring, width)

    monkeypatch.setattr(cohomology, "factor", recording_factor)
    sections = [len(support) for support in model.supports]
    equations = len(model.overlap_table)
    assert equations not in sections
    results = all_obstructions(model, Ring.Z)
    if name in _RINGS:  # every section extends: its proof is the witness
        assert all(result.vanishes for result in results.values())
        assert factored == []
        return
    # delta^0 over Z, once per call, then per base context at most one
    # lattice projection (|S_b| rows); a system with one row per equation is
    # a per-base Hermite factorization.
    (height, width), *rest = factored
    assert (height, width) == (equations, sum(sections))
    per_base = [rows for rows, _ in rest if rows == equations]
    assert len(rest) - len(per_base) <= len(sections)
    if name == "fano":  # every section vanishes mod 2 only
        assert not any(result.vanishes for result in results.values())
        assert len(per_base) == len(sections)
    else:
        assert any(result.vanishes for result in results.values())
        assert not per_base


@pytest.mark.parametrize("name", _RINGS)
def test_ring_cover_given_its_classification_factors_nothing_over_z(name, monkeypatch):
    model = helpers.ring_cover(int(name[4:]))
    classification = classify(model)
    assert classification.verdict is Verdict.NON_CONTEXTUAL

    def guarded_factor(matrix, ring, width=None):
        if ring is Ring.Z:
            raise AssertionError("factored over Z")
        return factor(matrix, ring, width)

    monkeypatch.setattr(cohomology, "factor", guarded_factor)
    monkeypatch.setattr(cohomology, "classify", lambda model: pytest.fail("classified again"))
    results = all_obstructions(model, Ring.Z, classification=classification)
    assert len(results) == sum(map(len, model.supports))
    for (base, s), result in results.items():
        assert result.vanishes and result.certificate is None
        assert verify_witness(model, base, s, result.witness, Ring.Z)


def _by_cocycles(model, ring, monkeypatch):
    """Every verdict of the model, decided with no proof family built, and
    each witness re-checked."""
    monkeypatch.setattr(cohomology, "_proof_families", lambda *_: pytest.fail("proofs built"))
    results = all_obstructions(model, ring)
    base, section = next(iter(results))
    assert obstruction(model, base, section, ring) == results[base, section]
    for (base, section), result in results.items():
        if result.vanishes:
            assert verify_witness(model, base, section, result.witness, ring)
    return {key: result.vanishes for key, result in results.items()}


@pytest.mark.parametrize("ring", [Ring.Z2, Ring.Z])
def test_a_search_past_its_state_limit_leaves_the_cocycle_path(ring, monkeypatch):
    model = helpers.grid_cover(6)  # frontier about 12 wide; delta^0 144 x 144
    classification = classify(model)
    assert classification.verdict is Verdict.NON_CONTEXTUAL
    with pytest.raises(SearchLimit):
        classify(model, limit=len(classification.extendable) ** 2)
    assert classify_in_reach(model) is None
    expected = all_obstructions(model, ring, classification=classification)
    assert _by_cocycles(model, ring, monkeypatch) == {key: True for key in expected}


@pytest.mark.parametrize("ring", [Ring.Z2, Ring.Z])
def test_a_search_past_the_recursion_limit_leaves_the_cocycle_path(ring, monkeypatch):
    model = helpers.ring_cover(60)  # one nested call per context in the search
    classification = classify(model)
    expected = all_obstructions(model, ring, classification=classification)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        with pytest.raises(RecursionError):
            classify(model)
        assert classify_in_reach(model) is None
        verdicts = _by_cocycles(model, ring, monkeypatch)
    finally:
        sys.setrecursionlimit(limit)
    assert verdicts == {key: result.vanishes for key, result in expected.items()}
    assert all(verdicts.values())


def test_corrupted_lattice_cocycle_raises(corpus_supports, monkeypatch):
    real = linalg._HermiteBasis.kernel

    def corrupted(self):
        first, *others = real(self)
        first = dict(first)
        first[0] = first.get(0, 0) + 1
        return (first, *others)

    monkeypatch.setattr(linalg._HermiteBasis, "kernel", corrupted)
    with pytest.raises(VerificationError, match="cocycle fails substitution"):
        all_obstructions(corpus_supports["ks-false-positive"], Ring.Z)


@pytest.mark.parametrize("ring", [Ring.Z2, Ring.Z])
def test_witnesses_are_checked_on_the_overlap_table(ring, corpus_supports, monkeypatch):
    # The re-check reads the fibers the overlap table already holds; it
    # pushes no combination forward.
    def forbidden(combo, subset):
        raise AssertionError("restrict_combination called while deciding")

    monkeypatch.setattr(cohomology, "restrict_combination", forbidden)
    for model in (corpus_supports["hardy"], helpers.ring_cover(5)):
        results = all_obstructions(model, ring)
        assert any(result.vanishes for result in results.values())


def test_lattice_missing_cocycles_raises(corpus_supports, monkeypatch):
    # With only the first lattice vector, the projection reaches too few of
    # ks-false-positive's vanishing sections, none of which extends, and the
    # Hermite form of the untouched system solves what the lattice does not.
    real = linalg._HermiteBasis.kernel
    monkeypatch.setattr(linalg._HermiteBasis, "kernel", lambda self: real(self)[:1])
    with pytest.raises(VerificationError, match="Hermite form solves what the lattice"):
        all_obstructions(corpus_supports["ks-false-positive"], Ring.Z)


def test_unhalved_certificate_over_z_raises(corpus_supports, monkeypatch):
    def unhalved(certificate):
        return helpers.dense_certificate(Ring.Z, certificate.multipliers, certificate.reason)

    monkeypatch.setattr(cohomology, "halve_certificate", unhalved)
    with pytest.raises(VerificationError, match="Z/2 certificate failed"):
        all_obstructions(corpus_supports["prbox"], Ring.Z)


# ---------------------------------------------------------------------------
# Cocycle projection against per-section solves


def parity_chain(n):
    """n-cycle parity supports (the chained PR box): contexts are
    consecutive pairs, one of them odd."""
    names = [f"m{i:02d}" for i in range(n)]
    contexts = [sorted([names[i], names[(i + 1) % n]]) for i in range(n)]
    return parity_support(build_scenario(names, "01", contexts), [int(i == 0) for i in range(n)])


def test_cocycle_projection_matches_per_section_solves(corpus_supports):
    rng = random.Random(125)
    models = list(corpus_supports.values())
    models += [helpers.random_consistent_support(rng) for _ in range(60)]
    models += [fano_one_hot(), ghz_parity(3), ghz_parity(4), parity_chain(16)]
    certificates = 0
    for model in models:
        mod2 = all_obstructions(model, Ring.Z2)
        over_z = all_obstructions(model, Ring.Z)
        for key, result in mod2.items():
            system = result.system
            assert result.vanishes == solve_linear(system.matrix, system.rhs, Ring.Z2).solvable
            if result.vanishes:
                continue
            certificates += 1
            y = result.certificate.multipliers
            assert helpers.reference_check_certificate(system.matrix, system.rhs, result.certificate)
            for i in range(len(y)):
                changed = y[:i] + (1 - y[i],) + y[i + 1 :]
                flipped = helpers.dense_certificate(Ring.Z2, changed, "flip")
                assert not check_certificate(system.matrix, system.rhs, flipped)
            # Integer vanishing descends mod 2: over Z the section carries y/2.
            assert over_z[key].certificate.multipliers == tuple(Fraction(v, 2) for v in y)
        for result in over_z.values():
            if not result.vanishes:
                system = result.system
                assert helpers.reference_check_certificate(
                    system.matrix, system.rhs, result.certificate
                )
    assert certificates > 0


# ---------------------------------------------------------------------------
# All-vs-nothing components: one certificate per base context

# The largest certificate of each all-vs-nothing model before its base
# contexts took one certificate each.
_AVN_TERMS = {"prbox": 4, "ghz": 6, "triangle": 3, "ks18": 18, "peres-mermin": 9, "ghz4": 22}


def _avn_models(corpus_supports):
    models = {name: corpus_supports[name] for name in _AVN_TERMS if name in corpus_supports}
    return {**models, "ghz4": ghz_parity(4), "chain16": parity_chain(16)}


def _sections_hashed_by_a_z2_pass(model, monkeypatch) -> int:
    hashed = []
    real = Section.__hash__

    def counting(self):
        hashed.append(self)
        return real(self)

    monkeypatch.setattr(Section, "__hash__", counting)
    results = all_obstructions(model, Ring.Z2)
    monkeypatch.undo()
    assert len(results) == sum(map(len, model.supports))
    return len(hashed)


def test_a_pass_reads_overlap_fibers_by_position_not_by_section_hash(monkeypatch):
    model = ghz_parity(4)
    sections = sum(map(len, model.supports))
    assert sections == 64
    assert _sections_hashed_by_a_z2_pass(model, monkeypatch) <= 2 * sections


def test_witness_rechecks_place_each_term_by_position_not_by_section_hash(monkeypatch):
    # Every section of the one-hot ring extends: its 4 proof families are
    # re-checked by verify_witness, 11 one-term entries each.
    assert _sections_hashed_by_a_z2_pass(helpers.ring_cover(11), monkeypatch) <= 444


@pytest.mark.parametrize("name", ["prbox", "ghz4"])
def test_all_vs_nothing_models_factor_nothing(name, corpus_supports, monkeypatch):
    def forbidden(matrix, ring, width=None):
        raise AssertionError("factored on an all-vs-nothing model")

    monkeypatch.setattr(cohomology, "factor", forbidden)
    model = corpus_supports["prbox"] if name == "prbox" else ghz_parity(4)
    for ring in (Ring.Z, Ring.Z2):
        results = all_obstructions(model, ring)
        assert len(results) == sum(map(len, model.supports))
        assert not any(result.vanishes for result in results.values())


@pytest.mark.parametrize("ring", [Ring.Z2, Ring.Z])
def test_all_vs_nothing_certificates_pass_the_reference_check(ring, corpus_supports):
    reason = cohomology.ALL_VS_NOTHING if ring is Ring.Z2 else HALVED
    for name, model in _avn_models(corpus_supports).items():
        results = all_obstructions(model, ring)
        per_base: dict[int, set[int]] = {}
        for (base, _), result in results.items():
            certificate = result.certificate
            assert not result.vanishes and certificate.reason == reason
            per_base.setdefault(base, set()).add(id(certificate))
            assert len(certificate.rows) <= _AVN_TERMS.get(name, len(certificate.rows))
            assert helpers.reference_check_certificate(
                result.system.matrix, result.system.rhs, certificate
            )
        assert all(len(ids) == 1 for ids in per_base.values())


def test_a_counted_global_section_skips_the_all_vs_nothing_test(corpus_supports, monkeypatch):
    calls = []
    real = cohomology._all_vs_nothing
    monkeypatch.setattr(
        cohomology, "_all_vs_nothing", lambda model, delta: calls.append(model) or real(model, delta)
    )
    for name in ("hardy", "prbox"):
        model = corpus_supports[name]
        classification = classify(model)
        for ring in (Ring.Z2, Ring.Z):
            all_obstructions(model, ring, classification=classification)
            assert calls == ([] if classification.count else [model])
            calls.clear()
            all_obstructions(model, ring)
            assert calls == [model]
            calls.clear()


def _beside(outcomes, models):
    """The models side by side on disjoint copies of their measurements (the
    k-th model's m renamed m_k), over the given outcome labels."""
    measurements, contexts, supports = [], [], []
    for k, model in enumerate(models):
        measurements += [f"{m}_{k}" for m in model.scenario.measurements]
        for c in model.scenario.contexts:
            members = tuple(f"{m}_{k}" for m in c.members)
            contexts.append(members)
            supports.append({Section(members, s.values) for s in model.supports[c.index]})
    return support_model(build_scenario(measurements, outcomes, contexts), supports)


def _components(scenario):
    """Each context's component of the overlap graph, as the frozenset of its
    contexts, re-derived from the members by flooding."""
    contexts = scenario.contexts
    out = {}
    for start in range(len(contexts)):
        if start in out:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for j, other in enumerate(contexts):
                if j not in component and set(contexts[i].members) & set(other.members):
                    component.add(j)
                    frontier.append(j)
        out.update(dict.fromkeys(component, frozenset(component)))
    return out


def _parity_consistent(model, component) -> bool:
    """Brute force: whether some x, over the coordinates x_{m,o} of the
    component's measurements and every outcome but the first, lies on every
    context in the affine hull (closed under p + q + r) of its support's
    one-hot vectors.  If none does, the component is all-vs-nothing."""
    scenario = model.scenario
    first, rest = scenario.outcomes[0], scenario.outcomes[1:]
    members = sorted({m for c in component for m in scenario.contexts[c].members})
    bit = {(m, o): k for k, (m, o) in enumerate(product(members, rest))}
    hulls = []
    for c in component:
        hull = {
            sum(1 << bit[m, o] for m, o in zip(s.domain, s.values) if o != first)
            for s in model.supports[c]
        }
        while new := {p ^ q ^ r for p in hull for q in hull for r in hull} - hull:
            hull |= new
        mask = sum(1 << bit[m, o] for m in scenario.contexts[c].members for o in rest)
        hulls.append((mask, hull))
    return any(all(x & mask in hull for mask, hull in hulls) for x in range(1 << len(bit)))


def _parity_graph(rng):
    """Parity supports with random bits on the edges of a random graph: a
    cycle through 3 to 6 measurements and up to two chords.  The component
    is all-vs-nothing iff some cycle has odd parity."""
    names = [f"g{i}" for i in range(rng.randint(3, 6))]
    edges = {tuple(sorted((a, b))) for a, b in zip(names, names[1:] + names[:1])}
    edges |= {tuple(sorted(rng.sample(names, 2))) for _ in range(rng.randint(0, 2))}
    scenario = build_scenario(names, "01", sorted(edges))
    return parity_support(scenario, [rng.randint(0, 1) for _ in scenario.contexts])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_all_vs_nothing_path_agrees_with_the_echelon_per_component(rng):
    lone = helpers.random_image_support(rng, helpers.random_scenario(rng, max_contexts=1))
    parts = [helpers.random_consistent_support(rng), _parity_graph(rng), lone]
    rng.shuffle(parts)
    outcomes = rng.choice([("0", "1"), ("1", "0"), ("0", "1", "2"), ("2", "1", "0")])
    model = _beside(outcomes, parts)
    finder = cohomology._all_vs_nothing(model, cohomology._Coboundary(model))
    components = _components(model.scenario)
    avn = {c: not _parity_consistent(model, c) for c in set(components.values())}
    for ring in (Ring.Z2, Ring.Z):
        fast = all_obstructions(model, ring)
        with pytest.MonkeyPatch.context() as patch:
            helpers.echelon_only(patch)
            slow = all_obstructions(model, ring)
        assert fast.keys() == slow.keys()
        for (base, s), result in fast.items():
            rows = finder(base)
            assert (rows is not None) == avn[components[base]]
            if rows is None:
                assert result == slow[base, s]
                continue
            assert not result.vanishes and not slow[base, s].vanishes
            assert result.certificate.rows == tuple(rows)
            assert helpers.reference_check_certificate(
                result.system.matrix, result.system.rhs, result.certificate
            )


@pytest.mark.parametrize("name", ["prbox", "ghz4", "chain16", "ks18", "peres-mermin"])
def test_an_all_vs_nothing_base_runs_no_solver_machinery(name, corpus_supports, monkeypatch):
    model = _avn_models(corpus_supports)[name]

    def forbidden(matrix, ring, width=None):
        raise AssertionError("factored on an all-vs-nothing model")

    built, rechecked = [], []
    real_once, real_refuted = cohomology._once, cohomology._Coboundary.refuted

    def recorded_once(build):
        built.append(build.__name__)
        return real_once(build)

    def recorded_refuted(self, base, certificate):
        rechecked.append((base, certificate.ring))
        return real_refuted(self, base, certificate)

    monkeypatch.setattr(cohomology, "factor", forbidden)
    monkeypatch.setattr(cohomology, "_once", recorded_once)
    monkeypatch.setattr(cohomology._Coboundary, "refuted", recorded_refuted)
    bases = range(len(model.scenario.contexts))
    for rings in ((Ring.Z2,), (Ring.Z,), RING_ORDER):
        built.clear()
        rechecked.clear()
        results = cohomology._obstructions(model, rings)
        # Only the pass-wide builders: no base builds a projection or Hermite form.
        assert sorted(built) == ["cocycles", "lattice", "proved", "reach", "search"]
        assert rechecked == [(base, ring) for base in bases for ring in rings]
        for ring in rings:
            shared = {}
            for (base, _), result in results[ring].items():
                assert not result.vanishes and result.witness is None
                assert shared.setdefault(base, result.certificate) is result.certificate
            assert sorted(shared) == list(bases)


@pytest.mark.parametrize(
    "name, shapes",
    [("ghz4", 2), ("chain16", 2), ("ks18", 1), ("ring11", 1), ("chain16 document", 2)],
)
def test_each_support_shape_takes_one_theory(name, shapes, corpus_supports, monkeypatch):
    if name == "ring11":
        model = helpers.ring_cover(11)
    elif name == "chain16 document":
        text = json.dumps(helpers.parity_chain_document(16))
        model = parse_scenario(text).support_model()
        assert model == parity_chain(16)
    else:
        model = _avn_models(corpus_supports)[name]
    calls, real = [], cohomology._annihilator
    monkeypatch.setattr(
        cohomology, "_annihilator", lambda *args: calls.append(args) or real(*args)
    )
    delta = cohomology._Coboundary(model)
    finder = cohomology._all_vs_nothing(model, delta)
    distinct = {tuple(model._support_position(c.index)) for c in model.scenario.contexts}
    assert len(calls) == len(distinct) == shapes
    monkeypatch.undo()
    reference = helpers.reference_all_vs_nothing(model, delta)
    for base in range(len(model.scenario.contexts)):
        assert finder(base) == reference(base)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    rng=st.randoms(use_true_random=False), name=st.sampled_from(sorted(_AVN_TERMS) + ["chain16"])
)
def test_shared_theories_give_the_per_context_rows(rng, name, corpus_supports):
    # The random parts hold contexts of one support shape on different
    # measurements, over two or three outcome labels in either order.
    parts = [helpers.random_consistent_support(rng), _parity_graph(rng)]
    outcomes = rng.choice([("0", "1"), ("1", "0"), ("0", "1", "2"), ("2", "1", "0")])
    models = [helpers.random_consistent_support(rng), _beside(outcomes, parts)]
    models.append(_avn_models(corpus_supports)[name])
    for model in models:
        delta = cohomology._Coboundary(model)
        finder = cohomology._all_vs_nothing(model, delta)
        reference = helpers.reference_all_vs_nothing(model, delta)
        for base in range(len(model.scenario.contexts)):
            assert finder(base) == reference(base)


# ---------------------------------------------------------------------------
# Systems as views on one sparse delta^0, certificates as their terms


def _dense_split(model, ring, base, section_):
    """The system at one base section from the dense coboundary matrix: its
    rows on the pairs i < j, the non-base columns and minus the base
    section's column."""
    delta = coboundary_matrix(model, ring, 0)
    pairs = [
        (simplex.vertices, s)
        for simplex in nerve(model.scenario, 1)[1]
        for s in support_at(model, simplex.carrier)
    ]
    rows = [row for row, ((i, j), _) in zip(delta, pairs) if i < j]
    basis = [(simplex.vertices[0], s) for simplex, s in cochain_basis(model, 0)]
    kept = [k for k, (owner, _) in enumerate(basis) if owner != base]
    column = basis.index((base, section_))
    matrix = tuple(tuple(row[k] for k in kept) for row in rows)
    return matrix, tuple(ring.reduce(-row[column]) for row in rows)


@pytest.mark.parametrize("ring", [Ring.Z2, Ring.Z])
def test_systems_are_views_built_only_when_read(ring, corpus_supports):
    models = [ghz_parity(4), *corpus_supports.values()]
    for model in models:
        results = all_obstructions(model, ring)
        assert {id(result.system.model) for result in results.values()} == {id(model)}
        labels = tuple(entry[:3] for entry in model.overlap_table)
        width = sum(map(len, model.supports))
        for (base, s), result in results.items():
            system = result.system
            fields = {f.name for f in dataclasses.fields(system)}
            assert set(vars(system)) == fields == {"ring", "base", "section", "model"}
            assert (system.ring, system.base, system.section) == (ring, base, s)
            assert (base, s) not in system.variables
            assert len(system.variables) == width - len(model.supports[base])
            matrix, rhs = _dense_split(model, ring, base, s)
            for _ in range(2):  # built again on each read, equal each time
                assert system.matrix == matrix
                assert system.rhs == rhs
                assert system.equations == labels
            assert system.matrix is not system.matrix and system.rhs is not system.rhs
            assert system.equations is not system.equations
            assert set(vars(system)) == fields


def _recording_coboundaries(monkeypatch):
    """Every _Coboundary built from now on, in order."""
    made = []

    class Recording(cohomology._Coboundary):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(cohomology, "_Coboundary", Recording)
    return made


@pytest.mark.parametrize("ring", [Ring.Z2, Ring.Z])
def test_the_solver_factors_the_coboundary_s_own_columns(ring, corpus_supports, monkeypatch):
    received = []

    def recording_factor(matrix, ring_, width=None):
        received.append(matrix)
        return factor(matrix, ring_, width)

    monkeypatch.setattr(cohomology, "factor", recording_factor)
    helpers.echelon_only(monkeypatch)
    made = _recording_coboundaries(monkeypatch)
    for model in (ghz_parity(4), helpers.ring_cover(5), *corpus_supports.values()):
        received.clear()
        made.clear()
        results = all_obstructions(model, ring)
        [delta] = made
        assert delta.table is model.overlap_table
        assert all(result.system.model is model for result in results.values())
        assert delta.rows == [cohomology._row(entry, delta.offsets) for entry in delta.table]
        assert all(delta.row(r) is row for r, row in enumerate(delta.rows))
        transpose = [{} for _ in delta.basis]
        for r, row in enumerate(delta.rows):
            for k, a in row.items():
                transpose[k][r] = a
        assert delta.columns == transpose
        assert received[0] is delta.columns


def test_view_equality_is_the_systems_equality(corpus_supports):
    model = corpus_supports["hardy"]
    first = all_obstructions(model, Ring.Z)
    second = all_obstructions(dataclasses.replace(model), Ring.Z)  # an equal model, its own table
    for key, result in first.items():
        other = second[key]
        assert result.system.model is not other.system.model
        assert result.system.model.overlap_table is not other.system.model.overlap_table
        assert result.system == other.system and hash(result.system) == hash(other.system)
        assert result == other
    base, s = next(iter(first))
    assert first[(base, s)].system != all_obstructions(model, Ring.Z2)[(base, s)].system


@pytest.mark.parametrize("ring", [Ring.Z2, Ring.Z])
def test_results_are_views_on_their_model(ring, corpus_supports):
    hints = typing.get_type_hints(cohomology.ObstructionResult)
    assert [f.name for f in dataclasses.fields(cohomology.ObstructionResult)][-1] == "model"
    assert cohomology.ObstructionSystem not in hints.values()
    for model in (ghz_parity(4), fano_one_hot(), helpers.ring_cover(5), *corpus_supports.values()):
        for result in all_obstructions(model, ring).values():
            assert result.model is model and result.system.model is model
            system = cohomology.ObstructionSystem(
                result.ring, result.base, result.section, result.model
            )
            assert result.system == system and result.system is not result.system
            assert "model=" not in repr(result)
            assert dataclasses.replace(result, witness=None).system == system


@pytest.mark.parametrize("ring", [Ring.Z2, Ring.Z])
def test_results_hold_no_coboundary_and_no_columns(ring, corpus_supports, monkeypatch):
    made = _recording_coboundaries(monkeypatch)
    for model in (ghz_parity(4), fano_one_hot(), *corpus_supports.values()):
        made.clear()
        results = all_obstructions(model, ring)
        [delta] = made
        # The rows are read after the pass through the same per-row memo, so
        # every row dict the pass built is among them.
        forbidden = {id(delta), id(delta.rows), id(delta.columns)}
        forbidden.update(map(id, delta.rows), map(id, delta.columns))
        for result in results.values():
            held = []
            for owner in (result, result.system):
                for f in dataclasses.fields(owner):
                    value = getattr(owner, f.name)
                    held.append(value)
                    if isinstance(value, (tuple, list)):
                        held.extend(value)
            assert forbidden.isdisjoint(map(id, held))
            assert not any(isinstance(value, (cohomology._Coboundary, dict)) for value in held)


@pytest.mark.parametrize("ring", [Ring.Z2, Ring.Z])
def test_reading_dense_systems_retains_no_memory(ring, corpus_supports):
    def retained() -> int:  # bytes still held that cohomology.py allocated
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
        mine = snapshot.filter_traces([tracemalloc.Filter(True, cohomology.__file__)])
        return sum(stat.size for stat in mine.statistics("filename"))

    for model in (ghz_parity(4), corpus_supports["ks18"], helpers.ring_cover(11)):
        tracemalloc.start()
        try:
            results = all_obstructions(model, ring)
            before = retained()
            for result in results.values():
                assert result.system.matrix and result.system.rhs
            after = retained()
        finally:
            tracemalloc.stop()
        assert before > 0 and after == before


@pytest.mark.parametrize("ring", [Ring.Z2, Ring.Z])
def test_certificates_hold_their_nonzero_terms(ring, corpus_supports):
    models = [ghz_parity(4), fano_one_hot(), *corpus_supports.values()]
    zero = 0 if ring is Ring.Z2 else Fraction(0)
    seen = 0
    for model in models:
        for result in all_obstructions(model, ring).values():
            certificate = result.certificate
            if certificate is None:
                continue
            seen += 1
            assert certificate.length == len(result.system.equations)
            assert all(certificate.values)
            assert len(certificate.rows) == len(certificate.values)
            dense = [zero] * certificate.length
            for r, v in zip(certificate.rows, certificate.values):
                dense[r] = v
            multipliers = certificate.multipliers
            assert multipliers == tuple(dense)
            assert [type(v) for v in multipliers] == [type(v) for v in dense]
            rebuilt = helpers.dense_certificate(certificate.ring, multipliers, certificate.reason)
            assert rebuilt == certificate
            assert (rebuilt.rows, rebuilt.values) == (certificate.rows, certificate.values)
            terms = (certificate.rows, certificate.values, certificate.length, certificate.reason)
            assert Certificate(certificate.ring, *terms) == certificate
    assert seen > 0


def test_term_built_certificates_are_validated():
    good = Certificate(Ring.Z2, [0, 3], [1, 1], 4, "t")
    assert (good.rows, good.values) == ((0, 3), (1, 1))
    assert good.multipliers == (1, 0, 0, 1)
    assert good == helpers.dense_certificate(Ring.Z2, (1, 0, 0, 1), "t")
    assert Certificate(Ring.Z, [], [], 3, "t").multipliers == (Fraction(0),) * 3
    for rows, values in [
        ([3, 0], [1, 1]),  # out of order
        ([1, 1], [1, 1]),  # repeated row
        ([0, 4], [1, 1]),  # past the last row
        ([-1], [1]),  # before the first
        ([0, 2], [1, 0]),  # a zero multiplier
        ([0, 2], [1]),  # a row without a multiplier
    ]:
        with pytest.raises(ValueError):
            Certificate(Ring.Z2, rows, values, 4, "bad")


# ---------------------------------------------------------------------------
# One pass for both rings


def _counted_columns(monkeypatch, name="columns"):
    """Every _Coboundary whose transpose (or, by `name`, whose list of every
    row) is built from now on, once per build."""
    built = []
    real = getattr(cohomology._Coboundary, name).func

    def build(self):
        built.append(self)
        return real(self)

    counted = cached_property(build)
    counted.__set_name__(cohomology._Coboundary, name)
    monkeypatch.setattr(cohomology._Coboundary, name, counted)
    return built


@pytest.mark.parametrize("name", ["hardy", "prbox", "ks-false-positive", "fano"])
@pytest.mark.parametrize("command", ["report", "all", "one"])
def test_one_pass_serves_both_rings(name, command, tmp_path, monkeypatch, capsys):
    if name == "fano":
        path = Path(__file__).parent / "golden" / "fano.scenario.json"
    else:
        path = tmp_path / f"{name}.json"
        path.write_text(example_text(name), encoding="utf-8")
    first = parse_scenario(path.read_text("utf-8")).support_model().support_list(0)[0]
    argv = {
        "report": ["report", str(path)],
        "all": ["obstruction", str(path), "--all"],
        "one": ["obstruction", str(path), "--context", "0", "--section", first.outcome_string()],
    }[command]
    made = _recording_coboundaries(monkeypatch)
    tests, echelons, searches = [], [], []
    real_test, real_search = cohomology._all_vs_nothing, cohomology.classify_in_reach

    def recording_test(model, delta):
        tests.append(model)
        return real_test(model, delta)

    def recording_factor(matrix, ring, width=None):
        if matrix is vars(made[-1]).get("columns"):  # delta^0 transposed
            echelons.append(ring)
        return factor(matrix, ring, width)

    def recording_search(model):
        searches.append(model)
        return real_search(model)

    monkeypatch.setattr(cohomology, "_all_vs_nothing", recording_test)
    monkeypatch.setattr(cohomology, "factor", recording_factor)
    monkeypatch.setattr(cohomology, "classify_in_reach", recording_search)
    assert main([*argv, "--ring", "both"]) == 0
    out = capsys.readouterr().out
    marks = {"report": "obstructions over {}: ", "all": "non-vanishing over {}\n", "one": "over {}\n"}
    assert all(marks[command].format(ring.describe()) in out for ring in RING_ORDER)
    assert len(made) == 1
    assert len(tests) == (0 if command == "report" and name == "hardy" else 1)
    assert echelons == ([] if name == "prbox" else [Ring.Z2])
    # build_report passes its classification; the obstruction command's
    # pass searches at most once, once a section vanishes mod 2.
    assert len(searches) <= (command != "report" and name != "prbox")
    if command == "all":  # every model but the PR box has a section vanishing mod 2
        assert len(searches) == (name != "prbox")


def test_a_both_rings_pass_equals_each_ring_alone(corpus_supports):
    rng = random.Random(128)
    models = [*corpus_supports.values(), fano_one_hot(), ghz_parity(4)]
    models += [helpers.random_consistent_support(rng) for _ in range(50)]
    for model in models:
        for classification in (None, classify(model)):
            both = cohomology._obstructions(model, RING_ORDER, classification)
            assert list(both) == list(RING_ORDER)
            for ring, results in both.items():
                alone = all_obstructions(model, ring, classification=classification)
                assert results.keys() == alone.keys()
                for key, result in results.items():
                    other = alone[key]
                    assert result.vanishes == other.vanishes
                    assert result.witness == other.witness
                    assert result.certificate == other.certificate
                    assert result.system == other.system
                    assert result == other
            # The one-section form, on the first section of each base.
            firsts = {}
            for key in both[Ring.Z2]:
                firsts.setdefault(key[0], key)
            for key in firsts.values():
                one = cohomology._obstructions(model, RING_ORDER, classification, key)
                assert {ring: list(results) for ring, results in one.items()} == {
                    ring: [key] for ring in RING_ORDER
                }
                assert all(one[ring][key] == both[ring][key] for ring in RING_ORDER)


@pytest.mark.parametrize("ring", [Ring.Z2, Ring.Z])
def test_the_transpose_is_built_only_where_the_echelon_runs(ring, corpus_supports, monkeypatch):
    built = _counted_columns(monkeypatch)
    made = _recording_coboundaries(monkeypatch)
    ring5 = helpers.ring_cover(5)
    given = [(corpus_supports["prbox"], None), (ghz_parity(4), None), (ring5, classify(ring5))]
    for model, classification in given:
        for rings in ((ring,), RING_ORDER):
            made.clear()
            cohomology._obstructions(model, rings, classification)
            assert len(made) == 1 and built == []
    hardy, prbox = corpus_supports["hardy"], corpus_supports["prbox"]
    for model, forced in ((hardy, False), (prbox, True), (ghz_parity(4), True)):
        with pytest.MonkeyPatch.context() as patch:
            if forced:
                helpers.echelon_only(patch)
            for rings in ((ring,), RING_ORDER):
                made.clear()
                built.clear()
                cohomology._obstructions(model, rings)
                assert len(made) == 1 and built == made


@pytest.mark.parametrize("name", ["prbox", "ghz4", "chain16"])
def test_an_all_vs_nothing_pass_builds_only_the_rows_it_reads(name, corpus_supports, monkeypatch):
    model = _avn_models(corpus_supports)[name]
    columns, rows = _counted_columns(monkeypatch), _counted_columns(monkeypatch, "rows")
    made = _recording_coboundaries(monkeypatch)
    entries, real = [], cohomology._row

    def counted(entry, offsets):
        entries.append(entry)
        return real(entry, offsets)

    monkeypatch.setattr(cohomology, "_row", counted)
    for rings in ((Ring.Z2,), (Ring.Z,), RING_ORDER):
        made.clear()
        entries.clear()
        results = cohomology._obstructions(model, rings)
        [delta] = made
        read = set()
        for ring in rings:
            for result in results[ring].values():
                assert not result.vanishes
                read.update(result.certificate.rows)
        assert columns == [] and rows == []
        assert sorted(delta._built) == sorted(read)  # each row the certificates name, once
        assert sorted(map(delta.table.index, entries)) == sorted(read)
        if name == "ghz4":
            assert (len(read), len(delta.table)) == (34, 96)
