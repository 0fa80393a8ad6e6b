"""Linear combinations, the cochain complex, and the obstruction.

Core claims:
    - push-forward sums fibers and is functorial; restriction of the
      embedding 1*s is 1*(s restricted)
    - the Hardy family (s1, s6+s7-s8, s11, s15) passes the witness check and
      restricts as computed by hand: to {a} it gives 1*(a:0), to {b'} the
      positive and negative (b':1) terms cancel leaving 1*(b':0)
    - the degree-0 coboundary on a pair (i, j) is w(i) - w(j) on the overlap
    - the coboundary matrix reproduces the coboundary map entry for entry,
      and its GF(2) kernel on the triangle matches brute-force cocycle
      counting (2 cocycles: the all-0 and all-1 families)
    - obstruction verdicts: Hardy (a,b)->(0,0) vanishes over Z with a
      verified witness; PR box, triangle, GHZ sections do not vanish
    - inconsistent supports and non-support sections are rejected
    - the variable-identification shortcut never changes a verdict and
      reduces the 18-measurement one-hot system from 32 to 18 unknowns
    - the batch path (one factorization per base context) gives exactly the
      per-section results, refuses signalling supports before solving, and
      its factorizations carry no state from one solve to the next
"""

import copy
import random
from itertools import product

import pytest

from contextuality import (
    Ring,
    Section,
    SignallingError,
    all_obstructions,
    build_obstruction_system,
    build_scenario,
    coboundary,
    coboundary_matrix,
    cochain,
    cochain_from_vector,
    cochain_to_vector,
    combination,
    embed,
    gf2_cohomology_dimensions,
    obstruction,
    push_forward,
    restrict_combination,
    restrict_section,
    support_at,
    support_model,
    verify_witness,
    zero_cochain,
    zero_combination,
)
from contextuality import cohomology
from contextuality.cohomology import _identify_variables
from contextuality.linalg import check_certificate, factor, mat_vec

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


def test_identification_reduces_ks18_to_18_unknowns(corpus_supports):
    model = corpus_supports["ks18"]
    s = model.support_list(0)[0]
    system = build_obstruction_system(model, 0, s, Ring.Z2)
    assert len(system.variables) == 32  # 9 contexts x 4 sections, minus the base 4
    reduced_rows, _, var_map = _identify_variables(system)
    assert max(var_map) + 1 == 18  # the classic 36 -> 18 unknown reduction
    assert all(len(row) == 18 for row in reduced_rows)


def test_identification_never_changes_verdicts():
    rng = random.Random(119)
    for _ in range(60):
        model = helpers.random_consistent_support(rng)
        for ring in (Ring.Z, Ring.Z2):
            pairs = helpers.sections_of(model)
            index, s = rng.choice(pairs)
            with_shortcut = obstruction(model, index, s, ring, identify=True)
            without = obstruction(model, index, s, ring, identify=False)
            assert with_shortcut.vanishes == without.vanishes


def test_support_at_matches_any_containing_context(corpus_supports):
    model = corpus_supports["ghz"]
    got = {s.outcome_string() for s in support_at(model, ("A",))}
    assert got == {"0", "1"}
    with pytest.raises(ValueError, match="not contained"):
        support_at(model, ("A", "A'"))


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
