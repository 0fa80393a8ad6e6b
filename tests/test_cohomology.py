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
    - the batch path gives exactly the per-section results, refuses
      signalling supports before solving, and factorizations carry no state
      from one solve to the next
    - Z/2 first: every Z verdict equals a per-section integer solve of the
      untouched system (bundled, random and Fano models); halved Z/2
      certificates pass the dense reference check and fail it with one 1/2
      zeroed or the vector doubled; where every section is non-vanishing
      mod 2 (PR box, GHZ-4) delta^0 is factored once per call, each base
      context factors only its cocycle projection and nothing is factored
      over Z
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
    - integer cocycle lattice: over Z, delta^0 is factored once per call
      and each base context factors at most one lattice projection; on the
      one-hot rings of 5 to 9 contexts and on Hardy no per-base system is
      factored, while on the Fano plane every base context factors exactly
      one Hermite system; a lattice cocycle with one coordinate changed
      fails substitution and raises VerificationError
    - witnesses are re-checked on the overlap table: deciding Hardy and a
      one-hot ring calls no restrict_combination
    - obstruction systems are views: on GHZ-4 and on the bundled models,
      over both rings, every result of an all_obstructions call shares one
      list of delta^0's rows, and a system holds only its declared fields,
      sparse; each read of its matrix and rhs builds them anew as the dense
      split of coboundary_matrix(model, ring, 0), and reading every
      result's matrix and rhs (GHZ-4, ks18, the one-hot ring of 11) leaves
      the memory that cohomology.py allocated unchanged
    - no field of a result or of its system is the call's delta^0, its
      columns list or one of its columns; systems of two calls hold
      different rows and are equal, with equal hashes
    - delta^0 holds its columns beside its rows: they are the transpose of
      the rows, and they are the very matrix the solver's GF(2) echelon
      factors
    - certificates are their nonzero terms: multipliers is the dense
      expansion of the terms (0 over Z/2, Fraction 0 over Z), a certificate
      rebuilt from its dense multipliers (helpers.dense_certificate) or
      from its terms equals it, and the constructor refuses rows out of
      order, repeated or out of range, zero multipliers, and rows and
      multipliers of different counts
"""

import copy
import dataclasses
import gc
import random
import tracemalloc
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from contextuality import (
    Ring,
    Section,
    SignallingError,
    VerificationError,
    all_obstructions,
    build_obstruction_system,
    build_scenario,
    coboundary,
    coboundary_matrix,
    cochain,
    cochain_basis,
    cochain_from_vector,
    cochain_to_vector,
    combination,
    embed,
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
from contextuality import cohomology, linalg
from contextuality.linalg import Certificate, check_certificate, factor, mat_vec, solve_linear
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
    measurements; a context with 2j Y's has outcome parity j mod 2."""
    measurements = [f"{axis}{p}" for p in range(1, parties + 1) for axis in "XY"]
    contexts, bits = [], []
    for axes in product("XY", repeat=parties):
        if axes.count("Y") % 2 == 0:
            contexts.append([f"{a}{p}" for p, a in enumerate(axes, start=1)])
            bits.append(axes.count("Y") // 2 % 2)
    return parity_support(build_scenario(measurements, "01", contexts), bits)


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


def one_hot_ring(k):
    """Ring of k one-hot 4-sets, consecutive contexts sharing one
    measurement: every section vanishes, over Z and mod 2."""
    points = [f"r{j:02d}" for j in range(3 * k)]
    lines = [[points[(3 * i + d) % (3 * k)] for d in range(4)] for i in range(k)]
    return ks_support(build_scenario(points, "01", lines))


@pytest.mark.parametrize("name", ["ring5", "ring6", "ring7", "ring8", "ring9", "hardy", "fano"])
def test_integer_lattice_is_factored_once_per_call(name, corpus_supports, monkeypatch):
    if name == "hardy":
        model = corpus_supports["hardy"]
    else:
        model = fano_one_hot() if name == "fano" else one_hot_ring(int(name[4:]))
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


def test_corrupted_lattice_cocycle_raises(monkeypatch):
    real = linalg._HermiteBasis.kernel

    def corrupted(self):
        first, *others = real(self)
        first = dict(first)
        first[0] = first.get(0, 0) + 1
        return (first, *others)

    monkeypatch.setattr(linalg._HermiteBasis, "kernel", corrupted)
    with pytest.raises(VerificationError, match="cocycle fails substitution"):
        all_obstructions(one_hot_ring(5), Ring.Z)


@pytest.mark.parametrize("ring", [Ring.Z2, Ring.Z])
def test_witnesses_are_checked_on_the_overlap_table(ring, corpus_supports, monkeypatch):
    # The re-check reads the fibers the overlap table already holds; it
    # pushes no combination forward.
    def forbidden(combo, subset):
        raise AssertionError("restrict_combination called while deciding")

    monkeypatch.setattr(cohomology, "restrict_combination", forbidden)
    for model in (corpus_supports["hardy"], one_hot_ring(5)):
        results = all_obstructions(model, ring)
        assert any(result.vanishes for result in results.values())


def test_lattice_missing_cocycles_raises(monkeypatch):
    # With only the first lattice vector, the projection reaches too few
    # sections of the one-hot ring, and the Hermite form of the untouched
    # system solves what the lattice does not.
    real = linalg._HermiteBasis.kernel
    monkeypatch.setattr(linalg._HermiteBasis, "kernel", lambda self: real(self)[:1])
    with pytest.raises(VerificationError, match="Hermite form solves what the lattice"):
        all_obstructions(one_hot_ring(5), Ring.Z)


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
        shared = {id(result.system._rows) for result in results.values()}
        assert len(shared) == 1
        for (base, s), result in results.items():
            system = result.system
            assert set(vars(system)) == {f.name for f in dataclasses.fields(system)}
            assert all(isinstance(row, dict) for row in system._rows)
            assert isinstance(system._rhs, dict) and all(system._rhs.values())
            matrix, rhs = _dense_split(model, ring, base, s)
            for _ in range(2):  # built again on each read, equal each time
                assert system.matrix == matrix
                assert system.rhs == rhs
            assert system.matrix is not system.matrix and system.rhs is not system.rhs
            assert set(vars(system)) == {f.name for f in dataclasses.fields(system)}


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
    made = _recording_coboundaries(monkeypatch)
    for model in (ghz_parity(4), one_hot_ring(5), *corpus_supports.values()):
        received.clear()
        made.clear()
        results = all_obstructions(model, ring)
        [delta] = made
        assert all(result.system._rows is delta.rows for result in results.values())
        transpose = [{} for _ in delta.basis]
        for r, row in enumerate(delta.rows):
            for k, a in row.items():
                transpose[k][r] = a
        assert delta.columns == transpose
        assert received[0] is delta.columns


def test_view_equality_is_the_systems_equality(corpus_supports):
    model = corpus_supports["hardy"]
    first = all_obstructions(model, Ring.Z)
    second = all_obstructions(model, Ring.Z)
    for key, result in first.items():
        other = second[key]
        assert result.system._rows is not other.system._rows
        assert result.system._rhs is not other.system._rhs
        assert result.system == other.system and hash(result.system) == hash(other.system)
        assert result == other
    base, s = next(iter(first))
    assert first[(base, s)].system != all_obstructions(model, Ring.Z2)[(base, s)].system


@pytest.mark.parametrize("ring", [Ring.Z2, Ring.Z])
def test_results_hold_no_coboundary_and_no_columns(ring, corpus_supports, monkeypatch):
    made = _recording_coboundaries(monkeypatch)
    for model in (ghz_parity(4), fano_one_hot(), *corpus_supports.values()):
        made.clear()
        results = all_obstructions(model, ring)
        [delta] = made
        forbidden = {id(delta), id(delta.columns), *map(id, delta.columns)}
        for result in results.values():
            held = []
            for owner in (result, result.system):
                for f in dataclasses.fields(owner):
                    value = getattr(owner, f.name)
                    held.append(value)
                    if isinstance(value, (tuple, list)):
                        held.extend(value)
            assert forbidden.isdisjoint(map(id, held))
            assert not any(isinstance(value, cohomology._Coboundary) for value in held)


@pytest.mark.parametrize("ring", [Ring.Z2, Ring.Z])
def test_reading_dense_systems_retains_no_memory(ring, corpus_supports):
    def retained() -> int:  # bytes still held that cohomology.py allocated
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
        mine = snapshot.filter_traces([tracemalloc.Filter(True, cohomology.__file__)])
        return sum(stat.size for stat in mine.statistics("filename"))

    for model in (ghz_parity(4), corpus_supports["ks18"], one_hot_ring(11)):
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
