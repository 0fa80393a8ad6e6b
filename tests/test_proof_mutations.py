"""Every proof the library returns holds, and the re-checks reject it once it
is changed in one place.

Core claims, on the bundled models and on random consistent supports
(helpers.random_consistent_support, seeded by hypothesis), on both rings:
    - every witness passes verify_witness, and as a 0-cochain it has zero
      coboundary (the push-forward route) on every 1-simplex
    - adding 1 to one coefficient of a witness makes verify_witness return
      False: in the base context, in a non-base context with at least one
      overlap (a context with none is left out, since its entry is
      unconstrained), or at a section outside its context's support
    - flipping any one multiplier of a Z/2 certificate (y_r to 1 - y_r) or
      of a halved Z certificate (1/2 to 0 and back) makes check_certificate
      reject it against the result's system; Hermite certificates are left
      out, since adding an integer to a multiplier keeps them valid
    - a certificate built from its terms and one built from its dense
      multipliers (helpers.dense_certificate) are equal and check the same,
      before and after every such flip, against the dense system and
      against its sparse rows
    - every extendable section's witness is a proof family: one term per
      context, each with coefficient 1, and it passes verify_witness; the
      results are the same whether the classification is passed in or not
    - on the one-hot rings, a classification whose proof has one outcome
      flipped, or whose proofs miss an extendable section, makes the
      obstruction raise VerificationError on both rings
    - the parity re-check of delta^0 (_Coboundary.refuted) accepts exactly
      what helpers.reference_check_certificate accepts against the dense
      system, on random consistent models over both rings, for 0/1 and
      halved certificates on the solver's row sets, their pairwise sums and
      random row sets, and for their mutations: a row flipped or dropped,
      unhalved, one row too long, or on the wrong ring
    - one corrupted unit solution of delta^0's echelon (the z the
      certificates are summed from), with the echelon path forced, makes
      all_obstructions raise VerificationError on both rings
    - an all-vs-nothing certificate with a row dropped, with the rows of
      one of its base's overlaps added, or taken from another base context
      makes all_obstructions raise VerificationError on both rings (PR box,
      GHZ, Peres-Mermin)
    - verify_witness, which sums each fiber by support position, gives the
      verdict of helpers.reference_verify_witness, which sums Section-keyed
      fibers of restriction, on both rings (bundled models, GHZ-4, the
      one-hot ring of 5, random consistent supports): on every witness a
      pass produces, on a random family with the base entry 1*section at
      every section, and on each of their mutations: one coefficient
      changed by 1, a term outside its context's support, a base entry
      that is not 1*section, an entry on the wrong ring or domain, and the
      wrong length
"""

import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    EXAMPLE_NAMES,
    Ring,
    VerificationError,
    all_obstructions,
    classify,
    coboundary,
    cochain,
    combination,
    embed,
    enumerate_sections,
    load_example,
    obstruction,
    parse_scenario,
    verify_witness,
)
from contextuality import cohomology, linalg
from contextuality.linalg import Certificate, check_certificate

import helpers

HALVED = "Z/2 certificate halved: y.A even, y.b odd"
_FLIP = {1: 0, 0: 1, Fraction(1, 2): Fraction(0), Fraction(0): Fraction(1, 2)}

_models = st.sampled_from(EXAMPLE_NAMES).map(
    lambda name: load_example(name).support_model()
) | st.randoms(use_true_random=False).map(helpers.random_consistent_support)


def _bumped(witness, index, section, ring):
    """The witness with 1 added to the coefficient of `section` in entry
    `index`."""
    combo = witness[index]
    coefficients = dict(combo.coefficients)
    coefficients[section] = coefficients.get(section, 0) + 1
    changed = combination(ring, combo.domain, coefficients)
    return witness[:index] + (changed,) + witness[index + 1 :]


def _flips(certificate):
    y = certificate.multipliers
    for r in range(len(y)):
        yield helpers.dense_certificate(
            certificate.ring, y[:r] + (_FLIP[y[r]],) + y[r + 1 :], "flip"
        )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_models)
def test_mutated_proofs_are_rejected(model):
    scenario = model.scenario
    overlapping = {k for i, j, _ in scenario.overlaps for k in (i, j)}
    for ring in (Ring.Z2, Ring.Z):
        for (base, s), result in all_obstructions(model, ring).items():
            system = result.system
            if not result.vanishes:
                certificate = result.certificate
                if ring is Ring.Z and certificate.reason != HALVED:
                    continue
                assert check_certificate(system.matrix, system.rhs, certificate)
                for flipped in _flips(certificate):
                    assert not check_certificate(system.matrix, system.rhs, flipped)
                continue
            witness = result.witness
            assert verify_witness(model, base, s, witness, ring)
            values = {(ctx.index,): combo for ctx, combo in zip(scenario.contexts, witness)}
            delta = coboundary(0, cochain(model, ring, 0, values))
            assert all(value.is_zero for value in delta.values.values())
            for ctx in scenario.contexts:
                if ctx.index != base and ctx.index not in overlapping:
                    continue
                for t in model.support_list(ctx.index):
                    mutated = _bumped(witness, ctx.index, t, ring)
                    assert not verify_witness(model, base, s, mutated, ring)
            for ctx in scenario.contexts:
                for t in enumerate_sections(scenario, ctx.members):
                    if t not in model.supports[ctx.index]:
                        mutated = _bumped(witness, ctx.index, t, ring)
                        assert not verify_witness(model, base, s, mutated, ring)
                        break


def _sparse(system):
    """The system's rows and right-hand side as {index: nonzero} dicts."""
    rows = [{j: a for j, a in enumerate(row) if a} for row in system.matrix]
    return rows, {r: b for r, b in enumerate(system.rhs) if b}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_models)
def test_term_built_and_dense_certificates_check_alike(model):
    for ring in (Ring.Z2, Ring.Z):
        for result in all_obstructions(model, ring).values():
            certificate = result.certificate
            if certificate is None:
                continue
            system = result.system
            rows, rhs = _sparse(system)
            hermite = ring is Ring.Z and certificate.reason != HALVED
            mutations = [] if hermite else _flips(certificate)
            for dense in [certificate, *mutations]:
                terms = Certificate(
                    dense.ring, dense.rows, dense.values, dense.length, dense.reason
                )
                rebuilt = helpers.dense_certificate(dense.ring, dense.multipliers, dense.reason)
                assert terms == dense == rebuilt
                verdict = check_certificate(system.matrix, system.rhs, dense)
                assert verdict == (dense is certificate)
                assert check_certificate(system.matrix, system.rhs, terms) == verdict
                assert check_certificate(rows, rhs, terms) == verdict
                assert check_certificate(rows, list(system.rhs), dense) == verdict


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False).map(helpers.random_consistent_support))
def test_extendable_sections_take_a_proof_family(model):
    classification = classify(model)
    for ring in (Ring.Z2, Ring.Z):
        results = all_obstructions(model, ring, classification=classification)
        assert results == all_obstructions(model, ring)
        for (base, s), result in results.items():
            if not classification.extendable[base, s]:
                continue
            witness = result.witness
            assert result.vanishes and result.certificate is None
            assert [list(combo.coefficients.values()) for combo in witness] == [[1]] * len(witness)
            assert verify_witness(model, base, s, witness, ring)


def _forged(classification, proofs):
    return dataclasses.replace(classification, proofs=tuple(proofs))


@pytest.mark.parametrize("k", [3, 5])
def test_proof_with_a_flipped_outcome_is_rejected(k):
    # One-hot supports: flipping any outcome of a global section leaves the
    # support of every context holding that measurement.
    model = helpers.ring_cover(k)
    classification = classify(model)
    for n, g in enumerate(classification.proofs):
        for p in range(len(g)):
            flipped = g[:p] + (1 - g[p],) + g[p + 1 :]
            proofs = classification.proofs[:n] + (flipped,) + classification.proofs[n + 1 :]
            for ring in (Ring.Z2, Ring.Z):
                with pytest.raises(VerificationError, match="proof section fails"):
                    all_obstructions(model, ring, classification=_forged(classification, proofs))


@pytest.mark.parametrize("k", [3, 5])
def test_proofs_that_miss_the_section_are_rejected(k):
    model = helpers.ring_cover(k)
    classification = classify(model)
    position = model.scenario.positions
    for (base, s), extendable in classification.extendable.items():
        assert extendable
        members = model.scenario.contexts[base].members
        values = tuple(model.scenario.outcome_indices[v] for v in s.values)
        missing = [
            g for g in classification.proofs if tuple(g[position[m]] for m in members) != values
        ]
        assert len(missing) < len(classification.proofs)
        for ring in (Ring.Z2, Ring.Z):
            forged = _forged(classification, missing)
            with pytest.raises(VerificationError, match="no proof passes through"):
                obstruction(model, base, s, ring, classification=forged)


def _parity_candidates(rng, row_sets, length):
    """0/1 and halved certificates on each row set, and their mutations."""
    for rows in row_sets:
        for ring, value in ((Ring.Z2, 1), (Ring.Z, Fraction(1, 2))):
            yield Certificate(ring, sorted(rows), [value] * len(rows), length, "t")
            if rows:
                r = rng.choice(sorted(rows))
                yield Certificate(ring, sorted(rows - {r}), [value] * (len(rows) - 1), length, "t")
            if length:
                flipped = rows ^ {rng.randrange(length)}
                yield Certificate(ring, sorted(flipped), [value] * len(flipped), length, "t")
            yield Certificate(ring, sorted(rows), [value] * len(rows), length + 1, "t")
        if rows:
            yield Certificate(Ring.Z, sorted(rows), [1] * len(rows), length, "unhalved")
            yield Certificate(Ring.Z2, sorted(rows), [Fraction(1, 2)] * len(rows), length, "ring")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_parity_recheck_accepts_what_the_dense_reference_accepts(rng):
    model = helpers.random_consistent_support(rng)
    delta = cohomology._Coboundary(model)
    length = len(delta.table)
    for ring in (Ring.Z2, Ring.Z):
        results = all_obstructions(model, ring)
        for (base, s), result in results.items():
            t = delta.block(base).start + model._support_position(base)[s.values]
            assert delta.basis[t] == (base, s)
            system = result.system
            solved = [
                set(other.certificate.rows)
                for (b, _), other in results.items()
                if b == base and other.certificate is not None
            ]
            if result.certificate is not None:
                assert delta.refuted(base, result.certificate)(t)
            row_sets = solved + [a ^ b for a in solved for b in solved]
            row_sets += [{r for r in range(length) if rng.random() < 0.3} for _ in range(3)]
            for certificate in _parity_candidates(rng, row_sets, length):
                expected = helpers.reference_check_certificate(system.matrix, system.rhs, certificate)
                assert delta.refuted(base, certificate)(t) == expected


@pytest.mark.parametrize("ring", [Ring.Z2, Ring.Z])
def test_a_corrupted_unit_solution_is_rejected(ring, monkeypatch):
    real = linalg._GF2Echelon.unit_solutions

    def corrupted(self):
        reach = real(self)
        reach[0] = sorted(set(reach[0]) ^ {0})
        return reach

    monkeypatch.setattr(linalg._GF2Echelon, "unit_solutions", corrupted)
    helpers.echelon_only(monkeypatch)
    for name in ("prbox", "ghz"):
        with pytest.raises(VerificationError, match="Z/2 certificate failed"):
            all_obstructions(load_example(name).support_model(), ring)


def _edge_rows(model, base):
    """The rows of delta^0 on one overlap of the base context."""
    i, j, _ = next(pair for pair in model.scenario.overlaps if base in pair[:2])
    return {r for r, row in enumerate(model.overlap_table) if row[:2] == (i, j)}


_AVN_MUTATIONS = {
    "a dropped row": lambda model, find, base: find(base)[1:],
    "one edge's rows added": lambda model, find, base: sorted(
        set(find(base)) ^ _edge_rows(model, base)
    ),
    "the certificate of another base": lambda model, find, base: find(
        (base + 1) % len(model.scenario.contexts)
    ),
}


@pytest.mark.parametrize("mutation", list(_AVN_MUTATIONS))
@pytest.mark.parametrize("ring", [Ring.Z2, Ring.Z])
def test_a_mutated_all_vs_nothing_certificate_is_rejected(mutation, ring, monkeypatch):
    real = cohomology._all_vs_nothing

    def mutated(model, delta):
        find = real(model, delta)
        return lambda base: _AVN_MUTATIONS[mutation](model, find, base)

    monkeypatch.setattr(cohomology, "_all_vs_nothing", mutated)
    for name in ("prbox", "ghz", "peres-mermin"):
        with pytest.raises(VerificationError, match="Z/2 certificate failed"):
            all_obstructions(load_example(name).support_model(), ring)


_FIXED_MODELS = {
    **{name: lambda name=name: load_example(name).support_model() for name in EXAMPLE_NAMES},
    "ghz4": lambda: parse_scenario(json.dumps(helpers.ghz_document(4))).support_model(),
    "ring5": lambda: helpers.ring_cover(5),
}


def _witness_mutations(rng, model, base, s, witness, ring):
    """The witness changed in one place, in each way the module docstring
    lists."""
    scenario, other = model.scenario, Ring.Z if ring is Ring.Z2 else Ring.Z2
    for ctx in scenario.contexts:
        yield _bumped(witness, ctx.index, rng.choice(model.support_list(ctx.index)), ring)
        support = model.supports[ctx.index]
        outside = [t for t in enumerate_sections(scenario, ctx.members) if t not in support]
        if outside:
            yield _bumped(witness, ctx.index, rng.choice(outside), ring)
        entry = witness[ctx.index]
        for changed in (
            dataclasses.replace(entry, ring=other),
            dataclasses.replace(entry, domain=rng.choice(scenario.contexts).members[::-1]),
        ):
            yield witness[: ctx.index] + (changed,) + witness[ctx.index + 1 :]
    members = scenario.contexts[base].members
    others = [t for t in model.support_list(base) if t != s]
    wrong_bases = [combination(ring, members, {}), combination(ring, members, {s: 3})]
    if others:
        wrong_bases += [embed(ring, others[0]), combination(ring, members, {s: 1, others[-1]: 1})]
    for wrong in wrong_bases:
        yield witness[:base] + (wrong,) + witness[base + 1 :]
    yield witness[:-1]
    yield witness + (witness[0],)


def _re_checks_agree(model, rng):
    table = helpers.fibers_by_restriction(model)
    for ring in (Ring.Z2, Ring.Z):
        for (base, s), result in all_obstructions(model, ring).items():
            family = helpers.random_cochain(rng, model, ring, 0).values
            family = tuple(family[(ctx.index,)] for ctx in model.scenario.contexts)
            family = family[:base] + (embed(ring, s),) + family[base + 1 :]
            candidates = [family, *_witness_mutations(rng, model, base, s, family, ring)]
            if result.vanishes:
                assert helpers.reference_verify_witness(model, base, s, result.witness, ring, table)
                candidates += [result.witness]
                candidates += _witness_mutations(rng, model, base, s, result.witness, ring)
            for candidate in candidates:
                expected = helpers.reference_verify_witness(model, base, s, candidate, ring, table)
                assert verify_witness(model, base, s, candidate, ring) == expected


@pytest.mark.parametrize("name", sorted(_FIXED_MODELS))
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_the_position_re_check_agrees_with_the_section_keyed_one(name, seed):
    # A seeded generator: GHZ-4 draws too many values for hypothesis's own.
    _re_checks_agree(_FIXED_MODELS[name](), random.Random(seed))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_the_position_re_check_agrees_on_random_supports(rng):
    _re_checks_agree(helpers.random_consistent_support(rng), rng)
