"""Randomized invariant suites shared by the property tests and the
acceptance gate.

Each function runs `cases` independent randomized trials (seeded, so runs
are reproducible) and returns the number of effective checks performed,
asserting the invariant along the way.  Scenarios stay small: at most 5
contexts and 6 binary measurements.
"""

from __future__ import annotations

import random

from contextuality import (
    Ring,
    classify,
    coboundary,
    global_sections,
    obstruction,
    verify_witness,
)
from contextuality.cohomology import cochain, embed
from contextuality.linalg import check_certificate, factor
from contextuality.scenario import restrict_section

import helpers

RINGS = (Ring.Z, Ring.Z2)


def coboundary_of_coboundary_vanishes(cases: int = 200, seed: int = 201) -> int:
    """(a) applying the coboundary twice annihilates every 0-cochain."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(cases):
        model = helpers.random_consistent_support(rng)
        ring = rng.choice(RINGS)
        omega = helpers.random_cochain(rng, model, ring, 0)
        twice = coboundary(1, coboundary(0, omega))
        assert all(v.is_zero for v in twice.values.values())
        checked += 1
    return checked


def cocycle_iff_compatible(cases: int = 200, seed: int = 202) -> int:
    """(b) a 0-cochain has zero coboundary exactly when its family agrees on
    every overlap (checked directly, pair by pair)."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(cases):
        ring = rng.choice(RINGS)

        model = helpers.random_consistent_support(rng)
        omega = helpers.random_cochain(rng, model, ring, 0)
        delta = coboundary(0, omega)
        is_cocycle = all(v.is_zero for v in delta.values.values())
        assert is_cocycle == helpers.pairwise_compatible(omega)

        scenario = helpers.random_scenario(rng)
        image_model = helpers.random_image_support(rng, scenario)
        compatible = helpers.compatible_cochain(rng, image_model, ring)
        delta = coboundary(0, compatible)
        assert all(v.is_zero for v in delta.values.values())
        assert helpers.pairwise_compatible(compatible)
        checked += 2
    return checked


def extendable_sections_vanish(cases: int = 200, seed: int = 203) -> int:
    """(c) a support section lying on a global section has a vanishing
    obstruction over both rings."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(cases):
        model = helpers.random_consistent_support(rng)
        cls = classify(model)
        extendable = [key for key, flag in cls.extendable.items() if flag]
        if not extendable:
            continue
        for index, section in rng.sample(extendable, min(2, len(extendable))):
            for ring in RINGS:
                result = obstruction(model, index, section, ring)
                assert result.vanishes, (model.scenario, index, section, ring)
                checked += 1
    assert checked >= cases  # image models keep this suite well fed
    return checked


def integer_vanishing_descends_to_mod2(cases: int = 200, seed: int = 204) -> int:
    """(d) an integer witness family reduces mod 2, so vanishing descends."""
    rng = random.Random(seed)
    checked = vanished = failed = 0
    for _ in range(cases):
        model = helpers.random_consistent_support(rng)
        pairs = helpers.sections_of(model)
        index, section = rng.choice(pairs)
        over_z = obstruction(model, index, section, Ring.Z)
        if over_z.vanishes:
            over_z2 = obstruction(model, index, section, Ring.Z2)
            assert over_z2.vanishes
            vanished += 1
        else:
            failed += 1
        checked += 1
    assert vanished > 0 and failed > 0  # both branches exercised
    return checked


def solver_witnesses_substitute(cases: int = 200, seed: int = 205) -> int:
    """(e) solutions satisfy the untouched system, by dense substitution
    (helpers.substitutes); certificates refute it; obstruction witnesses
    re-verify at the presheaf level."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(cases):
        ring = rng.choice(RINGS)
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = [[ring.reduce(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        b = [ring.reduce(rng.randint(-2, 2)) for _ in range(m)]
        result = factor(a, ring).solve(b)
        if result.solution is not None:
            assert helpers.substitutes(a, b, result.solution, ring)
        else:
            assert check_certificate(a, b, result.certificate)
        checked += 1

        model = helpers.random_consistent_support(rng)
        index, section = rng.choice(helpers.sections_of(model))
        outcome = obstruction(model, index, section, ring)
        if outcome.vanishes:
            assert verify_witness(model, index, section, outcome.witness, ring)
            values = {
                key: outcome.witness[key[0]].coefficients.get(key[1], 0)
                for key in outcome.system.variables
            }
            x = [values[key] for key in outcome.system.variables]
            assert helpers.substitutes(outcome.system.matrix, outcome.system.rhs, x, ring)
        else:
            assert check_certificate(
                [list(r) for r in outcome.system.matrix],
                list(outcome.system.rhs),
                outcome.certificate,
            )
        checked += 1
    return checked


def families_through_base_restrict_to_zero(cases: int = 200, seed: int = 206) -> int:
    """(f) for a family of support sections all agreeing with a base section
    on the base context, the coboundary restricted to the base is zero on
    every overlap."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(cases):
        model = helpers.random_consistent_support(rng)
        scenario = model.scenario
        base = rng.randrange(len(scenario.contexts))
        base_members = set(scenario.contexts[base].members)
        base_section = rng.choice(model.support_list(base))

        family = {}
        for ctx in scenario.contexts:
            if ctx.index == base:
                family[ctx.index] = base_section
                continue
            overlap = base_members & set(ctx.members)
            matching = [
                s
                for s in model.support_list(ctx.index)
                if restrict_section(s, overlap)
                == restrict_section(base_section, overlap)
            ]
            assert matching  # guaranteed by overlap consistency
            family[ctx.index] = rng.choice(matching)

        ring = rng.choice(RINGS)
        omega = cochain(
            model,
            ring,
            0,
            {(i,): embed(ring, s) for i, s in family.items()},
        )
        z = coboundary(0, omega)
        for vertices, value in z.values.items():
            target = base_members & set(value.domain)
            assert not helpers.restricted(value, target)
            checked += 1
    return checked


def oracle_equivalence(cases: int = 200, seed: int = 207) -> int:
    """Backtracking global-section enumeration equals brute-force product
    enumeration, set for set, on arbitrary random supports."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(cases):
        scenario = helpers.random_scenario(rng)
        model = helpers.random_any_support(rng, scenario)
        assert set(global_sections(model)) == helpers.exhaustive_global_sections(model)
        checked += 1
    return checked
