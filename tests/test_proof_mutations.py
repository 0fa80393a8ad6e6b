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
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    EXAMPLE_NAMES,
    Ring,
    all_obstructions,
    coboundary,
    cochain,
    combination,
    enumerate_sections,
    load_example,
    verify_witness,
)
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
        yield Certificate(certificate.ring, y[:r] + (_FLIP[y[r]],) + y[r + 1 :], "flip")


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
