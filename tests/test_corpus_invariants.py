"""Corpus-wide invariant sweeps tying the oracle and the obstruction together.

Core claims:
    - soundness: on every bundled model, every extendable support section has
      a vanishing obstruction over both rings
    - descent: on every bundled model and section, integer vanishing implies
      mod-2 vanishing
    - false positives are exactly {vanishing} minus {extendable} everywhere
    - appending the degenerate self-overlap equations (a context against
      itself) adds only zero rows and never changes a verdict, which is why
      repeated indices are excluded from the construction
    - repeated runs return identical results
"""

from contextuality import (
    Ring,
    all_obstructions,
    classify,
    false_positives,
    obstruction,
    restrict_section,
)
from contextuality.linalg import factor

RINGS = (Ring.Z2, Ring.Z)


def test_extendable_corpus_sections_vanish(corpus_supports):
    for name, model in corpus_supports.items():
        cls = classify(model)
        for ring in RINGS:
            results = all_obstructions(model, ring)
            for key, flag in cls.extendable.items():
                if flag:
                    assert results[key].vanishes, (name, ring, key)


def test_mod2_descent_on_every_corpus_section(corpus_supports):
    for name, model in corpus_supports.items():
        over_z = all_obstructions(model, Ring.Z)
        over_z2 = all_obstructions(model, Ring.Z2)
        for key, result in over_z.items():
            if result.vanishes:
                assert over_z2[key].vanishes, (name, key)


def test_false_positive_set_identity_everywhere(corpus_supports):
    for name, model in corpus_supports.items():
        cls = classify(model)
        for ring in RINGS:
            results = all_obstructions(model, ring)
            expected = {
                key for key, r in results.items() if r.vanishes and not cls.extendable[key]
            }
            assert set(false_positives(model, ring, obstructions=results).sections) == expected


def test_self_overlap_equations_are_degenerate(corpus_supports):
    # A context paired with itself contributes rows of the form x - x = 0;
    # including them cannot change solvability, so the system omits them.
    for name, model in corpus_supports.items():
        s = model.support_list(0)[0]
        for ring in RINGS:
            result = obstruction(model, 0, s, ring)
            system = result.system
            extra_rows = []
            for ctx in model.scenario.contexts[1:]:  # non-base: these have variables
                for restricted in sorted(
                    {restrict_section(u, ctx.members) for u in model.supports[ctx.index]},
                    key=lambda r: r.values,
                ):
                    row = [0] * len(system.variables)
                    for sign in (1, -1):
                        for k, (owner, u) in enumerate(system.variables):
                            if owner == ctx.index and u == restricted:
                                row[k] += sign
                    assert not any(row)
                    extra_rows.append([ring.reduce(v) for v in row])
            padded = [list(r) for r in system.matrix] + extra_rows
            rhs = list(system.rhs) + [0] * len(extra_rows)
            widened = factor(padded, ring, len(system.variables)).solve(rhs)
            assert (widened.solution is not None) == result.vanishes, (name, ring)


def test_obstruction_results_are_reproducible(corpus_supports):
    model = corpus_supports["ghz"]
    s = model.support_list(0)[0]
    for ring in RINGS:
        first = obstruction(model, 0, s, ring)
        second = obstruction(model, 0, s, ring)
        assert first.vanishes == second.vanishes
        assert first.witness == second.witness
        assert first.certificate == second.certificate
        assert first.system == second.system
