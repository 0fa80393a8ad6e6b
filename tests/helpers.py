"""Shared test machinery: independent oracles, the generated one-hot ring
and one-section covers, and random model generators.

The oracles here deliberately avoid the library's search and solver paths:
global sections are enumerated by brute force over the full assignment
space, compatibility of combination families is checked pairwise and
directly, connectivity is re-derived with union-find, and certificates are
re-checked with dense rational dot products.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import groupby, permutations, product
from typing import Callable

from contextuality import (
    Ring,
    Scenario,
    Section,
    Simplex,
    SupportModel,
    build_scenario,
    combination,
    embed,
    enumerate_sections,
    ks_support,
    restrict_combination,
    restrict_section,
    support_at,
    support_model,
    support_violations,
    zero_cochain,
)
from contextuality import cohomology
from contextuality.cohomology import Cochain, cochain, cochain_basis
from contextuality.linalg import Certificate
from contextuality.scenario import face, nerve

BINARY = ("0", "1")


# ---------------------------------------------------------------------------
# Independent oracles


def exhaustive_global_sections(model: SupportModel) -> set[Section]:
    """Every global assignment compatible with all supports, by full product
    enumeration (no backtracking, no pruning)."""
    scenario = model.scenario
    out = set()
    for values in product(scenario.outcomes, repeat=len(scenario.measurements)):
        g = Section(scenario.measurements, values)
        if all(
            restrict_section(g, ctx.members) in model.supports[ctx.index]
            for ctx in scenario.contexts
        ):
            out.add(g)
    return out


def pairwise_compatible(omega: Cochain) -> bool:
    """Direct check that a 0-cochain's family agrees on every overlap."""
    scenario = omega.model.scenario
    n = len(scenario.contexts)
    for i in range(n):
        for j in range(i + 1, n):
            common = set(scenario.contexts[i].members) & set(scenario.contexts[j].members)
            if not common:
                continue
            left = restrict_combination(omega.values[(i,)], common)
            right = restrict_combination(omega.values[(j,)], common)
            if left != right:
                return False
    return True


def reference_check_certificate(matrix, rhs, certificate: Certificate) -> bool:
    """Dense re-check of a certificate in exact rationals: every column of
    y.A and y.b computed as a Fraction dot product over the rows whose
    multiplier is nonzero (a zero multiplier adds nothing).  The reference
    for the library's scaled-integer check."""
    y = certificate.multipliers
    if len(y) != len(rhs):
        return False
    used = [i for i, v in enumerate(y) if v]
    n = len(matrix[0]) if matrix else 0
    if certificate.ring is Ring.Z2:
        for j in range(n):
            if sum(y[i] * matrix[i][j] for i in used) % 2 != 0:
                return False
        return sum(y[i] * rhs[i] for i in used) % 2 == 1
    combo = [sum(Fraction(y[i]) * matrix[i][j] for i in used) for j in range(n)]
    if any(c.denominator != 1 for c in combo):
        return False
    return sum(Fraction(y[i]) * rhs[i] for i in used).denominator != 1


def dense_certificate(ring: Ring, y, reason: str) -> Certificate:
    """The certificate whose dense multipliers are y, built from its terms."""
    rows = [r for r, v in enumerate(y) if v]
    return Certificate(ring, rows, [y[r] for r in rows], len(y), reason)


def reference_hermite(matrix, width=None):
    """Dense Hermite reduction of the column lattice of a matrix: the
    reference for the library's sparse one, with the same pivot choice and
    the same arithmetic on full lists.  Returns (pivots, lattice basis,
    transforms), each basis vector of length m and each transform of
    length n."""
    m = len(matrix)
    n = len(matrix[0]) if m else (width or 0)
    rows = [
        [[matrix[i][j] for i in range(m)], [1 if k == j else 0 for k in range(n)]]
        for j in range(n)
    ]

    def axpy(target, source, scale):
        for part in (0, 1):
            target[part][:] = [t + scale * v for t, v in zip(target[part], source[part])]

    pivots = []
    h = 0
    for col in range(m):
        if not any(rows[r][0][col] for r in range(h, n)):
            continue
        while True:
            candidates = [r for r in range(h, n) if rows[r][0][col] != 0]
            r0 = min(candidates, key=lambda r: (abs(rows[r][0][col]), r))
            if r0 != h:
                rows[h], rows[r0] = rows[r0], rows[h]
            d = rows[h][0][col]
            others = [r for r in range(h + 1, n) if rows[r][0][col] != 0]
            if not others:
                break
            for r in others:
                q = rows[r][0][col] // d
                if q:
                    axpy(rows[r], rows[h], -q)
            if not any(rows[r][0][col] for r in range(h + 1, n)):
                break
        if rows[h][0][col] < 0:
            for part in (0, 1):
                rows[h][part][:] = [-v for v in rows[h][part]]
        d = rows[h][0][col]
        for r in range(h):
            q = rows[r][0][col] // d
            if q:
                axpy(rows[r], rows[h], -q)
        pivots.append(col)
        h += 1
    return pivots, [lattice for lattice, _ in rows[:h]], [tracking for _, tracking in rows[:h]]


def reference_coboundary_matrix(model: SupportModel, ring: Ring, degree: int) -> list[list[int]]:
    """The coboundary matrix built row by row: for every row section, scan
    every basis section of each face and keep those restricting to it."""
    scenario = model.scenario
    source = cochain_basis(model, degree)
    source_index = {
        (simplex.vertices, section): k for k, (simplex, section) in enumerate(source)
    }
    rows: list[list[int]] = []
    for simplex in nerve(scenario, degree + 1)[degree + 1]:
        for section in support_at(model, simplex.carrier):
            row = [0] * len(source)
            for j in range(degree + 2):
                facet = face(scenario, simplex, j)
                sign = -1 if j % 2 == 0 else 1
                for candidate in support_at(model, facet.carrier):
                    if restrict_section(candidate, simplex.carrier) == section:
                        row[source_index[(facet.vertices, candidate)]] += sign
            rows.append([ring.reduce(v) for v in row])
    return rows


def fibers_by_restriction(model: SupportModel) -> list:
    """The overlap table rebuilt from scratch: per overlap, each section of
    the carrier, in enumeration order, that a support section of either
    context restricts to, with the support sections of each context, also
    in enumeration order, that restrict to it."""
    scenario = model.scenario

    def support_in_order(k):
        members = scenario.contexts[k].members
        return [s for s in enumerate_sections(scenario, members) if s in model.supports[k]]

    rows = []
    for i, j, carrier in scenario.overlaps:
        sides = [support_in_order(i), support_in_order(j)]
        for target in enumerate_sections(scenario, carrier):
            left, right = (
                tuple(s for s in side if restrict_section(s, carrier) == target)
                for side in sides
            )
            if left or right:
                rows.append((i, j, target, left, right))
    return rows


def reference_verify_witness(
    model: SupportModel, base: int, section: Section, witness: tuple, ring: Ring, table: list
) -> bool:
    """The witness re-check with Section-keyed fiber sums, on `table`, the
    overlap fibers as sections (fibers_by_restriction): the reference for
    cohomology.verify_witness, which sums fibers by support position."""
    contexts = model.scenario.contexts
    if len(witness) != len(contexts) or not 0 <= base < len(contexts):
        return False
    if witness[base] != embed(ring, section):
        return False
    for ctx, combo in zip(contexts, witness):
        if combo.ring is not ring or combo.domain != ctx.members:
            return False
        if not model.supports[ctx.index].issuperset(combo.coefficients):
            return False
    for i, j, _, left, right in table:
        first, second = witness[i].coefficients, witness[j].coefficients
        if ring.reduce(sum(first.get(s, 0) for s in left) - sum(second.get(s, 0) for s in right)):
            return False
    return True


def reference_all_vs_nothing(model: SupportModel, delta) -> Callable[[int], list[int] | None]:
    """cohomology._all_vs_nothing context by context, its reference: each
    context's points and GF(2) theory are computed on their own, in the
    global coordinates x_{m,o} at bit position(m) * width + index(o), with
    no theory shared between contexts of one support shape."""
    scenario, table = model.scenario, delta.table
    contexts, holders, position = scenario.contexts, scenario.holders, scenario.positions
    index = scenario.outcome_indices
    width = len(index) - 1  # x_{m,o} is bit position(m) * width + index(o)
    parent, root = [-1] * len(contexts), [-1] * len(contexts)
    spans: dict[tuple[int, int], range] = {}  # the rows on each overlap, either way round
    found: dict[int, set[int]] = {}  # per all-vs-nothing root: rows summing to 1_root

    for start in range(len(contexts)):
        if root[start] >= 0:
            continue
        root[start], order = start, [start]
        for c in order:  # breadth first, through the holders of each member
            for m in contexts[c].members:
                for j in holders[m]:
                    if root[j] < 0:
                        root[j], parent[j] = start, c
                        order.append(j)
        theory = []  # (context, a.x = b as a mask)
        for c in order:
            offsets = [position[m] * width for m in contexts[c].members]
            points = [
                sum((1 << (at + index[o]) for at, o in zip(offsets, s.values) if index[o]), 1)
                for s in model.supports[c]
            ]
            coordinates = [0, *(at + k for at in offsets for k in range(1, width + 1))]
            theory += [(c, f) for f in cohomology._annihilator(points, coordinates)]
        basis: dict[int, tuple[int, int]] = {}  # top bit: (mask, equations combined)
        for k, (_, f) in enumerate(theory):
            combined = 1 << k
            while f > 1 and (top := f.bit_length() - 1) in basis:
                f, combined = f ^ basis[top][0], combined ^ basis[top][1]
            if f == 1:
                break
            if f:
                basis[f.bit_length() - 1] = f, combined
        else:
            continue
        if not spans:  # the table lists each overlap's rows together
            stop = 0
            for (i, j), on in groupby(table, key=lambda entry: entry[:2]):
                first, stop = stop, stop + sum(1 for _ in on)
                spans[i, j] = spans[j, i] = range(first, stop)
        a: dict[int, int] = {}
        for k, (c, f) in enumerate(theory):
            if combined >> k & 1:
                a[c] = a.get(c, 0) ^ f
        holding: dict[int, list[int]] = {}
        for c in order:
            bits = a.get(c, 0)
            while bits > 1:
                top = bits.bit_length() - 1
                holding.setdefault(top, []).append(c)
                bits ^= 1 << top
        z: set[int] = set()
        for bit, held in holding.items():
            m = scenario.measurements[(bit - 1) // width]
            o = scenario.outcomes[(bit - 1) % width + 1]
            for i, j in zip(held[::2], held[1::2]):
                span = spans[i, j]
                at = table[span.start][2].domain.index(m)
                z.symmetric_difference_update(r for r in span if table[r][2].values[at] == o)
        odd = {c for c, f in a.items() if f & 1}
        for c in reversed(order[1:]):  # children before their parents
            if c in odd:
                odd ^= {c, parent[c]}
                z.symmetric_difference_update(spans[c, parent[c]])
        found[start] = z

    def rows(base: int) -> list[int] | None:
        if root[base] not in found:
            return None
        z, c = set(found[root[base]]), base
        while parent[c] >= 0:
            z.symmetric_difference_update(spans[c, parent[c]])
            c = parent[c]
        return sorted(z)

    return rows


def reference_overlaps(scenario: Scenario) -> tuple[tuple[int, int, tuple[str, ...]], ...]:
    """Every intersecting context pair (i, j), i < j, in lexicographic
    order, with its common measurements in global order, by visiting every
    pair: the reference for `Scenario.overlaps`."""
    out = []
    for a in scenario.contexts:
        for b in scenario.contexts[a.index + 1 :]:
            common = tuple(m for m in a.members if m in b.members)
            if common:
                out.append((a.index, b.index, common))
    return tuple(out)


def reference_nerve(scenario: Scenario, max_q: int) -> list[list[Simplex]]:
    """The nerve by its definition: per dimension q, every ordered tuple of
    q+1 distinct context indices, in lexicographic order, whose contexts
    have a common measurement, with the common measurements in global order.
    The reference for `nerve`."""
    contexts = scenario.contexts
    dims = []
    for q in range(max_q + 1):
        layer = []
        for vertices in permutations(range(len(contexts)), q + 1):
            common = set.intersection(*(set(contexts[v].members) for v in vertices))
            if common:
                carrier = tuple(m for m in scenario.measurements if m in common)
                layer.append(Simplex(vertices, carrier))
        dims.append(layer)
    return dims


def reference_plan(model: SupportModel) -> list:
    """The search order, by a minimum over every remaining context at every
    step (most already-assigned members, then smallest support, then lowest
    index): the reference for `extendability._plan`."""
    order, remaining, assigned = [], list(model.scenario.contexts), set()
    while remaining:
        order.append(min(remaining, key=lambda c: (
            -len(assigned.intersection(c.members)), len(model.supports[c.index]), c.index)))
        remaining.remove(order[-1])
        assigned.update(order[-1].members)
    return order


def connected_by_union_find(scenario: Scenario) -> bool:
    n = len(scenario.contexts)
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i in range(n):
        for j in range(i + 1, n):
            if set(scenario.contexts[i].members) & set(scenario.contexts[j].members):
                parent[find(i)] = find(j)
    return len({find(v) for v in range(n)}) == 1


def echelon_only(monkeypatch) -> None:  # noqa: ANN001
    """Make the obstruction solver find no all-vs-nothing component, so that
    every section goes through the cocycle echelon."""
    monkeypatch.setattr(cohomology, "_all_vs_nothing", lambda model, delta: lambda base: None)


# ---------------------------------------------------------------------------
# Generated covers


def _ring(k: int) -> tuple[list[str], list[list[str]]]:
    """Measurements and contexts of the ring of k 4-sets, context i holding
    measurements 3i to 3i + 3 (mod 3k): consecutive contexts share one.
    The names are as wide as the last index, so they sort in ring order."""
    width = len(str(3 * k - 1))
    ring = [f"r{j:0{width}d}" for j in range(3 * k)]
    return ring, [sorted(ring[(3 * i + d) % (3 * k)] for d in range(4)) for i in range(k)]


def ring_cover_document(k: int) -> dict:
    """The one-hot ring of k 4-sets as a support document."""
    ring, contexts = _ring(k)
    rows = [",".join("1" if d == c else "0" for d in range(4)) for c in range(4)]
    return {
        "name": f"ring{k}",
        "measurements": ring,
        "outcomes": ["0", "1"],
        "contexts": contexts,
        "model": {"support": [rows] * k},
    }


def parity_chain_document(n: int) -> dict:
    """The n-cycle parity model (the chained PR box) as a support document:
    context k holds measurements k and k + 1 (mod n), named as wide as n so
    that they sort in chain order, and its support is the even sections,
    the odd ones on context 0."""
    names = [f"m{k:0{len(str(n))}d}" for k in range(n)]
    even, odd = ["0,0", "1,1"], ["0,1", "1,0"]
    return {
        "name": f"chain{n}",
        "measurements": names,
        "outcomes": ["0", "1"],
        "contexts": [sorted([names[k], names[(k + 1) % n]]) for k in range(n)],
        "model": {"support": [odd] + [even] * (n - 1)},
    }


def ring_cover(k: int, rng: random.Random | None = None) -> SupportModel:
    """The one-hot ring of k 4-sets as a model, its measurements declared
    in ring order, or shuffled by `rng`."""
    ring, contexts = _ring(k)
    if rng is not None:
        rng.shuffle(ring)
    return ks_support(build_scenario(ring, BINARY, contexts))


def grid_cover(n: int) -> SupportModel:
    """The one-hot n x n torus grid: a context per vertex, on its four
    edges, whose support picks exactly one of them.  Its global sections
    are the perfect matchings, and the oracle's frontier is about 2n wide."""
    def edge(kind: str, i: int, j: int) -> str:
        return f"{kind}{i % n:02d}{j % n:02d}"

    contexts = [
        sorted([edge("h", i, j), edge("h", i, j - 1), edge("v", i, j), edge("v", i - 1, j)])
        for i in range(n)
        for j in range(n)
    ]
    return ks_support(build_scenario(sorted({m for c in contexts for m in c}), BINARY, contexts))


def _ghz(parties: int) -> tuple[list[str], list[list[str]]]:
    """Measurements X and Y per party, and a context per choice of axes with
    an even number of Y's."""
    measurements = [f"{axis}{p}" for p in range(1, parties + 1) for axis in "XY"]
    contexts = [
        [f"{a}{p}" for p, a in enumerate(axes, start=1)]
        for axes in product("XY", repeat=parties)
        if axes.count("Y") % 2 == 0
    ]
    return measurements, contexts


def ghz_scenario(parties: int) -> Scenario:
    """The n-party GHZ cover."""
    measurements, contexts = _ghz(parties)
    return build_scenario(measurements, BINARY, contexts)


def ghz_document(parties: int) -> dict:
    """The n-party GHZ parity model as a support document: a context with 2j
    Y's has the outcome tuples whose number of 1s is j mod 2."""
    measurements, contexts = _ghz(parties)
    support = [
        [
            ",".join(values)
            for values in product(BINARY, repeat=parties)
            if values.count("1") % 2 == sum(m[0] == "Y" for m in c) // 2 % 2
        ]
        for c in contexts
    ]
    return {
        "name": f"ghz{parties}",
        "measurements": measurements,
        "outcomes": list(BINARY),
        "contexts": contexts,
        "model": {"support": support},
    }

def one_section_document(width: int) -> dict:
    """One context of `width` binary measurements whose support is the
    all-0 section alone: E(C) has 2**width sections, the support one."""
    measurements = [f"m{j:0{len(str(width - 1))}d}" for j in range(width)]
    return {
        "name": f"one-section{width}",
        "measurements": measurements,
        "outcomes": ["0", "1"],
        "contexts": [measurements],
        "model": {"support": [[",".join("0" * width)]]},
    }


# ---------------------------------------------------------------------------
# Random generators


def random_scenario(
    rng: random.Random,
    max_measurements: int = 6,
    max_contexts: int = 5,
    antichain: bool = False,
) -> Scenario:
    """A random binary-outcome scenario.  The measurement set is shrunk to
    the union of the generated contexts so the cover property always holds."""
    n_meas = rng.randint(2, max_measurements)
    labels = [f"m{i}" for i in range(n_meas)]
    n_ctx = rng.randint(1, max_contexts)
    contexts: list[tuple[str, ...]] = []
    attempts = 0
    while len(contexts) < n_ctx and attempts < 60:
        attempts += 1
        size = rng.randint(1, min(4, n_meas))
        members = tuple(sorted(rng.sample(labels, size)))
        if members in contexts:
            continue
        if antichain and any(
            set(members) <= set(c) or set(c) <= set(members) for c in contexts
        ):
            continue
        contexts.append(members)
    covered = sorted({m for ctx in contexts for m in ctx})
    return build_scenario(covered, BINARY, contexts)


def random_image_support(rng: random.Random, scenario: Scenario) -> SupportModel:
    """Supports generated as restrictions of a random set of global
    assignments: always overlap-consistent, every support section extends."""
    space = list(product(scenario.outcomes, repeat=len(scenario.measurements)))
    count = rng.randint(1, min(6, len(space)))
    chosen = [Section(scenario.measurements, v) for v in rng.sample(space, count)]
    supports = [
        {restrict_section(g, ctx.members) for g in chosen} for ctx in scenario.contexts
    ]
    return support_model(scenario, supports)


def random_any_support(rng: random.Random, scenario: Scenario) -> SupportModel:
    """Arbitrary nonempty supports; overlap consistency not guaranteed."""
    supports = []
    for ctx in scenario.contexts:
        sections = enumerate_sections(scenario, ctx.members)
        count = rng.randint(1, min(8, len(sections)))
        supports.append(set(rng.sample(sections, count)))
    return support_model(scenario, supports)


def random_consistent_support(rng: random.Random) -> SupportModel:
    """A consistent random model: restriction images of global sets on any
    cover, or one-hot / parity supports on antichain covers (the latter two
    are frequently contextual)."""
    from contextuality import parity_support

    kind = rng.randrange(3)
    if kind == 0:
        scenario = random_scenario(rng)
        return random_image_support(rng, scenario)
    scenario = random_scenario(rng, antichain=True)
    if kind == 1:
        model = ks_support(scenario)
    else:
        model = parity_support(
            scenario, [rng.randint(0, 1) for _ in scenario.contexts]
        )
    assert support_violations(model) == []
    return model


def random_cochain(rng: random.Random, model: SupportModel, ring: Ring, degree: int):
    """Random cochain with coefficients drawn on the support bases."""
    values = {}
    for simplex in nerve(model.scenario, degree)[degree]:
        coeffs = {}
        for section in support_at(model, simplex.carrier):
            c = rng.randint(0, 1) if ring is Ring.Z2 else rng.randint(-2, 2)
            if c:
                coeffs[section] = c
        values[simplex.vertices] = combination(ring, simplex.carrier, coeffs)
    return cochain(model, ring, degree, values)


def compatible_cochain(rng: random.Random, model: SupportModel, ring: Ring):
    """A pairwise-compatible 0-cochain: a random combination of restrictions
    of global assignments (any assignments; restriction commutes with
    overlaps, so compatibility is automatic).  Only valid as a cochain when
    the restrictions stay inside the supports, so use image-type models."""
    scenario = model.scenario
    space = list(product(scenario.outcomes, repeat=len(scenario.measurements)))
    chosen = []
    for values in space:
        g = Section(scenario.measurements, values)
        if all(
            restrict_section(g, ctx.members) in model.supports[ctx.index]
            for ctx in scenario.contexts
        ):
            chosen.append(g)
    if not chosen:
        return zero_cochain(model, ring, 0)
    weights = {
        g: (rng.randint(0, 1) if ring is Ring.Z2 else rng.randint(-2, 2)) for g in chosen
    }
    values = {}
    for ctx in scenario.contexts:
        coeffs: dict[Section, int] = {}
        for g, w in weights.items():
            if not w:
                continue
            r = restrict_section(g, ctx.members)
            coeffs[r] = coeffs.get(r, 0) + w
        values[(ctx.index,)] = combination(ring, ctx.members, coeffs)
    return cochain(model, ring, 0, values)


def sections_of(model: SupportModel) -> list[tuple[int, Section]]:
    out = []
    for ctx in model.scenario.contexts:
        for s in model.support_list(ctx.index):
            out.append((ctx.index, s))
    return out


def section(domain: tuple[str, ...] | list[str], text: str) -> Section:
    return Section(tuple(domain), tuple(text.split(",")))
