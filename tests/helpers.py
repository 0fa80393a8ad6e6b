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
from itertools import permutations, product

from contextuality import (
    Ring,
    Scenario,
    Section,
    Simplex,
    SupportModel,
    build_scenario,
    combination,
    enumerate_sections,
    ks_support,
    restrict_combination,
    restrict_section,
    support_at,
    support_model,
    support_violations,
    zero_cochain,
)
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


def ghz_scenario(parties: int) -> Scenario:
    """The n-party GHZ cover: measurements X and Y per party, and a context
    per choice of axes with an even number of Y's."""
    measurements = [f"{axis}{p}" for p in range(1, parties + 1) for axis in "XY"]
    contexts = [
        [f"{a}{p}" for p, a in enumerate(axes, start=1)]
        for axes in product("XY", repeat=parties)
        if axes.count("Y") % 2 == 0
    ]
    return build_scenario(measurements, BINARY, contexts)


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
