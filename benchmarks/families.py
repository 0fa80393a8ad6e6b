"""Seeded generators for the benchmark's model families.

Each generator returns scenario documents (the JSON text the program parses)
together with the ground truth the benchmark checks every verdict against.
The truths come from theory, not from running the program:

* All-vs-nothing parity models (n-party GHZ with the even-Y contexts, the
  n-cycle parity chain with one odd context) have no global section, and
  every support section's obstruction is non-vanishing over Z/2, hence also
  over Z (integer vanishing descends mod 2).
* On a connected cover of one-hot 4-sets where every measurement lies in
  exactly two contexts, any witness family has coefficient sum 1 in every
  context; summing over contexts counts each measurement twice, so the cover
  size k would be even.  For odd k no obstruction vanishes, over Z or Z/2,
  and no global section exists (gcd 2 of the degrees does not divide k).
* On the one-hot ring cover every support section extends to a global
  section, so every obstruction vanishes.  The global sections are counted
  by the trace of the transfer matrix [[2, 1], [1, 0]] to the k-th power.

Measurements are always declared in a fixed order derived from the cover
(ring order, or order of first appearance), never shuffled: the
global-section oracle backtracks in declaration order, and shuffling the
declaration of one ring cover made it 7 to 24 times slower.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

NON_CONTEXTUAL = "non_contextual_possibilistic"
CONTEXTUAL = "contextual"
STRONGLY_CONTEXTUAL = "strongly_contextual"


@dataclass(frozen=True)
class Truth:
    """Expected results for one model.  Counts are per ring and identical on
    Z and Z/2 for every model the benchmark runs."""

    verdict: str
    sections: int  # support sections over all contexts
    non_vanishing: int
    false_positives: int
    global_sections: int | None = None  # None: not pinned


@dataclass(frozen=True)
class Generated:
    name: str
    text: str  # scenario document, JSON
    truth: Truth


def _document(name, measurements, contexts, model_key, per_context) -> str:  # noqa: ANN001
    return json.dumps(
        {
            "name": name,
            "measurements": measurements,
            "outcomes": ["0", "1"],
            "contexts": contexts,
            "model": {model_key: per_context},
        }
    )


def _parity_distribution(arity: int, bit: int) -> dict[str, str]:
    """Uniform distribution on the outcome tuples whose number of 1s has the
    given parity; its marginals on every proper subset are uniform, so any
    family of such tables is no-signalling."""
    allowed = [v for v in product("01", repeat=arity) if v.count("1") % 2 == bit]
    p = str(Fraction(1, len(allowed)))
    return {",".join(v): p for v in allowed}


def _one_hot(arity: int) -> list[str]:
    return [",".join("1" if k == hot else "0" for k in range(arity)) for hot in range(arity)]


def ghz(n: int) -> Generated:
    """n-party GHZ parity model on the contexts with an even number of Y
    measurements; a context with 2j Y's has outcome parity j mod 2."""
    measurements = [f"{axis}{p}" for p in range(1, n + 1) for axis in "XY"]
    contexts, tables = [], []
    for axes in product("XY", repeat=n):
        ys = axes.count("Y")
        if ys % 2:
            continue
        contexts.append([f"{a}{p}" for p, a in enumerate(axes, start=1)])
        tables.append(_parity_distribution(n, (ys // 2) % 2))
    sections = len(contexts) * 2 ** (n - 1)
    truth = Truth(STRONGLY_CONTEXTUAL, sections, sections, 0, 0)
    return Generated(f"ghz{n}", _document(f"ghz{n}", measurements, contexts, "distribution", tables), truth)


def parity_chain(n: int, odd: int) -> Generated:
    """n-cycle parity model (the chained PR box): contexts are consecutive
    pairs around the cycle, all with even parity except context `odd`."""
    measurements = [f"c{k:02d}" for k in range(n)]
    pairs = [(k, k + 1) for k in range(n - 1)] + [(0, n - 1)]
    contexts = [[measurements[a], measurements[b]] for a, b in pairs]
    tables = [_parity_distribution(2, int(k == odd)) for k in range(n)]
    truth = Truth(STRONGLY_CONTEXTUAL, 2 * n, 2 * n, 0, 0)
    name = f"chain{n}"
    return Generated(name, _document(name, measurements, contexts, "distribution", tables), truth)


def _is_connected(contexts: list[set[int]]) -> bool:
    seen, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for j, other in enumerate(contexts):
            if j not in seen and contexts[i] & other:
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(contexts)


def random_cover(k: int, rng: random.Random) -> Generated:
    """Connected cover of k one-hot 4-sets, every measurement in exactly two
    contexts (2k measurements) and any two contexts sharing at most one, as
    in the bundled Kochen-Specker sets.  Drawn by pairing measurement stubs
    at random and rejecting covers that break those rules; k must be odd and
    at least 5.  Every such cover has the same obstruction-system shape, so
    the seed varies the structure, not the size.  Measurements are declared
    in order of first appearance along the contexts, which lets the oracle
    prune early; in label order, which the random pairing makes unrelated
    to the cover, its search costs 5 to 50 times more and varies with the
    seed by as much."""
    if k % 2 == 0 or k < 5:
        raise ValueError("random one-hot covers need an odd cover size of at least 5")
    while True:
        stubs = [m for m in range(2 * k) for _ in range(2)]
        rng.shuffle(stubs)
        raw = [set(stubs[4 * c : 4 * c + 4]) for c in range(k)]
        if any(len(ctx) != 4 for ctx in raw):
            continue
        if any(len(raw[i] & raw[j]) > 1 for i in range(k) for j in range(i)):
            continue
        if _is_connected(raw):
            break
    names: dict[int, str] = {}
    for ctx in raw:
        for m in sorted(ctx):
            names.setdefault(m, f"m{len(names):02d}")
    measurements = list(names.values())
    contexts = [sorted(names[m] for m in ctx) for ctx in raw]
    truth = Truth(STRONGLY_CONTEXTUAL, 4 * k, 4 * k, 0, 0)
    name = f"cover{k}"
    return Generated(name, _document(name, measurements, contexts, "support", [_one_hot(4)] * k), truth)


def ring_global_sections(k: int) -> int:
    """trace(T^k) for the one-hot ring transfer matrix T = [[2, 1], [1, 0]]
    (state: the value of the measurement shared with the next context)."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(k):
        a, b, c, d = 2 * a + b, a, 2 * c + d, c
    return a + d


def ring_cover(k: int) -> Generated:
    """Ring of k one-hot 4-sets, consecutive contexts sharing one measurement:
    context i is r[3i], r[3i+1], r[3i+2], r[3i+3 mod 3k].  Non-contextual."""
    if k < 3:
        raise ValueError("a ring cover needs at least 3 contexts")
    measurements = [f"r{j:02d}" for j in range(3 * k)]
    contexts = [
        sorted(measurements[(3 * i + d) % (3 * k)] for d in range(4)) for i in range(k)
    ]
    truth = Truth(NON_CONTEXTUAL, 4 * k, 0, 0, ring_global_sections(k))
    name = f"ring{k}"
    return Generated(name, _document(name, measurements, contexts, "support", [_one_hot(4)] * k), truth)
