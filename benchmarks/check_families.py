"""Checks of the benchmark's generators and of its metric list.

    python3 -m pytest benchmarks/check_families.py

The ground truth each generator carries is compared, at small sizes, with an
exhaustive enumeration of global assignments written here from the document
alone, and the obstruction counts with the library's own verdicts.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import families  # noqa: E402
import run  # noqa: E402
from contextuality import Ring, all_obstructions, parse_scenario  # noqa: E402


def brute_force(text: str) -> tuple[str, int, int]:
    """(verdict, global sections, support sections) by trying every global
    assignment against every context's support."""
    doc = json.loads(text)
    model = doc["model"]
    if "support" in model:
        supports = [set(s) for s in model["support"]]
    else:
        supports = [{k for k, p in t.items() if Fraction(p)} for t in model["distribution"]]
    index = {m: k for k, m in enumerate(doc["measurements"])}
    contexts = [[index[m] for m in ctx] for ctx in doc["contexts"]]

    def restricted(values, ctx):  # noqa: ANN001
        return ",".join(values[k] for k in ctx)

    found = [
        values
        for values in product(doc["outcomes"], repeat=len(index))
        if all(restricted(values, ctx) in s for ctx, s in zip(contexts, supports))
    ]
    extendable = {(c, restricted(g, ctx)) for g in found for c, ctx in enumerate(contexts)}
    sections = sum(len(s) for s in supports)
    if len(extendable) == sections:
        verdict = families.NON_CONTEXTUAL
    elif extendable:
        verdict = families.CONTEXTUAL
    else:
        verdict = families.STRONGLY_CONTEXTUAL
    return verdict, len(found), sections


SMALL = (
    [families.ghz(3)]
    + [families.parity_chain(n, odd) for n in (3, 5, 6) for odd in (0, n - 1)]
    + [families.ring_cover(k) for k in (3, 4, 5)]
    + [families.random_cover(k, random.Random(seed)) for k in (5, 7) for seed in (0, 1, 2)]
)


@pytest.mark.parametrize("generated", SMALL, ids=lambda g: g.name)
def test_truth_matches_exhaustive_enumeration(generated):
    verdict, found, sections = brute_force(generated.text)
    truth = generated.truth
    assert (verdict, found, sections) == (truth.verdict, truth.global_sections, truth.sections)


@pytest.mark.parametrize("generated", SMALL, ids=lambda g: g.name)
def test_truth_matches_obstructions(generated):
    support = parse_scenario(generated.text).support_model()
    for ring in (Ring.Z2, Ring.Z):
        results = all_obstructions(support, ring)
        assert len(results) == generated.truth.sections
        assert sum(not r.vanishes for r in results.values()) == generated.truth.non_vanishing


def test_ghz4_truth_by_enumeration():
    generated = families.ghz(4)
    assert brute_force(generated.text) == (families.STRONGLY_CONTEXTUAL, 0, 64)


def test_ring_global_sections_by_enumeration():
    for k in (3, 4, 5, 6):
        assert brute_force(families.ring_cover(k).text)[1] == families.ring_global_sections(k)


@pytest.mark.parametrize("seed", range(5))
def test_random_cover_shape(seed):
    doc = json.loads(families.random_cover(11, random.Random(seed)).text)
    contexts = [set(ctx) for ctx in doc["contexts"]]
    assert len(contexts) == 11 and all(len(ctx) == 4 for ctx in contexts)
    assert all(sum(m in ctx for ctx in contexts) == 2 for m in doc["measurements"])
    assert all(len(a & b) <= 1 for i, a in enumerate(contexts) for b in contexts[:i])
    first_seen = list(dict.fromkeys(m for ctx in doc["contexts"] for m in ctx))
    assert doc["measurements"] == first_seen == sorted(first_seen)


def test_inputs_depend_only_on_seed():
    for workload in ("parity", "onehot"):
        first = run.inputs(workload, 7, corpus=None)
        assert first == run.inputs(workload, 7, corpus=None)
    assert run.inputs("onehot", 7, None) != run.inputs("onehot", 8, None)


def test_benchmark_json_lists_the_reported_metrics():
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in config["end_to_end"]}
    assert end_to_end == run.UNITS
    per_layer = {m["name"]: m["unit"] for m in config["per_layer"]}
    expected = [metric for metric, _, _ in run.SPAN_METRICS]
    expected += [f"share.{layer}" for layer in run.LAYERS[1:]]
    expected += ["documents.parse_scenario.s", "trace.overhead_s"]
    assert set(per_layer) == set(expected)
    assert all(per_layer[name] == run.unit_of(name) for name in per_layer)
