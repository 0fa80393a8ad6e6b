"""The JSON scenario format: parsing, path-tagged schema errors, and exact
round-trips.

Core claims:
    - every bundled file parses and matches its published support table
    - an unnormalized rational ("2/4") parses to its value
    - structural problems are rejected with the offending path: missing
      keys, cover violations, arity mismatches, bad rationals (decimals, a
      trailing newline, non-ASCII digits), boolean outcomes, distributions
      that do not sum to 1 (reported with the context index, for every table
      without a bad entry, after an earlier table's error too); errors of the
      scenario as a whole (duplicate measurements, bad outcome labels) are
      tagged `scenario:`
    - a key repeated in any JSON object (a section of a table, a top-level
      key) is rejected and named, not overwritten by its last value
    - on bundled documents with keys dropped or replaced by arbitrary JSON,
      table entries replaced, or a non-object top level, the parser raises
      nothing but DocumentError
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    DocumentError,
    load_example,
    parse_scenario,
)
from contextuality.cli import main
from contextuality.corpus import EXAMPLE_NAMES, example_text

PR_TABLE = {
    0: {"0,0", "1,1"},
    1: {"0,0", "1,1"},
    2: {"0,0", "1,1"},
    3: {"0,1", "1,0"},
}


def test_every_bundled_example_parses(corpus):
    assert set(corpus) == set(EXAMPLE_NAMES)
    for name, doc in corpus.items():
        assert doc.name == name


def test_prbox_document_support_matches_table(corpus):
    support = corpus["prbox"].support_model()
    got = {
        i: {s.outcome_string() for s in support.supports[i]}
        for i in range(4)
    }
    assert got == PR_TABLE


def test_prbox_probabilities_parse_exactly(corpus):
    empirical = corpus["prbox"].empirical
    first = empirical.tables[0]
    values = sorted(v for v in first.values() if v)
    assert values == [Fraction(1, 2), Fraction(1, 2)]


def test_unnormalized_rationals_round_trip_by_value():
    text = example_text("prbox").replace('"1/2"', '"2/4"')
    doc = parse_scenario(text)
    assert doc.empirical.tables[0][
        max(doc.empirical.tables[0], key=lambda s: s.values)
    ] == Fraction(1, 2)


def test_missing_and_unknown_keys():
    with pytest.raises(DocumentError, match="missing key 'contexts'"):
        parse_scenario('{"name": "x", "measurements": [], "outcomes": [], "model": {}}')
    with pytest.raises(DocumentError, match="unknown key 'extra'"):
        parse_scenario(example_text("triangle").replace('"name"', '"extra": 1, "name"'))


def test_invalid_json_reported():
    with pytest.raises(DocumentError, match="invalid JSON"):
        parse_scenario("{not json")


def test_cover_violation_reported():
    text = """{
      "name": "gap",
      "measurements": ["A", "B", "C"],
      "outcomes": ["0", "1"],
      "contexts": [["A", "B"]],
      "model": {"support": [["0,0"]]}
    }"""
    with pytest.raises(DocumentError, match="does not reach"):
        parse_scenario(text)


def test_duplicate_context_reported():
    text = example_text("triangle").replace('["B", "C"]', '["A", "B"]')
    with pytest.raises(DocumentError, match="duplicate context"):
        parse_scenario(text)


def test_members_must_follow_measurement_order():
    text = example_text("triangle").replace('["A", "C"]', '["C", "A"]')
    with pytest.raises(DocumentError, match="measurement order"):
        parse_scenario(text)


def test_arity_mismatch_reported():
    text = example_text("triangle").replace('"0,1", "1,0"', '"0,1,1", "1,0"', 1)
    with pytest.raises(DocumentError, match="has 3 outcomes"):
        parse_scenario(text)


def test_unknown_outcome_reported():
    text = example_text("triangle").replace('"0,1", "1,0"', '"0,2", "1,0"', 1)
    with pytest.raises(DocumentError, match="unknown outcome"):
        parse_scenario(text)


def test_decimal_probability_rejected():
    # A decimal, a trailing newline, and a non-ASCII digit (ARABIC-INDIC ONE).
    for bad in ("0.5", "1/2\n", "\u0661/2"):
        text = example_text("prbox").replace('"1/2"', json.dumps(bad), 1)
        with pytest.raises(DocumentError, match=r"distribution\[0\].*bad rational"):
            parse_scenario(text)


def test_boolean_outcomes_rejected():
    # Read as labels, false and true would become the outcomes "False" and
    # "True", which these sections name.
    raw = {
        "name": "flags",
        "measurements": ["a"],
        "outcomes": [False, True],
        "contexts": [["a"]],
        "model": {"support": [["False", "True"]]},
    }
    with pytest.raises(DocumentError, match="^outcomes: expected a list of strings or integers$"):
        parse_scenario(json.dumps(raw))


def _one_measurement_document(measurements, outcomes):
    return json.dumps(
        {
            "name": "tagged",
            "measurements": measurements,
            "outcomes": outcomes,
            "contexts": [["a"]],
            "model": {"support": [["1"]]},
        }
    )


def test_duplicate_measurement_tagged_as_scenario_error():
    with pytest.raises(DocumentError) as caught:
        parse_scenario(_one_measurement_document(["a", "a"], ["0", "1"]))
    assert caught.value.errors == ("scenario: measurement labels must be distinct",)


def test_bad_outcome_label_tagged_as_scenario_error():
    with pytest.raises(DocumentError) as caught:
        parse_scenario(_one_measurement_document(["a"], ["0,1", "1"]))
    assert caught.value.errors == (
        "scenario: bad outcome label '0,1': must be nonempty, no commas",
    )


def test_distribution_sum_checked_with_context_index():
    text = example_text("prbox").replace(
        '{"0,1": "1/2", "1,0": "1/2"}', '{"0,1": "49/100", "1,0": "1/2"}'
    )
    with pytest.raises(DocumentError, match=r"distribution\[3\].*sum to 99/100"):
        parse_scenario(text)


def test_every_table_without_a_bad_entry_is_summed():
    document = json.loads(example_text("prbox"))
    tables = document["model"]["distribution"]
    tables[0]["0,0"] = "1/x"
    tables[1]["0,0"] = "1/4"
    tables[2]["0,0"] = "0.5"
    with pytest.raises(DocumentError) as caught:
        parse_scenario(json.dumps(document))
    assert caught.value.errors == (
        "model.distribution[0]['0,0']: bad rational '1/x' (expected nonnegative p or p/q)",
        "model.distribution[1]: probabilities sum to 3/4, expected 1",
        "model.distribution[2]['0,0']: bad rational '0.5' (expected nonnegative p or p/q)",
    )


def test_model_requires_exactly_one_kind():
    text = example_text("triangle").replace(
        '"support":', '"support2":'
    )
    with pytest.raises(DocumentError, match="exactly one"):
        parse_scenario(text)


def test_duplicate_support_sections_rejected():
    text = example_text("triangle").replace('"0,1", "1,0"', '"0,1", "0,1"', 1)
    with pytest.raises(DocumentError, match="duplicate sections"):
        parse_scenario(text)


def test_repeated_section_key_rejected():
    text = example_text("prbox").replace('"1,1": "1/2"', '"1,1": "1/4", "1,1": "1/4"', 1)
    text = text.replace('"0,0": "1/2"', '"0,0": "1/2", "0,0": "1/4"', 1)
    with pytest.raises(DocumentError) as raised:
        parse_scenario(text)
    assert raised.value.errors == ("duplicate key '0,0'", "duplicate key '1,1'")


def test_repeated_top_level_key_rejected(tmp_path, capsys):
    text = example_text("triangle").replace('"name"', '"name": "other", "name"', 1)
    with pytest.raises(DocumentError, match=r"^duplicate key 'name'$"):
        parse_scenario(text)
    path = tmp_path / "twice-named.json"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: duplicate key 'name'\n")


def test_integer_outcome_labels_are_coerced():
    text = example_text("triangle").replace('["0", "1"]', "[0, 1]")
    doc = parse_scenario(text)
    assert doc.scenario.outcomes == ("0", "1")
    assert doc.support_model().supports == load_example("triangle").support_model().supports


def test_inconsistent_support_document_parses():
    # Overlap consistency is an analysis precondition, not a schema rule.
    text = """{
      "name": "crooked",
      "measurements": ["A", "B", "C"],
      "outcomes": ["0", "1"],
      "contexts": [["A", "B"], ["B", "C"]],
      "model": {"support": [["0,0"], ["1,0"]]}
    }"""
    doc = parse_scenario(text)
    from contextuality import support_violations

    assert support_violations(doc.support_model())


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "0", "1", "a", "0,1", "1/2", "1/0", "-1", "0,0,0"])
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated_documents(draw):
    """A bundled document with one to three mutations: a top-level key
    dropped or replaced by arbitrary JSON, a context or model table (or one
    entry of it) replaced, or the whole document replaced by a non-object."""
    raw = json.loads(example_text(draw(st.sampled_from(EXAMPLE_NAMES))))
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(raw, dict):
            break
        kind = draw(st.sampled_from(["drop", "replace", "context", "table", "entry", "top"]))
        key = draw(st.sampled_from(sorted(raw) or ["name"]))
        model = raw.get("model")
        tables = next(iter(model.values()), None) if isinstance(model, dict) else None
        if kind == "drop":
            raw.pop(key, None)
        elif kind == "replace":
            raw[key] = draw(_JSON)
        elif kind == "context" and isinstance(raw.get("contexts"), list) and raw["contexts"]:
            k = draw(st.integers(0, len(raw["contexts"]) - 1))
            raw["contexts"][k] = draw(_JSON)
        elif kind in ("table", "entry") and isinstance(tables, list) and tables:
            k = draw(st.integers(0, len(tables) - 1))
            table = tables[k]
            if kind == "table" or not table or not isinstance(table, (list, dict)):
                tables[k] = draw(_JSON)
            elif isinstance(table, list):
                table[draw(st.integers(0, len(table) - 1))] = draw(_JSON)
            else:
                entry = draw(st.sampled_from(sorted(table)))
                if draw(st.booleans()):
                    table[entry] = draw(_JSON)
                else:
                    table[draw(st.text(max_size=6))] = table.pop(entry)
        elif kind == "top":
            raw = draw(_JSON.filter(lambda value: not isinstance(value, dict)))
    return json.dumps(raw)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_mutated_documents())
def test_parser_raises_only_document_errors_on_mutated_documents(text):
    try:
        parse_scenario(text)
    except DocumentError:
        pass
