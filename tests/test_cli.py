"""The command-line front end: commands, exit codes, and output shape.

Core claims:
    - exit codes: 0 analysis, 1 usage, 2 invalid/signalling model (also a
      --section with an unknown outcome or the wrong arity, in the document
      parser's words, and a --context out of range), 3 a
      failed re-check (also of the oracle's proof sections, and an oracle
      or obstruction disagreement), printed on one line, 4 out of memory
      or past the recursion limit (classify and report on a one-hot ring of
      200 contexts under a lowered limit), on one line, with no traceback
    - classify prints the verdict with the global-section count, exact past
      sys.maxsize: 92585104325562912980002 on the ring of 60 one-hot
      4-sets, in under a second
    - one context of 40 measurements with one support section validates,
      classifies and reports (--ring both --json) in under a second
    - the text report draws the support as a 0/1 table of E(C)'s sections
      up to MAX_TABLE_COLUMNS of them (one context of 8 binary
      measurements), and past that lists each context's support on one line
      (9 and 40 measurements, the latter in under a second)
    - `examples run ghz --ring z2` reports 16/16 non-vanishing
    - `obstruction --ring both` runs the search at most once for both
      rings, and only once a section vanishes mod 2: never for the PR box
      or GHZ, once for Hardy, with --all or one section
    - the Hardy obstruction witness prints a -1 term
    - --json output is byte-deterministic and reparses to the built report
    - the Peres-Mermin report carries the 24/24 and gcd lines
    - `examples run <name> --ring both --json --witness` prints, byte for
      byte, the golden output in tests/golden/<name>.json, and
      `obstruction <file> --all --witness` the one in
      tests/golden/<name>.obstruction.txt
    - `report tests/golden/fano.scenario.json --ring both --json --witness`
      (the one-hot Fano plane, lines {i, i+1, i+3} mod 7, whose 21 Z
      certificates all come from the Hermite form) prints, byte for byte,
      tests/golden/fano.json, and `obstruction` on it `--all --witness`,
      with the Hermite reasons and their pivot columns,
      tests/golden/fano.obstruction.txt
    - in the golden JSON, every Z result whose Z/2 result does not vanish
      carries the halved Z/2 certificate: the same rows, each value 1/2
      where the Z/2 value is 1
    - every certificate of every golden report re-checks from the report
      alone: each equation's row of delta^0 rebuilt from `contexts`,
      `support` and `equations`, the base block dropped, and the dense
      reference check run; dropping one row of a certificate fails it
    - a distribution document is checked for no-signalling exactly once,
      however many times build_report or `report` reads its support, and a
      signalling one raises the same SignallingError as support_of
    - emit_report(r, True) is byte-identical to json.dumps(r, indent=2) plus
      a newline for every report of the bundled models and of the generated
      GHZ-3, GHZ-4, chain16, ring11 and cover11, with and without
      witnesses; the text reparses to the report, and with witnesses every
      certificate in it re-checks from the text alone, as the goldens' do
      (without, it holds no certificate and no equation list)
    - a list of strings is escaped item by item exactly when some item needs
      an escape, and is otherwise written as it is: for every code point up
      to 127, é, U+2028 and a lone surrogate, alone, three times and beside
      "0,1", byte-identically to json.dumps
    - results that share a proof share its payload: on ring11 and GHZ-4,
      build_report holds one witness or certificate object per distinct
      proof object, each equal to a freshly built one, and the text report
      and `obstruction --all --witness` format each distinct witness once;
      the JSON writer copies a container met again at the same indent, and
      writes it anew at another (shared subtrees in the hypothesis trees)
    - every result of one all_obstructions call is a view on the
      document's model, whose system.equations are the (i, j, section) of
      its overlap table, and a report with witnesses (schema 2) writes
      one top-level equation list, a row per row of the overlap table,
      which the certificates of both rings index
"""

import json
import random
import runpy
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import SignallingError, cli as cli_module, model as model_module
from contextuality import report as report_module
from contextuality import extendability as extendability_module
from contextuality.cli import main
from contextuality.cohomology import Ring, _obstructions, all_obstructions
from contextuality.corpus import EXAMPLE_NAMES, example_text
from contextuality.documents import parse_scenario
from contextuality.linalg import Certificate
from contextuality.report import (
    MAX_TABLE_COLUMNS,
    RING_ORDER,
    _certificate_payload,
    build_report,
    emit_report,
    format_witness,
    witness_payload,
)

import helpers


@pytest.fixture()
def corpus_file(tmp_path):
    def materialize(name):
        path = tmp_path / f"{name}.json"
        path.write_text(example_text(name), encoding="utf-8")
        return str(path)

    return materialize


def test_usage_errors():
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["examples", "run", "not-a-model"]) == 1
    assert main(["examples", "show"]) == 1


def test_context_and_section_must_come_together(corpus_file, capsys):
    for flags in (
        ["--context", "0"],
        ["--section", "0,0"],
        ["--all", "--context", "0", "--section", "0,0"],
    ):
        assert main(["obstruction", corpus_file("prbox"), *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        usage, reason = err.splitlines()[0], err.splitlines()[-1]
        assert usage.startswith("usage: contextuality obstruction"), flags
        assert reason.startswith("contextuality obstruction: error: --"), flags


@pytest.mark.parametrize(
    "context, section, message",
    [
        ("0", "0,x", "--section: unknown outcome(s) ['x'] in section '0,x'"),
        ("0", "0,0,0", "--section: section '0,0,0' has 3 outcomes, context has 2"),
        ("4", "0,0", "--context: no context with index 4"),
    ],
)
def test_a_bad_section_flag_is_a_model_error(corpus_file, capsys, context, section, message):
    flags = ["--context", context, "--section", section]
    assert main(["obstruction", corpus_file("prbox"), *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_examples_without_a_name_says_why(capsys):
    assert main(["examples", "show"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: contextuality examples")
    assert err.splitlines()[-1] == "contextuality examples: error: show needs an example name"


def test_missing_file_is_a_model_error(capsys):
    assert main(["validate", "/nonexistent/path.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_invalid_document_lists_errors(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x"}', encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "missing key" in err


def test_validate_ok(corpus_file, capsys):
    assert main(["validate", corpus_file("ghz")]) == 0
    assert "valid support model" in capsys.readouterr().out


def test_signalling_distribution_rejected(tmp_path, capsys):
    document = {
        "name": "signal",
        "measurements": ["a", "b", "b'"],
        "outcomes": ["0", "1"],
        "contexts": [["a", "b"], ["a", "b'"]],
        "model": {
            "distribution": [
                {"0,0": "1"},
                {"1,0": "1"},
            ]
        },
    }
    path = tmp_path / "signal.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    for command in (["validate"], ["classify"], ["report"]):
        assert main(command + [str(path)]) == 2
    assert "signalling" in capsys.readouterr().err


def test_classify_prbox(corpus_file, capsys):
    assert main(["classify", corpus_file("prbox")]) == 0
    assert capsys.readouterr().out.strip() == "strongly contextual; 0 global sections"


def test_classify_hardy(corpus_file, capsys):
    assert main(["classify", corpus_file("hardy")]) == 0
    assert capsys.readouterr().out.strip() == "contextual; 5 global sections"


def test_classify_prints_an_exact_count_past_maxsize(tmp_path, capsys):
    path = tmp_path / "ring60.json"
    path.write_text(json.dumps(helpers.ring_cover_document(60)), encoding="utf-8")
    start = perf_counter()
    assert main(["classify", str(path)]) == 0
    assert perf_counter() - start < 1
    out = capsys.readouterr().out
    assert out == "non contextual possibilistic; 92585104325562912980002 global sections\n"


def test_a_forty_measurement_context_with_one_section(tmp_path, capsys):
    path = tmp_path / "one-section40.json"
    path.write_text(json.dumps(helpers.one_section_document(40)), encoding="utf-8")
    start = perf_counter()
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "one-section40: valid support model\n"
    assert main(["classify", str(path)]) == 0
    assert capsys.readouterr().out == "non contextual possibilistic; 1 global section\n"
    assert main(["report", str(path), "--ring", "both", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert perf_counter() - start < 1
    zeros = ",".join("0" * 40)
    assert report["classification"]["global_sections"] == [zeros]
    for ring in ("z2", "z"):
        obstructions = report["obstructions"][ring]
        assert (obstructions["total"], obstructions["vanishing"]) == (1, 1)
        assert obstructions["results"] == [{"context": 0, "section": zeros, "vanishes": True}]


@pytest.mark.parametrize("width", [8, 9, 40])
def test_a_support_table_past_its_column_cap_is_listed_per_context(width, tmp_path, capsys):
    path = tmp_path / "one-section.json"
    document = helpers.one_section_document(width)
    path.write_text(json.dumps(document), encoding="utf-8")
    start = perf_counter()
    assert main(["report", str(path), "--ring", "both"]) == 0
    assert perf_counter() - start < 1
    lines = capsys.readouterr().out.splitlines()
    support = lines[lines.index("support:") + 1 :][:2]
    label = f"[0] {' '.join(document['measurements'])}"
    zeros = ",".join("0" * width)
    if 2**width <= MAX_TABLE_COLUMNS:  # a header, then one 0/1 column per section of E(C)
        columns = [",".join(v) for v in product("01", repeat=width)]
        assert support[0].split() == columns
        assert support[1].split() == [*label.split(), "1"] + ["0"] * (len(columns) - 1)
    else:
        assert support[0] == f"  {label}: {zeros}"
        assert support[1].startswith("classification: non contextual possibilistic; 1 global")


def test_obstruction_single_section_with_witness(corpus_file, capsys):
    code = main(
        [
            "obstruction",
            corpus_file("hardy"),
            "--context",
            "0",
            "--section",
            "0,0",
            "--ring",
            "z",
            "--witness",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "vanishes over Z" in out
    assert "- 1*(" in out  # the witness needs a negative term


def test_obstruction_all_sections_summary(corpus_file, capsys):
    assert main(["obstruction", corpus_file("prbox"), "--ring", "z2"]) == 0
    out = capsys.readouterr().out
    assert "8/8 non-vanishing over Z/2" in out


@pytest.mark.parametrize(
    "name, argv, searches",
    [
        ("prbox", ["--all"], 0),  # all-vs-nothing: nothing vanishes mod 2
        ("ghz", ["--all"], 0),
        ("hardy", ["--all"], 1),
        ("hardy", ["--context", "0", "--section", "0,0"], 1),
    ],
)
def test_obstruction_searches_at_most_once_for_both_rings(
    name, argv, searches, corpus_file, capsys, monkeypatch
):
    calls = []
    search = extendability_module._search

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(extendability_module, "_search", counted)
    assert main(["obstruction", corpus_file(name), *argv, "--ring", "both"]) == 0
    assert len(calls) == searches


def test_examples_list_and_show(capsys):
    assert main(["examples", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("hardy", "prbox", "ghz", "triangle", "ks18", "peres-mermin"):
        assert name in out
    assert main(["examples", "show", "triangle"]) == 0
    shown = capsys.readouterr().out
    assert json.loads(shown)["name"] == "triangle"


def test_examples_run_ghz_mod2(capsys):
    assert main(["examples", "run", "ghz", "--ring", "z2"]) == 0
    out = capsys.readouterr().out
    assert "obstructions over Z/2: 16/16 non-vanishing" in out
    assert "strongly contextual" in out


def test_report_hardy_flags_false_positive(corpus_file, capsys):
    assert main(["report", corpus_file("hardy"), "--ring", "z"]) == 0
    out = capsys.readouterr().out
    assert "false positives over Z: context 0 section 0,0" in out
    assert "strong-contextuality false positive: no" in out


def test_report_peres_mermin_lines(capsys):
    assert main(["examples", "run", "peres-mermin"]) == 0
    out = capsys.readouterr().out
    assert "obstructions over Z/2: 24/24 non-vanishing" in out
    assert "obstructions over Z: 24/24 non-vanishing" in out
    assert "gcd 2 divides 6 contexts: yes" in out
    assert "strongly contextual" in out


def test_json_report_deterministic_and_reparsable(corpus_file, capsys):
    path = corpus_file("hardy")
    assert main(["report", path, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["report", path, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second

    from contextuality import load_example

    built = build_report(load_example("hardy"), rings=RING_ORDER)
    assert json.loads(first) == built
    assert json.loads(emit_report(built, as_json=True)) == built


def test_report_witness_payload_round_trips(capsys):
    assert main(["examples", "run", "hardy", "--ring", "z", "--json", "--witness"]) == 0
    data = json.loads(capsys.readouterr().out)
    entries = data["obstructions"]["z"]["results"]
    vanishing = [e for e in entries if e["vanishes"]]
    assert vanishing and all("witness" in e for e in vanishing)
    certificates = [e for e in entries if not e["vanishes"]]
    assert certificates == []  # every Hardy obstruction vanishes over Z


def test_certificate_payload_present_for_non_vanishing(capsys):
    assert main(["examples", "run", "triangle", "--ring", "z", "--json", "--witness"]) == 0
    data = json.loads(capsys.readouterr().out)
    entries = data["obstructions"]["z"]["results"]
    assert entries and all("certificate" in e for e in entries)
    first = entries[0]["certificate"]
    assert data["schema"] == 2 and data["equations"]
    assert first["rows"] and len(first["values"]) == len(first["rows"])
    assert first["rows"] == sorted(set(first["rows"]))
    assert 0 <= first["rows"][0] and first["rows"][-1] < len(data["equations"])
    assert all(Fraction(v) for v in first["values"])


def test_text_report_is_deterministic(capsys):
    assert main(["examples", "run", "ks18"]) == 0
    first = capsys.readouterr().out
    assert main(["examples", "run", "ks18"]) == 0
    assert capsys.readouterr().out == first


def test_internal_verification_failure_maps_to_exit_3(corpus_file, monkeypatch, capsys):
    from contextuality import VerificationError
    import contextuality.cli as cli

    def broken(*args, **kwargs):
        raise VerificationError("synthetic failure")

    monkeypatch.setattr(cli, "classify", broken)
    assert main(["classify", corpus_file("prbox")]) == 3
    assert "internal verification failure" in capsys.readouterr().err


def test_oracle_proof_failures_map_to_exit_3(corpus_file, monkeypatch, capsys):
    from contextuality import analysis, extendability

    real = extendability._proofs
    monkeypatch.setattr(extendability, "_proofs", lambda *args: real(*args)[1:])
    assert main(["classify", corpus_file("hardy")]) == 3
    err = capsys.readouterr().err
    assert err == (
        "internal verification failure: "
        "proof sections do not cover exactly the extendable rows\n"
    )
    monkeypatch.undo()

    # A pinned count that is not 0 is an oracle disagreement, and a witness
    # that fails its re-check an obstruction disagreement, found while
    # building the report.
    model = parse_scenario(example_text("ks-false-positive")).support_model()
    index, section = analysis.false_positives(model, RING_ORDER[0]).sections[0]
    classify = analysis.classify
    monkeypatch.setattr(analysis, "classify", lambda searched: replace(classify(searched), count=1))
    assert main(["report", corpus_file("ks-false-positive")]) == 3
    err = capsys.readouterr().err
    assert err == (
        f"internal verification failure: oracle disagreement at context {index}, {section}\n"
    )
    monkeypatch.undo()
    monkeypatch.setattr(analysis, "verify_witness", lambda *args: False)
    assert main(["report", corpus_file("ks-false-positive")]) == 3
    err = capsys.readouterr().err
    assert err == (
        f"internal verification failure: obstruction disagreement at context {index}, {section}\n"
    )


def test_running_out_of_memory_maps_to_exit_4(corpus_file, monkeypatch, capsys):
    import contextuality.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "build_report", exhausted)
    assert main(["report", corpus_file("prbox"), "--ring", "z2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: the model is too large for this process\n"


def test_a_search_past_the_recursion_limit_maps_to_exit_4(tmp_path, capsys):
    path = tmp_path / "ring200.json"  # one recursive call per context in the oracle's search
    path.write_text(json.dumps(helpers.ring_cover_document(200)))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        codes = [main([command, str(path)]) for command in ("classify", "report")]
    finally:
        sys.setrecursionlimit(limit)
    assert codes == [4, 4]
    captured = capsys.readouterr()
    assert captured.out == ""
    line = "error: recursion limit reached: the model is too large for this process\n"
    assert captured.err == 2 * line


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_examples_run_matches_golden_output(name, capsys):
    golden = Path(__file__).parent / "golden" / f"{name}.json"
    assert main(["examples", "run", name, "--ring", "both", "--json", "--witness"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_obstruction_all_matches_golden_output(name, corpus_file, capsys):
    golden = Path(__file__).parent / "golden" / f"{name}.obstruction.txt"
    assert main(["obstruction", corpus_file(name), "--all", "--witness"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()


def test_fano_plane_obstructions_match_golden_output(capsys):
    golden = Path(__file__).parent / "golden"
    assert main(["obstruction", str(golden / "fano.scenario.json"), "--all", "--witness"]) == 0
    expected = (golden / "fano.obstruction.txt").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


def test_fano_plane_report_matches_golden_output(capsys):
    golden = Path(__file__).parent / "golden"
    document = str(golden / "fano.scenario.json")
    assert main(["report", document, "--ring", "both", "--json", "--witness"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (golden / "fano.json").read_bytes()


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_golden_z_certificates_are_halved_z2_certificates(name):
    report = json.loads((Path(__file__).parent / "golden" / f"{name}.json").read_text())
    z2, z = (report["obstructions"][ring]["results"] for ring in ("z2", "z"))
    for mod2, over_z in zip(z2, z):
        assert (mod2["context"], mod2["section"]) == (over_z["context"], over_z["section"])
        if mod2["vanishes"]:
            continue
        assert not over_z["vanishes"]
        assert set(mod2["certificate"]["values"]) == {"1"}
        expected = dict(
            mod2["certificate"],
            reason="Z/2 certificate halved: y.A even, y.b odd",
            values=["1/2"] * len(mod2["certificate"]["rows"]),
        )
        assert over_z["certificate"] == expected


def _coboundary_from_report(report: dict):
    """delta^0 from the report alone: its columns (context, section), and per
    equation its dense row, +1 on each section of `first` restricting to the
    equation's section and -1 on each of `second`'s."""
    order = {m: k for k, m in enumerate(report["measurements"])}
    columns = [(c, s) for c, support in enumerate(report["support"]) for s in support]
    rows = []
    for equation in report["equations"]:
        first, second = (report["contexts"][equation[side]] for side in ("first", "second"))
        carrier = sorted(set(first) & set(second), key=order.__getitem__)
        row = dict.fromkeys(columns, 0)
        for index, members, sign in ((equation["first"], first, 1), (equation["second"], second, -1)):
            at = [members.index(m) for m in carrier]
            for s in report["support"][index]:
                values = s.split(",")
                if ",".join(values[p] for p in at) == equation["section"]:
                    row[index, s] += sign
        rows.append(list(row.values()))
    return columns, rows


def _certificate_from_report(ring: Ring, payload: dict, length: int) -> Certificate:
    parse = int if ring is Ring.Z2 else Fraction
    values = [parse(v) for v in payload["values"]]
    return Certificate(ring, payload["rows"], values, length, payload["reason"])


def _recheck_certificates_from_the_report_alone(report: dict) -> None:
    """Re-check every certificate of a report (with witnesses) against its
    system built from the report alone: delta^0's rows, built once, the base
    block dropped, and minus the base section's column as the right-hand
    side, by the dense reference check; dropping one row of a certificate
    must fail it."""
    columns, rows = _coboundary_from_report(report)
    checked = 0
    for ring in RING_ORDER:
        for entry in report["obstructions"][ring.value]["results"]:
            if entry["vanishes"]:
                continue
            base, t = entry["context"], columns.index((entry["context"], entry["section"]))
            matrix = [[a for (c, _), a in zip(columns, row) if c != base] for row in rows]
            rhs = [-row[t] for row in rows]
            payload = entry["certificate"]
            certificate = _certificate_from_report(ring, payload, len(rows))
            assert helpers.reference_check_certificate(matrix, rhs, certificate)
            flipped = dict(payload, rows=payload["rows"][1:], values=payload["values"][1:])
            mutant = _certificate_from_report(ring, flipped, len(rows))
            assert not helpers.reference_check_certificate(matrix, rhs, mutant)
            checked += 1
    non_vanishing = sum(
        data["total"] - data["vanishing"] for data in report["obstructions"].values()
    )
    assert checked == non_vanishing


@pytest.mark.parametrize("name", [*EXAMPLE_NAMES, "fano"])
def test_golden_certificates_recheck_from_the_report_alone(name):
    report = json.loads((Path(__file__).parent / "golden" / f"{name}.json").read_text())
    _recheck_certificates_from_the_report_alone(report)


def _ghz3_distribution_text():
    document = json.loads(example_text("ghz"))
    supports = document["model"].pop("support")
    document["model"]["distribution"] = [{s: "1/4" for s in support} for support in supports]
    return json.dumps(document)


def test_build_report_checks_no_signalling_once(monkeypatch, tmp_path, capsys):
    calls = []
    check = model_module.check_no_signalling

    def counted(model):
        calls.append(model)
        return check(model)

    # Every module that might call it, under the name it is bound to.
    for module in (model_module, report_module):
        monkeypatch.setattr(module, "check_no_signalling", counted, raising=False)
    document = parse_scenario(_ghz3_distribution_text())
    report = build_report(document)
    assert len(calls) == 1
    assert report["no_signalling"] == {"holds": True, "violations": []}
    assert list(report)[list(report).index("no_signalling") + 1] == "support"
    # The document keeps its support: a second report checks nothing again.
    assert build_report(document) == report
    assert len(calls) == 1
    # `report` on a file reads the support twice (the CLI's own consistency
    # check, then build_report), from one parsed document.
    path = tmp_path / "ghz3-distribution.json"
    path.write_text(_ghz3_distribution_text(), encoding="utf-8")
    calls.clear()
    assert main(["report", str(path)]) == 0
    assert len(calls) == 1
    assert "ghz" in capsys.readouterr().out


def test_build_report_rejects_signalling_distribution():
    document = parse_scenario(
        json.dumps(
            {
                "name": "signal",
                "measurements": ["a", "b", "b'"],
                "outcomes": ["0", "1"],
                "contexts": [["a", "b"], ["a", "b'"]],
                "model": {"distribution": [{"0,0": "1"}, {"1,0": "1"}]},
            }
        )
    )
    with pytest.raises(SignallingError, match=r"^model is signalling on 1 context pair\(s\)$"):
        build_report(document)


def _generated_texts():
    """GHZ-3, GHZ-4, chain16, ring11 and cover11 from the benchmark's
    generators: their documents' text by name."""
    families = runpy.run_path(str(Path(__file__).parents[1] / "benchmarks" / "families.py"))
    generated = [
        families["ghz"](3),
        families["ghz"](4),
        families["parity_chain"](16, 5),
        families["ring_cover"](11),
        families["random_cover"](11, random.Random(1)),
    ]
    return {g.name: g.text for g in generated}


GENERATED_TEXTS = _generated_texts()
GENERATED = {name: parse_scenario(text) for name, text in GENERATED_TEXTS.items()}


@pytest.mark.parametrize("witnesses", [False, True])
@pytest.mark.parametrize("name", [*EXAMPLE_NAMES, *GENERATED])
def test_json_emission_is_byte_identical_to_json_dumps(name, witnesses):
    document = GENERATED[name] if name in GENERATED else parse_scenario(example_text(name))
    report = build_report(document, include_witnesses=witnesses)
    text = emit_report(report, True)
    assert text == json.dumps(report, indent=2) + "\n"
    parsed = json.loads(text)
    assert parsed == report
    if witnesses:
        _recheck_certificates_from_the_report_alone(parsed)
    else:
        entries = [e for data in parsed["obstructions"].values() for e in data["results"]]
        assert "equations" not in parsed and not any("certificate" in e for e in entries)


# One alphabet per string, and per list of strings, so that a list needs one
# kind of escape or none: printable ASCII (none), non-ASCII and non-BMP
# letters, DEL, control characters, quotes, backslashes, lone surrogates
# (outcome labels pass through `surrogatepass`), or any code point.
_ALPHABETS = [
    st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    *(
        st.sampled_from("a,0" + special)
        for special in ("\xe9\U0001d11e", "\x7f", "\x00\x1f\n", '"', "\\", "\ud800\udfff")
    ),
    st.characters(exclude_categories=()),
]
_JSON_TEXT = st.sampled_from(_ALPHABETS).flatmap(st.text)
_JSON_LEAVES = st.one_of(
    _JSON_TEXT,
    st.integers(),
    st.integers(min_value=-(10**300), max_value=10**300),
    st.sampled_from([0, 1, True, False, None]),
)


def _nested(tree, depth: int, in_lists: bool):
    for _ in range(depth):
        tree = [tree] if in_lists else {"": tree}
    return tree


def _shared(tree, deeper: bool):
    """One object twice: at one depth, or the second time one level deeper,
    where the writer must not copy its first text."""
    return [tree, [tree] if deeper else tree]


_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.sampled_from(_ALPHABETS).flatmap(lambda a: st.lists(st.text(a), max_size=6)),
        st.dictionaries(_JSON_TEXT, children, max_size=6),
        st.builds(_nested, children, st.integers(0, 40), st.booleans()),
        st.builds(_shared, children, st.booleans()),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_JSON_TREES)
def test_json_emission_matches_json_dumps_on_report_shaped_trees(tree):
    assert emit_report(tree, True) == json.dumps(tree, indent=2) + "\n"


def test_a_string_list_is_escaped_item_by_item_exactly_when_an_item_needs_it(monkeypatch):
    written = []
    real = report_module._write_json

    def spied(value, *args):
        written.append(value)
        return real(value, *args)

    monkeypatch.setattr(report_module, "_write_json", spied)
    for code in [*range(128), 0xE9, 0x2028, 0xD800]:
        c = chr(code)
        plain = 0x20 <= code < 0x7F and c not in '"\\'
        for value in ([c], [c * 3], ["0,1", c]):
            for tree in (value, {"global_sections": value}):
                written.clear()
                assert emit_report(tree, True) == json.dumps(tree, indent=2) + "\n", code
                # Items are written one by one only where one needs an escape.
                assert any(type(item) is str for item in written) is not plain, code


@pytest.mark.parametrize(
    "value", [1.5, (1,), {1}, b"x", Fraction(1, 2), Ring.Z, object(), type("Label", (str,), {})("a")]
)
def test_json_emission_refuses_values_a_report_never_holds(value):
    for tree in (value, [value], ["a", value], {"key": [{"key": value}]}):
        with pytest.raises(TypeError, match=type(value).__name__):
            emit_report(tree, True)


@pytest.mark.parametrize("key", [1, None, (1,), Fraction(1, 2)])
def test_json_emission_refuses_keys_other_than_strings(key):
    with pytest.raises(TypeError, match=type(key).__name__):
        emit_report({"key": {key: 1}}, True)


@pytest.mark.parametrize("name", ["ring11", "ghz4"])
def test_report_builds_and_renders_each_shared_proof_once(name, tmp_path, monkeypatch, capsys):
    document = GENERATED[name]
    verdicts = _obstructions(document.support_model(), RING_ORDER)
    report = build_report(document, include_witnesses=True)
    proofs, payloads = [], []
    for ring, results in verdicts.items():
        entries = report["obstructions"][ring.value]["results"]
        for result, entry in zip(results.values(), entries, strict=True):
            if result.vanishes:
                proof, payload = result.witness, entry["witness"]
                assert payload == witness_payload(result)
            else:
                proof, payload = result.certificate, entry["certificate"]
                assert payload == _certificate_payload(result)
            proofs.append(id(proof))
            payloads.append(id(payload))
    # One payload object per distinct proof object, and no two proofs share one.
    assert len(set(proofs)) == len(set(payloads)) == len(set(zip(proofs, payloads))) < len(proofs)

    witnesses = {
        id(result.witness)
        for results in verdicts.values()
        for result in results.values()
        if result.vanishes
    }
    calls = []

    def counted(payload):
        calls.append(id(payload))
        return format_witness(payload)

    monkeypatch.setattr(report_module, "format_witness", counted)
    text = emit_report(report, False, include_witnesses=True)
    assert len(calls) == len(witnesses)
    unshared = json.loads(emit_report(report, True))
    assert text == emit_report(unshared, False, include_witnesses=True)

    path = tmp_path / f"{name}.json"
    path.write_text(GENERATED_TEXTS[name], encoding="utf-8")
    calls.clear()
    monkeypatch.setattr(cli_module, "format_witness", counted)
    assert main(["obstruction", str(path), "--all", "--witness"]) == 0
    assert len(calls) == len(witnesses)
    capsys.readouterr()


def test_report_shares_one_equation_list_per_ring():
    document = GENERATED["ghz4"]
    model = document.support_model()
    table = model.overlap_table
    labels = tuple((i, j, s) for i, j, s, _, _ in table)
    for ring in RING_ORDER:
        results = all_obstructions(model, ring).values()
        assert results and all(result.system.model is model for result in results)
        assert all(result.system.equations == labels for result in results)
    report = build_report(document, include_witnesses=True)
    assert report["equations"] == [
        {"first": i, "second": j, "section": s.outcome_string()} for i, j, s, _, _ in table
    ]
    assert list(report).index("equations") + 1 == list(report).index("obstructions")
    for ring in RING_ORDER:
        entries = report["obstructions"][ring.value]["results"]
        assert entries and all("certificate" in e for e in entries)
        assert all(e["certificate"]["rows"][-1] < len(table) for e in entries)
        assert "equations" not in entries[0]["certificate"]
