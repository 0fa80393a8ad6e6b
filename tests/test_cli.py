"""The command-line front end: commands, exit codes, and output shape.

Core claims:
    - exit codes: 0 analysis, 1 usage, 2 invalid/signalling model
    - classify prints the verdict with the global-section count
    - `examples run ghz --ring z2` reports 16/16 non-vanishing
    - the Hardy obstruction witness prints a -1 term
    - --json output is byte-deterministic and reparses to the built report
    - the Peres-Mermin report carries the 24/24 and gcd lines
    - `examples run <name> --ring both --json --witness` prints, byte for
      byte, the golden output in tests/golden/<name>.json, and
      `obstruction <file> --all --witness` the one in
      tests/golden/<name>.obstruction.txt
    - in the golden JSON, every Z result whose Z/2 result does not vanish
      carries the halved Z/2 certificate over the same equations
    - build_report checks a distribution for no-signalling exactly once,
      and a signalling one raises the same SignallingError as support_of
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from contextuality import SignallingError, model as model_module, report as report_module
from contextuality.cli import main
from contextuality.corpus import EXAMPLE_NAMES, example_text
from contextuality.documents import parse_scenario
from contextuality.report import RING_ORDER, build_report, emit_report


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
    assert first["multipliers"] and first["equations"]


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


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_golden_z_certificates_are_halved_z2_certificates(name):
    report = json.loads((Path(__file__).parent / "golden" / f"{name}.json").read_text())
    z2, z = (report["obstructions"][ring]["results"] for ring in ("z2", "z"))
    for mod2, over_z in zip(z2, z):
        assert (mod2["context"], mod2["section"]) == (over_z["context"], over_z["section"])
        if mod2["vanishes"]:
            continue
        assert not over_z["vanishes"]
        expected = dict(
            mod2["certificate"],
            reason="Z/2 certificate halved: y.A even, y.b odd",
            multipliers=[str(Fraction(m) / 2) for m in mod2["certificate"]["multipliers"]],
        )
        assert over_z["certificate"] == expected


def _ghz3_distribution():
    document = json.loads(example_text("ghz"))
    supports = document["model"].pop("support")
    document["model"]["distribution"] = [{s: "1/4" for s in support} for support in supports]
    return parse_scenario(json.dumps(document))


def test_build_report_checks_no_signalling_once(monkeypatch):
    calls = []
    check = model_module.check_no_signalling

    def counted(model):
        calls.append(model)
        return check(model)

    # Every module that might call it, under the name it is bound to.
    for module in (model_module, report_module):
        monkeypatch.setattr(module, "check_no_signalling", counted, raising=False)
    report = build_report(_ghz3_distribution())
    assert len(calls) == 1
    assert report["no_signalling"] == {"holds": True, "violations": []}
    assert list(report)[list(report).index("no_signalling") + 1] == "support"


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
