"""Command-line front end.

Subcommands: validate, classify, obstruction, report, examples.  Exit
codes: 0 analysis completed, 1 usage error, 2 invalid or signalling model,
3 internal verification failure (a witness, certificate or proof section
failed its re-check, or the oracle and the obstructions disagree, which
must never happen), 4 resource limit reached (the process ran out of
memory, or the search nested deeper than Python's recursion limit).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NoReturn, Sequence

from .cohomology import Ring, VerificationError, _obstructions
from .corpus import EXAMPLE_NAMES, example_text, load_example
from .documents import DocumentError, ScenarioDocument, parse_scenario, parse_section
from .extendability import classify
from .model import SignallingError, require_overlap_consistent
from .report import RING_ORDER, build_report, emit_report, format_witness, witness_payload
from .scenario import Section

USAGE_ERROR = 1
MODEL_ERROR = 2
VERIFICATION_FAILURE = 3
RESOURCE_LIMIT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: ANN001  (argparse override)
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _usage_error(args, reason: str) -> NoReturn:  # noqa: ANN001
    """Print the subcommand's usage line and `reason` to stderr; exit 1."""
    args.parser.print_usage(sys.stderr)
    print(f"{args.parser.prog}: error: {reason}", file=sys.stderr)
    raise SystemExit(USAGE_ERROR)


def _rings(flag: str) -> tuple[Ring, ...]:
    if flag == "both":
        return RING_ORDER
    return (Ring(flag),)


def _load_document(path: str) -> ScenarioDocument:
    return parse_scenario(Path(path).read_text("utf-8"))


def _cmd_validate(args) -> int:  # noqa: ANN001
    document = _load_document(args.file)
    require_overlap_consistent(document.support_model())
    print(f"{document.name}: valid {document.kind} model")
    return 0


def _cmd_classify(args) -> int:  # noqa: ANN001
    document = _load_document(args.file)
    support = require_overlap_consistent(document.support_model())
    result = classify(support)
    count = result.count
    print(
        f"{result.verdict.value.replace('_', ' ')}; "
        f"{count} global section{'s' if count != 1 else ''}"
    )
    return 0


def _parse_section_flag(document: ScenarioDocument, context: int, text: str) -> Section:
    scenario = document.scenario
    if not 0 <= context < len(scenario.contexts):
        raise DocumentError([f"--context: no context with index {context}"])
    errors: list[str] = []
    section = parse_section(text, scenario, scenario.contexts[context].members, "--section", errors)
    if section is None:
        raise DocumentError(errors)
    return section


def _print_obstruction(result, show_witness: bool, rendered: dict) -> None:  # noqa: ANN001
    """Print one verdict; `rendered` holds each witness's lines by the id()
    of its family, so results that share a family format it once."""
    ring_name = result.ring.describe()
    where = f"context {result.base} section {result.section.outcome_string()}"
    if result.vanishes:
        print(f"{where}: vanishes over {ring_name}")
        if show_witness:
            witness = id(result.witness)
            if witness not in rendered:
                rendered[witness] = format_witness(witness_payload(result))
            for line in rendered[witness]:
                print(line)
    else:
        print(f"{where}: does not vanish over {ring_name}")
        if show_witness:
            assert result.certificate is not None
            print(f"    certificate: {result.certificate.reason}")


def _cmd_obstruction(args) -> int:  # noqa: ANN001
    document = _load_document(args.file)
    support = require_overlap_consistent(document.support_model())
    rings = _rings(args.ring)
    if (args.context is None) != (args.section is None):
        _usage_error(args, "--context and --section must be given together")
    if args.all and args.context is not None:
        _usage_error(args, "--all cannot be combined with --context")

    # One pass for both rings: the search runs at most once.  The loops hold
    # every result, so the witness ids that `rendered` keys by stay unique.
    rendered: dict[int, list[str]] = {}
    if args.context is not None:
        key = (args.context, _parse_section_flag(document, args.context, args.section))
        for results in _obstructions(support, rings, only=key).values():
            _print_obstruction(results[key], args.witness, rendered)
        return 0

    for ring, results in _obstructions(support, rings).items():
        for result in results.values():
            _print_obstruction(result, args.witness, rendered)
        non_vanishing = sum(1 for result in results.values() if not result.vanishes)
        print(f"{non_vanishing}/{len(results)} non-vanishing over {ring.describe()}")
    return 0


def _run_report(document: ScenarioDocument, ring_flag: str, as_json: bool, witness: bool) -> int:
    require_overlap_consistent(document.support_model())
    report = build_report(document, rings=_rings(ring_flag), include_witnesses=witness)
    sys.stdout.write(emit_report(report, as_json, include_witnesses=witness))
    return 0


def _cmd_report(args) -> int:  # noqa: ANN001
    return _run_report(_load_document(args.file), args.ring, args.json, args.witness)


def _cmd_examples(args) -> int:  # noqa: ANN001
    if args.action == "list":
        for name in EXAMPLE_NAMES:
            print(name)
        return 0
    if args.name is None:
        _usage_error(args, f"{args.action} needs an example name")
    if args.name not in EXAMPLE_NAMES:
        print(
            f"unknown example {args.name!r}; choose from {', '.join(EXAMPLE_NAMES)}",
            file=sys.stderr,
        )
        return USAGE_ERROR
    if args.action == "show":
        sys.stdout.write(example_text(args.name))
        return 0
    return _run_report(load_example(args.name), args.ring, args.json, args.witness)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="contextuality",
        description=(
            "Decide contextuality of empirical models on measurement covers by "
            "global-section search and by exact obstruction computations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a scenario file")
    p_validate.add_argument("file")
    p_validate.set_defaults(handler=_cmd_validate)

    p_classify = sub.add_parser("classify", help="oracle classification of a model")
    p_classify.add_argument("file")
    p_classify.set_defaults(handler=_cmd_classify)

    p_obstruction = sub.add_parser(
        "obstruction", help="obstruction verdicts for one or all support sections"
    )
    p_obstruction.add_argument("file")
    p_obstruction.add_argument("--ring", choices=("z2", "z", "both"), default="both")
    p_obstruction.add_argument("--context", type=int, default=None)
    p_obstruction.add_argument("--section", default=None)
    p_obstruction.add_argument("--all", action="store_true", default=False)
    p_obstruction.add_argument("--witness", action="store_true", default=False)
    p_obstruction.set_defaults(handler=_cmd_obstruction, parser=p_obstruction)

    # The flags of the two commands that print a report.
    rendering = argparse.ArgumentParser(add_help=False)
    rendering.add_argument("--ring", choices=("z2", "z", "both"), default="both")
    rendering.add_argument("--json", action="store_true", default=False)
    rendering.add_argument("--witness", action="store_true", default=False)

    p_report = sub.add_parser("report", parents=[rendering], help="full analysis report")
    p_report.add_argument("file")
    p_report.set_defaults(handler=_cmd_report)

    p_examples = sub.add_parser(
        "examples", parents=[rendering], help="list, show, or analyze bundled models"
    )
    p_examples.add_argument("action", choices=("list", "show", "run"))
    p_examples.add_argument("name", nargs="?", default=None)
    p_examples.set_defaults(handler=_cmd_examples, parser=p_examples)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DocumentError as exc:
        for error in exc.errors:
            print(f"error: {error}", file=sys.stderr)
        return MODEL_ERROR
    except SignallingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for violation in exc.violations[:20]:
            print(f"  {violation}", file=sys.stderr)
        return MODEL_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MODEL_ERROR
    except VerificationError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return VERIFICATION_FAILURE
    except (MemoryError, RecursionError) as exc:
        limit = "out of memory" if isinstance(exc, MemoryError) else "recursion limit reached"
        print(f"error: {limit}: the model is too large for this process", file=sys.stderr)
        return RESOURCE_LIMIT


def entry_point() -> None:
    raise SystemExit(main())
