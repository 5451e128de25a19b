"""Command line front end.

Commands: reduce, simplify, certify, decompose, report.  Exit codes:
0 success, 1 input error, 2 unresolved verdict, 3 certificate
inconsistency.  All output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import datasets, hangul
from .abelianization import abelian_invariants, certificate_line, consistent
from .presentation import (
    DEFAULT_MAX_RELATOR_LEN,
    DEFAULT_MAX_ROUNDS,
    Unresolved,
    _table_rows,
    describe_verdict,
    machine_trace,
    render_trace,
    simplify,
)
from .words import display, parse_word

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_UNRESOLVED = 2
EXIT_INCONSISTENT = 3

TURKISH_REFERENCE_RANK = 22


def _bound(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _add_limit_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-rounds", type=_bound, default=DEFAULT_MAX_ROUNDS)
    sub.add_argument("--max-relator-len", type=_bound, default=DEFAULT_MAX_RELATOR_LEN)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homophonic",
        description="Simplify homophone-relation quotients of free groups.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    inert = "no effect: --machine lines always use ^-1 and no other line prints an inverse"

    reduce_cmd = commands.add_parser("reduce", help="freely reduce a word")
    reduce_cmd.set_defaults(handler=cmd_reduce)
    reduce_cmd.add_argument("alphabet_file", help="dataset file providing the alphabet")
    reduce_cmd.add_argument("word", help="space-separated glyphs, ^-1 marks inverses")
    reduce_cmd.add_argument("--ascii", action="store_true", help="print inverses as ^-1, not ⁻¹")

    simplify_cmd = commands.add_parser("simplify", help="simplify a dataset to a verdict")
    simplify_cmd.set_defaults(handler=cmd_simplify)
    simplify_cmd.add_argument("dataset")
    simplify_cmd.add_argument("--trace", action="store_true")
    simplify_cmd.add_argument("--machine", action="store_true")
    simplify_cmd.add_argument("--ascii", action="store_true", help=inert)
    _add_limit_flags(simplify_cmd)

    certify_cmd = commands.add_parser(
        "certify", help="simplify plus an independent abelianization certificate"
    )
    certify_cmd.set_defaults(handler=cmd_certify)
    certify_cmd.add_argument("dataset")
    certify_cmd.add_argument("--ascii", action="store_true", help="no effect: prints no inverse")
    _add_limit_flags(certify_cmd)

    decompose_cmd = commands.add_parser(
        "decompose", help="flatten Hangul syllables to jamo"
    )
    decompose_cmd.set_defaults(handler=cmd_decompose)
    decompose_cmd.add_argument("text")

    report_cmd = commands.add_parser(
        "report", help="run every bundled corpus and print certificates"
    )
    report_cmd.set_defaults(handler=cmd_report)
    report_cmd.add_argument(
        "directory",
        nargs="?",
        default=None,
        help="directory holding german.hq, korean.hq, turkish.hq (bundled by default)",
    )
    report_cmd.add_argument("--machine", action="store_true")
    report_cmd.add_argument("--ascii", action="store_true", help=inert)
    _add_limit_flags(report_cmd)

    return parser


def cmd_reduce(args: argparse.Namespace) -> int:
    dataset = datasets.load_dataset(args.alphabet_file)
    word = parse_word(dataset.alphabet(), args.word)
    print(display(word, ascii_inverse=args.ascii))
    return EXIT_OK


def _simplified(args: argparse.Namespace, path: str | Path):
    """Load a dataset and simplify its presentation under the limit flags."""
    dataset = datasets.load_dataset(path)
    presentation = datasets.to_presentation(dataset)
    verdict, trace = simplify(
        presentation,
        max_rounds=args.max_rounds,
        max_relator_len=args.max_relator_len,
    )
    return dataset, presentation, verdict, trace


def _exit_code(verdict, invariants=None) -> int:
    if invariants is not None and not consistent(verdict, invariants):
        return EXIT_INCONSISTENT
    return EXIT_UNRESOLVED if isinstance(verdict, Unresolved) else EXIT_OK


def cmd_simplify(args: argparse.Namespace) -> int:
    _, _, verdict, trace = _simplified(args, args.dataset)
    if args.machine:
        for line in machine_trace(trace):
            print(line)
    if args.trace and not args.machine:
        print(render_trace(trace, verdict))
    else:
        print(describe_verdict(verdict, trace))
    return _exit_code(verdict)


def cmd_certify(args: argparse.Namespace) -> int:
    _, presentation, verdict, trace = _simplified(args, args.dataset)
    invariants = abelian_invariants(presentation)
    print(describe_verdict(verdict, trace))
    print(certificate_line(invariants, verdict))
    return _exit_code(verdict, invariants)


def cmd_decompose(args: argparse.Namespace) -> int:
    print("+".join(hangul.decompose_text(args.text)))
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    directory = (
        Path(args.directory) if args.directory else datasets.builtin_data_dir()
    )
    worst = EXIT_OK
    blocks: list[str] = []
    for name in datasets.BUILTIN_LANGUAGES:
        dataset, presentation, verdict, trace = _simplified(args, directory / f"{name}.hq")
        invariants = abelian_invariants(presentation)
        lines = [
            f"== {name} ==",
            f"alphabet size: {len(dataset.glyphs)}",
            f"relations: {len(dataset.records)}",
            describe_verdict(verdict, trace),
            "elimination:",
        ]
        if args.machine:
            lines.extend(machine_trace(trace))
        else:
            lines.extend(_table_rows(trace))
        lines.append(certificate_line(invariants, verdict))
        if name == "turkish":
            computed = invariants.free_rank
            note = (
                "agreement"
                if computed == TURKISH_REFERENCE_RANK
                else "disagreement"
            )
            lines.append(
                f"computed rank: {computed}; "
                f"reference rank: {TURKISH_REFERENCE_RANK} ({note})"
            )
        blocks.append("\n".join(lines))
        worst = max(worst, _exit_code(verdict, invariants))  # codes rise with severity
    print("\n\n".join(blocks))
    return worst


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
        sys.stderr.reconfigure(encoding="utf-8")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its message
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
