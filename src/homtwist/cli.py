"""Command line interface.

Subcommands:
    homtwist check <file.json>            run a manifest's tasks
    homtwist table <file.json> <name>     print an algebra's multiplication table
    homtwist paper [--filter S]           run the acceptance suite

Exit codes: 0 success, 1 expectation failure, 2 parse error, 3 semantic error.

Each command loads only the layers it runs: the acceptance suite, and with it
the U_q(sl2) and formal-exponent layers, is imported inside ``paper``.
``check`` and ``table`` never compile the suite, and compile the U_q layers
only for a manifest's ``uq_setup`` gallery object.
"""

import argparse
import os
import sys

from .errors import HomTwistError, ManifestError, ManifestSyntaxError
from .manifest import EXIT_SEMANTIC, EXIT_SYNTAX, parse_manifest, run, table


def _load(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line, col = head.count(b"\n") + 1, len(head) - head.rfind(b"\n")
        raise ManifestSyntaxError("invalid UTF-8", line, col) from exc
    return parse_manifest(text)


def _emit(text):
    """Print `text`, or drop it and all later output once the reader has closed stdout."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="homtwist",
        description="Exact checks and constructions for Hom-associative structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a manifest's tasks")
    p_check.add_argument("file")

    p_table = sub.add_parser("table", help="print an algebra multiplication table")
    p_table.add_argument("file")
    p_table.add_argument("name")

    p_paper = sub.add_parser("paper", help="run the built-in acceptance suite")
    p_paper.add_argument("--filter", default=None, help="only criteria containing this substring")

    args = parser.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        # exact arithmetic on short inputs can print integers of any length
        sys.set_int_max_str_digits(0)

    if args.command == "paper":
        from .suite import paper_suite, selected_criteria

        if not selected_criteria(args.filter):
            print(f"no criterion matches --filter {args.filter!r}", file=sys.stderr)
            return EXIT_SEMANTIC
        return paper_suite(filter_substr=args.filter, out=_emit)

    try:
        manifest = _load(args.file)
    except ManifestSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except HomTwistError as exc:
        print(f"semantic error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC

    if args.command == "check":
        code, report = run(manifest)
        _emit(report)
        return code

    try:
        _emit(table(manifest, args.name))
    except ManifestError as exc:
        print(f"semantic error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    return 0


if __name__ == "__main__":
    sys.exit(main())
