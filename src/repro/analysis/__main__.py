"""Entry point: ``python -m repro.analysis [paths...]``.

Also backs the ``repro lint`` CLI subcommand.  Exit status: 0 clean (or
warnings only), 1 error-severity findings, 2 usage error — so the
command gates CI directly while ``severity = "warn"`` rules report
without blocking.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from fnmatch import fnmatch
from pathlib import Path

from repro.analysis.config import load_config
from repro.analysis.engine import all_rule_ids, lint_paths
from repro.analysis.report import render_json, render_sarif, render_text


def build_parser(parser: argparse.ArgumentParser | None = None) -> argparse.ArgumentParser:
    """Populate ``parser`` (or a fresh one) with the lint options."""
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro lint",
            description=(
                "reprolint: repo-specific static analysis "
                "(per-file, whole-program, flow-sensitive and "
                "interprocedural rules)"
            ),
        )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories")
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="RLxxx",
        help="run only these rules (repeatable, comma separated, or a "
        "glob like RL3*)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="RLxxx",
        help="skip these rules (repeatable, comma separated, or a "
        "glob like RL2*)",
    )
    parser.add_argument(
        "--warn-unused-suppressions",
        action="store_true",
        default=None,
        help="report suppression comments no finding needed (RL007); "
        "also configurable as warn-unused-suppressions in "
        "[tool.reprolint]",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the report to FILE instead of stdout "
        "(e.g. the SARIF file CI uploads)",
    )
    return parser


def _split_ids(values: Sequence[str]) -> list[str]:
    ids: list[str] = []
    for value in values:
        ids.extend(part.strip() for part in value.split(",") if part.strip())
    return ids


def _pattern_matches_known(pattern: str, known: set[str]) -> bool:
    """Is a ``--select``/``--ignore`` entry an id or glob that can match?"""
    if pattern in known:
        return True
    if "*" in pattern or "?" in pattern or "[" in pattern:
        return any(fnmatch(rule_id, pattern) for rule_id in known)
    return False


def run_lint(args: argparse.Namespace) -> int:
    """Execute a lint run described by parsed arguments.

    Exit status: 0 clean or warnings only, 1 error findings, 2 usage
    error (unknown rule id, missing path, unwritable output) -- a typo
    in ``--select`` must not silently pass CI.
    """
    select, ignore = _split_ids(args.select), _split_ids(args.ignore)
    known = all_rule_ids()
    unknown = [
        pattern
        for pattern in [*select, *ignore]
        if not _pattern_matches_known(pattern, known)
    ]
    if unknown:
        prefixes = sorted({rule_id[:3] + "*" for rule_id in known})
        sys.stderr.write(
            f"repro lint: unknown rule id(s) or pattern(s): "
            f"{', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))}; "
            f"globs over {', '.join(prefixes)} also work)\n"
        )
        return 2
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        sys.stderr.write(
            f"repro lint: path(s) not found: {', '.join(missing)}\n"
        )
        return 2
    config = load_config().with_overrides(
        select=select,
        ignore=ignore,
        warn_unused_suppressions=args.warn_unused_suppressions,
    )
    findings = lint_paths(args.paths, config)
    if args.format == "json":
        output = render_json(findings)
    elif args.format == "sarif":
        output = render_sarif(findings)
    else:
        output = render_text(findings)
    if args.output is not None:
        try:
            Path(args.output).write_text(output + "\n", encoding="utf-8")
        except OSError as exc:
            sys.stderr.write(f"repro lint: cannot write {args.output}: {exc}\n")
            return 2
    else:
        sys.stdout.write(output + "\n")
    return 1 if any(f.severity == "error" for f in findings) else 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run_lint(args)


if __name__ == "__main__":
    sys.exit(main())
