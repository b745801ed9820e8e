"""Command-line pipeline: ingest instances, run checks, emit bit-exact reports.

Subcommands:

    check    axiom checks on a parsed instance
    outer    exterior value of one target set, with the optimal cover
    extend   tabulate the generated algebra and verify additivity
    example  the exponential interval suite (no input file)
    search   seed-range survey asserting the extension property

Exit codes: 0 all checks passed, 1 at least one check failed, 2 input or
configuration error, 3 internal error (a fault of the program, never a check
result).  Identical inputs and flags produce byte-identical reports in both
formats; the machine format is JSON Lines with a fixed, documented key order
and rationals rendered as "p/q" strings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .cover import outer
from .extension import extend, verify_premeasure
from .instance_io import (
    InstanceSpec,
    ParseError,
    format_rational,
    parse_instance,
    resolve_target,
)
from .intervals import verify_example_axioms
from .quasi import QuasiMeasure, check_axioms
from .report import AxiomReport
from .sets import BudgetExceeded, SubsetMask
from .testkit import search_instances

# Flag values refused with exit 2 before any work starts: (dest, test, message).
_FLAG_RULES = (
    ("max_cover", lambda v: v is None or v > 0, "--max-cover must be positive"),
    ("samples", lambda v: v > 0, "--samples must be positive"),
    ("tol", lambda v: 0 < v < math.inf, "--tol must be positive and finite"),
)


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return format_rational(value)
    return repr(value)


def _check_records(report: AxiomReport) -> list[dict]:
    records = []
    for result in report.results:
        first = result.witnesses[0] if result.witnesses else None
        records.append({
            "record": "check",
            "suite": report.suite,
            "check": result.name,
            "status": "pass" if result.passed else "fail",
            "witnesses": len(result.witnesses),
            "witness": first.render() if first else "",
            "lhs": _format_value(first.lhs) if first else "",
            "rhs": _format_value(first.rhs) if first else "",
            "relation": first.relation if first else "",
            "note": first.note if first else "",
        })
    return records


def _cover_record(kind: str, target: SubsetMask, value: Fraction, chosen: tuple[int, ...],
                  names: Sequence[str]) -> dict:
    """An ``outer`` or ``table`` record: a set, its exterior value and its optimal cover.

    ``names[i]`` is the text of coat member i, formatted once per run.
    """
    return {
        "record": kind,
        "target" if kind == "outer" else "set": str(target),
        "value": format_rational(value),
        "cover": " ".join(names[i] for i in chosen),
        "indices": " ".join(str(i) for i in chosen),
    }


def _emit(records: list[dict], args: argparse.Namespace) -> None:
    if args.output_format == "machine":
        lines = [json.dumps(r, separators=(",", ":")) for r in records]
    else:
        lines = [_text_line(r) for r in records]
    payload = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(payload)


def _text_line(record: dict) -> str:
    kind = record["record"]
    if kind == "check":
        tag = "PASS" if record["status"] == "pass" else "FAIL"
        line = f"[{tag}] {record['suite']}/{record['check']}"
        if record["status"] != "pass":
            line += f": {record['witness']}"
            if record["witnesses"] > 1:
                line += f" (+{record['witnesses'] - 1} more)"
        return line
    if kind in ("outer", "table"):
        _, name, value, cover, indices = record.values()
        return f"{kind} {name} = {value} cover {cover} (indices {indices})"
    if kind == "search":
        return (f"search seeds {record['seeds']}: total {record['total']},"
                f" axioms pass {record['axiom_pass']} / fail {record['axiom_fail']},"
                f" premeasure verified {record['premeasure_verified']},"
                f" additivity failures on failing {record['additivity_failed_on_failing']},"
                f" counterexamples [{record['counterexamples']}]")
    if kind == "summary":
        return f"RESULT {record['suite']}: {record['status']}"
    raise ValueError(f"unknown record kind {kind!r}")


def _load_instance(args: argparse.Namespace) -> tuple[InstanceSpec, QuasiMeasure]:
    data = Path(args.input).read_bytes()
    try:
        document = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("input is not UTF-8", data.count(b"\n", 0, exc.start) + 1) from None
    spec = parse_instance(document)
    return spec, spec.build()[2]


# Each runner returns its records, the suite name and whether every check passed.
_Outcome = tuple[list[dict], str, bool]


def _run_check(args: argparse.Namespace) -> _Outcome:
    _, qm = _load_instance(args)
    k = len(qm.coat)
    report = check_axioms(qm, variant=args.variant, cover_mode=args.cover_mode,
                          max_cover_size=k if args.max_cover is None else min(args.max_cover, k))
    return _check_records(report), report.suite, report.passed


def _run_outer(args: argparse.Namespace) -> _Outcome:
    spec, qm = _load_instance(args)
    target = resolve_target(args.target, spec.names(), qm.ground)
    value, solution = outer(qm, target)
    names = [str(m) for m in qm.coat.members]
    return [_cover_record("outer", target, value, solution.chosen, names)], "outer", True


def _run_extend(args: argparse.Namespace) -> _Outcome:
    _, qm = _load_instance(args)
    table = extend(qm)
    names = [str(m) for m in qm.coat.members]
    records = [_cover_record("table", qm.ground.mask(bits), value, chosen, names)
               for bits, value, chosen in zip(table.algebra.bits, table.values, table.covers)]
    report = verify_premeasure(table)
    return records + _check_records(report), report.suite, report.passed


def _run_example(args: argparse.Namespace) -> _Outcome:
    report = verify_example_axioms(sample_count=args.samples, seed=args.seed, tol=args.tol)
    return _check_records(report), report.suite, report.passed


def _run_search(args: argparse.Namespace) -> _Outcome:
    first, last = args.seeds
    summary = search_instances(range(first, last), variant=args.variant,
                               cover_mode=args.cover_mode)
    record = {
        "record": "search",
        "seeds": f"{first}..{last}",
        "total": summary.total,
        "axiom_pass": summary.axiom_pass,
        "axiom_fail": summary.axiom_fail,
        "premeasure_verified": summary.premeasure_verified,
        "additivity_failed_on_failing": summary.additivity_failed_on_failing,
        "counterexamples": " ".join(str(s) for s in summary.counterexample_seeds),
    }
    return [record], "search", summary.clean


def _parse_seed_range(text: str) -> tuple[int, int]:
    first, sep, last = text.partition("..")
    if not sep or not first.lstrip("-").isdigit() or not last.lstrip("-").isdigit():
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    if int(last) <= int(first):
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}: B must exceed A")
    return int(first), int(last)


def build_parser() -> argparse.ArgumentParser:
    """The CLI; each subcommand declares only the flags its runner reads."""
    parser = argparse.ArgumentParser(
        prog="quasimeasure",
        description="Construct and verify probability pre-measures from quasi-measures on set coats.",
    )
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("input")
    checks = argparse.ArgumentParser(add_help=False)
    checks.add_argument("--variant", choices=("literal", "restricted"), default="restricted")
    checks.add_argument("--cover-mode", choices=("all", "disjoint-only"), default="all")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", dest="output_format", choices=("text", "machine"),
                        default="text")
    output.add_argument("--out", default=None, help="write the report to this path")

    sub = parser.add_subparsers(dest="subcommand", required=True)
    p_check = sub.add_parser("check", parents=[instance, checks, output],
                             help="run axiom checks on an instance")
    p_check.add_argument("--max-cover", type=int, default=None)
    p_check.set_defaults(runner=_run_check)
    p_outer = sub.add_parser("outer", parents=[instance, output],
                             help="exterior value of a target set")
    p_outer.add_argument("--set", dest="target", required=True,
                         help="target: a value expression or element labels")
    p_outer.set_defaults(runner=_run_outer)
    p_extend = sub.add_parser("extend", parents=[instance, output],
                              help="tabulate the generated algebra and verify additivity")
    p_extend.set_defaults(runner=_run_extend)
    p_example = sub.add_parser("example", parents=[output], help="exponential interval suite")
    p_example.add_argument("--samples", type=int, default=1000)
    p_example.add_argument("--seed", type=int, default=0)
    p_example.add_argument("--tol", type=float, default=1e-12)
    p_example.set_defaults(runner=_run_example)
    p_search = sub.add_parser("search", parents=[checks, output],
                              help="survey seed-indexed instances")
    p_search.add_argument("--seeds", type=_parse_seed_range, required=True, metavar="A..B")
    p_search.set_defaults(runner=_run_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; exit 0 pass, 1 a check failed, 2 input error, 3 internal error."""
    args = build_parser().parse_args(argv)
    for dest, valid, message in _FLAG_RULES:
        if dest in args and not valid(getattr(args, dest)):
            print(f"error: {message}", file=sys.stderr)
            return 2
    try:
        records, suite, passed = args.runner(args)
        status = "pass" if passed else "fail"
        records.append({"record": "summary", "suite": suite, "status": status})
        _emit(records, args)
        return 0 if passed else 1
    except (ParseError, BudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program: keep it apart from exit 1
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
