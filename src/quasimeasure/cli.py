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
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .cover import outer
from .extension import extend, verify_premeasure
from .instance_io import (
    ParseError,
    format_rational,
    parse_instance,
    resolve_target,
)
from .intervals import verify_example_axioms
from .quasi import check_axioms
from .report import AxiomReport
from .sets import BudgetExceeded
from .testkit import search_instances

DEFAULT_MAX_N = 16


@dataclass
class RunConfig:
    """Everything one invocation needs; no environment, no hidden state."""

    subcommand: str
    input_path: str | None = None
    variant: str = "restricted"
    cover_mode: str = "all"
    max_n: int = DEFAULT_MAX_N
    max_cover: int | None = None
    output_format: str = "text"
    out: str | None = None
    target: str | None = None
    samples: int = 1000
    seed: int = 0
    tol: float = 1e-12
    seed_range: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.max_n <= 0:
            raise ValueError("--max-n must be positive")
        if self.max_cover is not None and self.max_cover <= 0:
            raise ValueError("--max-cover must be positive")
        if not self.tol > 0:
            raise ValueError("--tol must be positive")


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


def _summary_record(suite: str, passed: bool) -> dict:
    return {"record": "summary", "suite": suite, "status": "pass" if passed else "fail"}


def _emit(records: list[dict], config: RunConfig) -> None:
    if config.output_format == "machine":
        lines = [json.dumps(r, separators=(",", ":")) for r in records]
    else:
        lines = [_text_line(r) for r in records]
    payload = "\n".join(lines) + "\n"
    if config.out:
        Path(config.out).write_text(payload, encoding="utf-8", newline="\n")
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
    if kind == "outer":
        return (f"outer {record['target']} = {record['value']}"
                f" cover {record['cover']} (indices {record['indices']})")
    if kind == "table":
        return (f"table {record['set']} = {record['value']}"
                f" cover {record['cover']} (indices {record['indices']})")
    if kind == "search":
        return (f"search seeds {record['seeds']}: total {record['total']},"
                f" axioms pass {record['axiom_pass']} / fail {record['axiom_fail']},"
                f" premeasure verified {record['premeasure_verified']},"
                f" additivity failures on failing {record['additivity_failed_on_failing']},"
                f" counterexamples [{record['counterexamples']}]")
    if kind == "summary":
        return f"RESULT {record['suite']}: {record['status']}"
    raise ValueError(f"unknown record kind {kind!r}")


def _load_instance(config: RunConfig):
    if not config.input_path:
        raise ParseError("an input instance path is required")
    data = Path(config.input_path).read_bytes()
    try:
        document = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("input is not UTF-8", data.count(b"\n", 0, exc.start) + 1) from None
    spec = parse_instance(document)
    ground, coat, qm = spec.build()
    if ground.n > config.max_n:
        raise ParseError(f"ground set size {ground.n} exceeds --max-n {config.max_n}")
    return spec, ground, coat, qm


def _run_check(config: RunConfig) -> int:
    _, _, coat, qm = _load_instance(config)
    max_cover = config.max_cover if config.max_cover is not None else len(coat)
    report = check_axioms(qm, variant=config.variant, cover_mode=config.cover_mode,
                          max_cover_size=min(max_cover, len(coat)))
    records = _check_records(report)
    records.append(_summary_record(report.suite, report.passed))
    _emit(records, config)
    return 0 if report.passed else 1


def _run_outer(config: RunConfig) -> int:
    spec, ground, coat, qm = _load_instance(config)
    if config.target is None:
        raise ParseError("outer requires --set")
    target = resolve_target(config.target, spec.names(), ground)
    value, solution = outer(qm, target)
    record = {
        "record": "outer",
        "target": str(target),
        "value": format_rational(value),
        "cover": " ".join(str(coat.members[i]) for i in solution.chosen),
        "indices": " ".join(str(i) for i in solution.chosen),
    }
    _emit([record, _summary_record("outer", True)], config)
    return 0


def _run_extend(config: RunConfig) -> int:
    _, _, coat, qm = _load_instance(config)
    table = extend(qm)
    records = []
    for member, value, solution in table.rows():
        records.append({
            "record": "table",
            "set": str(member),
            "value": format_rational(value),
            "cover": " ".join(str(coat.members[i]) for i in solution.chosen),
            "indices": " ".join(str(i) for i in solution.chosen),
        })
    report = verify_premeasure(table)
    records.extend(_check_records(report))
    records.append(_summary_record(report.suite, report.passed))
    _emit(records, config)
    return 0 if report.passed else 1


def _run_example(config: RunConfig) -> int:
    report = verify_example_axioms(sample_count=config.samples, seed=config.seed,
                                   tol=config.tol)
    records = _check_records(report)
    records.append(_summary_record(report.suite, report.passed))
    _emit(records, config)
    return 0 if report.passed else 1


def _run_search(config: RunConfig) -> int:
    if config.seed_range is None:
        raise ParseError("search requires --seeds A..B")
    first, last = config.seed_range
    summary = search_instances(range(first, last), variant=config.variant,
                               cover_mode=config.cover_mode)
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
    _emit([record, _summary_record("search", summary.clean)], config)
    return 0 if summary.clean else 1


_RUNNERS = {
    "check": _run_check,
    "outer": _run_outer,
    "extend": _run_extend,
    "example": _run_example,
    "search": _run_search,
}


def run(config: RunConfig) -> int:
    """Execute one configured subcommand; input errors exit 2, internal errors 3."""
    try:
        return _RUNNERS[config.subcommand](config)
    except (ParseError, BudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program: keep it apart from exit 1
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def _parse_seed_range(text: str) -> tuple[int, int]:
    first, sep, last = text.partition("..")
    if not sep or not first.lstrip("-").isdigit() or not last.lstrip("-").isdigit():
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    return int(first), int(last)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasimeasure",
        description="Construct and verify probability pre-measures from quasi-measures on set coats.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--variant", choices=("literal", "restricted"), default="restricted")
    common.add_argument("--cover-mode", choices=("all", "disjoint-only"), default="all")
    common.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    common.add_argument("--max-cover", type=int, default=None)
    common.add_argument("--format", dest="output_format", choices=("text", "machine"),
                        default="text")
    common.add_argument("--out", default=None, help="write the report to this path")

    sub = parser.add_subparsers(dest="subcommand", required=True)
    p_check = sub.add_parser("check", parents=[common], help="run axiom checks on an instance")
    p_check.add_argument("input")
    p_outer = sub.add_parser("outer", parents=[common], help="exterior value of a target set")
    p_outer.add_argument("input")
    p_outer.add_argument("--set", dest="target", required=True,
                         help="target: a value expression or element labels")
    p_extend = sub.add_parser("extend", parents=[common],
                              help="tabulate the generated algebra and verify additivity")
    p_extend.add_argument("input")
    p_example = sub.add_parser("example", parents=[common],
                               help="exponential interval suite")
    p_example.add_argument("--samples", type=int, default=1000)
    p_example.add_argument("--seed", type=int, default=0)
    p_example.add_argument("--tol", type=float, default=1e-12)
    p_search = sub.add_parser("search", parents=[common],
                              help="survey seed-indexed instances")
    p_search.add_argument("--seeds", type=_parse_seed_range, required=True, metavar="A..B")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(
            subcommand=args.subcommand,
            input_path=getattr(args, "input", None),
            variant=args.variant,
            cover_mode=args.cover_mode,
            max_n=args.max_n,
            max_cover=args.max_cover,
            output_format=args.output_format,
            out=args.out,
            target=getattr(args, "target", None),
            samples=getattr(args, "samples", 1000),
            seed=getattr(args, "seed", 0),
            tol=getattr(args, "tol", 1e-12),
            seed_range=getattr(args, "seeds", None),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
