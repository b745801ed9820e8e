"""One workload run in its own process: set-up, timed passes, checks.

``run.py`` starts this script; it is not meant to be run by hand.  It prints
one JSON line with the run's raw figures.  Modes:

* ``full``: set up, then repeat the op list in passes until ``--seconds``
  of measured time; then check outputs.  With ``--trace 1`` untraced and
  traced passes alternate, and the traced ones record spans.
* ``setup``: set up and stop; only the set-up time is reported.
* ``record``: run the op list once and store its output digests as the
  reference for the default seed.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import quasimeasure  # noqa: E402

from tracing import RUN_GROUP, NullTracer, Tracer, layer_table, op_balance_error, write_spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, warmup_ops  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "digests.json"
BALANCE_TOLERANCE_S = 1e-6
PR_SET_THP_DISABLE = 41
# Timings are quoted at a fixed reference speed: the speed at which the
# reference loop below takes REFERENCE_S (its fastest on the 2-core VM the
# benchmark was written on).  A sample of the loop runs before each pass and
# after every REFERENCE_EVERY_S of op time.
REFERENCE_ITERATIONS = 200_000
REFERENCE_S = 0.016
REFERENCE_EVERY_S = 0.25
SETUP_REFERENCE_SAMPLES = 5

BUSY_LAYERS = (
    "extension.verify_premeasure", "extension.extend", "extension.measurable_family",
    "sets.generate_algebra", "sets.refine",
    "cover.check_outer_properties", "cover.outer",
    "quasi.check_axioms", "quasi.cover_bound_violations", "quasi.check_alt_conditions",
    "instance_io.parse_instance", "instance_io.build", "instance_io.render",
    "cli.main.check", "cli.main.extend",
    "intervals.outer_interval", "intervals.verify_example_axioms",
    "testkit.generate",
)
CALL_LAYERS = ("cover.outer", "intervals.outer_interval")
COUNTS = {
    "extension.disjoint_pairs": "count", "extension.witnesses": "count",
    "sets.algebra_members": "count", "sets.refine.members": "count",
    "cover.targets": "count",
    "quasi.subcollections": "count", "quasi.coat_pairs": "count",
    "instance_io.bytes_in": "B", "cli.report_bytes": "B",
    "intervals.samples": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"{name}.busy_s": "s" for name in BUSY_LAYERS}
    units.update({f"{name}.calls": "count" for name in CALL_LAYERS})
    units.update(COUNTS)
    units["cli.render.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def per_layer_values(table: dict, overhead_s: float) -> dict[str, float]:
    layers, counts = table["layers"], table["counts"]

    def row(name):
        return layers.get(name, {"calls": 0, "busy_s": 0.0})

    values = {f"{name}.busy_s": row(name)["busy_s"] for name in BUSY_LAYERS}
    values.update({f"{name}.calls": row(name)["calls"] for name in CALL_LAYERS})
    values.update({name: counts.get(name, 0) for name in COUNTS})
    # The CLI's own share: both subcommands minus the library calls they make.
    values["cli.render.self_s"] = (row("cli.main.check")["busy_s"] + row("cli.main.extend")["busy_s"]
                                   - row("mirror")["busy_s"])
    values["trace.overhead_s"] = overhead_s
    return values


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work that calls nothing
    in the library: a gauge of how fast the machine runs at this moment."""
    began = time.perf_counter()
    table = [0] * 256
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        table[i & 255] = total
        total += (i * 7) % 13
    return time.perf_counter() - began


def slowdown(samples: list[float]) -> float:
    """How many times slower than the reference speed the machine ran while
    these reference samples were taken."""
    return statistics.median(samples) / REFERENCE_S


def disable_huge_pages() -> None:
    """Keep transparent huge pages out of this process, so that peak RSS
    counts the pages the program touches whatever the host's huge-page
    policy is (with huge pages always on, RSS grows in 2 MiB steps that
    depend on where the allocator's regions happen to fall)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: nothing to disable


class Raised:
    """Stands in for the output of an op that raised."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


def run_op(op, tracer):
    tracer.op = op.name
    try:
        return tracer.call("op", op.run, tracer)
    except Exception as exc:  # a raising op is a failed op, not a failed run
        return Raised(exc)


def finish_op(op, output) -> tuple[str | None, object, str | None]:
    """(digest, facts, failure) for one output, outside any timing."""
    if isinstance(output, Raised):
        return None, None, output.message
    try:
        blob, facts = op.finish(output)
    except Exception as exc:
        return None, None, f"unreadable output: {type(exc).__name__}: {exc}"
    return hashlib.sha256(blob).hexdigest()[:16], facts, None


def run_pass(ops, tracer, group, gauge: bool = False):
    """One pass of the op list, with probes after each op when traced, and
    reference samples between ops when ``gauge`` is set (timed passes, not
    set-up); returns (seconds taken, op latencies, outputs, slowdown of the
    machine during the pass or None)."""
    gc.collect()
    if tracer.enabled:
        tracer.group = group
    outputs, latencies = [], []
    start = time.perf_counter()
    references = [reference_loop()] if gauge else []
    since_reference = 0.0
    for op in ops:
        began = time.perf_counter()
        output = run_op(op, tracer)
        took = time.perf_counter() - began
        latencies.append(took)
        since_reference += took
        if gauge and since_reference >= REFERENCE_EVERY_S:
            references.append(reference_loop())
            since_reference = 0.0
        if tracer.enabled and not isinstance(output, Raised):
            op.probe(tracer, output)
        outputs.append(output)
    return time.perf_counter() - start, latencies, outputs, slowdown(references) if gauge else None


def stored_digests(workload: str, seed: int) -> list[str] | None:
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)


def per_op(passes: list[list[float]]) -> list[float]:
    """Each op's median latency over the passes."""
    return [statistics.median(latencies) for latencies in zip(*passes)]


def measure(ops, args, tracer) -> dict:
    """The timed passes, then the checks; the figures of one full run."""
    # traced? -> pass -> op, at the reference speed
    latencies: dict[bool, list[list[float]]] = {False: [], True: []}
    raw: list[list[float]] = []  # untraced passes, as measured
    slowdowns: list[float] = []
    reference: list[tuple] = []   # (digest, facts, failure) per op, from the first pass
    failed_in_pass: list[list[str | None]] = []
    elapsed = 0.0
    index = 0
    while True:
        traced = bool(args.trace) and index % 4 in (1, 2)  # U T T U: drift cancels per two pairs
        taken, lat, outputs, slow = run_pass(ops, tracer if traced else NullTracer(), index, gauge=True)
        latencies[traced].append([x / slow for x in lat])
        slowdowns.append(slow)
        if not traced:
            raw.append(lat)
        elapsed += taken
        finished = [finish_op(op, out) for op, out in zip(ops, outputs)]
        del outputs
        if index == 0:
            reference = finished
            failed_in_pass.append([f for _, _, f in finished])
        else:
            failed_in_pass.append([
                f or (None if d == ref[0] else "output differs from the first pass")
                for (d, _, f), ref in zip(finished, reference)])
        index += 1
        if args.trace and index % 2:
            continue  # a traced run measures untraced and traced passes in pairs
        rounds = index // 2 if args.trace else index
        if elapsed + elapsed / rounds > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    expected = stored_digests(args.workload, args.seed)
    run_failures = []
    if args.seed == DEFAULT_SEED and expected is None:
        run_failures.append(f"no stored digests for {args.workload}")
    elif expected is not None and len(expected) != len(ops):
        run_failures.append(f"{len(expected)} stored digests for {len(ops)} ops")
        expected = None
    for i, (op, (digest, facts, failure)) in enumerate(zip(ops, reference)):
        problems = [] if failure else op.check(facts)
        if expected is not None and digest != expected[i]:
            problems.append("output differs from the stored default-seed digest")
        if problems:
            for row in failed_in_pass:
                row[i] = row[i] or problems[0]
    messages = [f"{op.name}: {m}" for row in failed_in_pass for op, m in zip(ops, row) if m]

    untraced = per_op(latencies[False])
    result = {
        "passes": len(raw),
        "pass_walls_raw_s": [sum(per_pass) for per_pass in raw],
        "slowdowns": slowdowns,
        "wall_s": sum(untraced),
        "wall_raw_s": sum(per_op(raw)),
        "latency_n": len(untraced),
        "latency_p50_s": statistics.median(untraced),
        "latency_p90_s": statistics.quantiles(untraced, n=10)[8] if len(untraced) > 1 else untraced[0],
        "peak_rss_mib": peak_rss_mib,
        "attempted": len(ops) * len(failed_in_pass),
        "failed": len(messages),
        "failures": run_failures + messages[:20],
    }
    if args.trace:
        result["traced_passes"] = len(latencies[True])
        result["overhead_s"] = sum(per_op(latencies[True])) - result["wall_s"]
    return result


def record(ops) -> dict:
    outputs = run_pass(ops, NullTracer(), 0)[2]
    finished = [finish_op(op, out) for op, out in zip(ops, outputs)]
    bad = []
    for op, (_, facts, failure) in zip(ops, finished):
        bad += [f"{op.name}: {m}" for m in ([failure] if failure else op.check(facts))]
    if bad:
        return {"failures": bad}
    return {"digests": [d for d, _, _ in finished]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("full", "setup", "record"), default="full")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    disable_huge_pages()

    if Path(quasimeasure.__file__).resolve().parent != ROOT / "src" / "quasimeasure":
        print(f"error: imported quasimeasure from {quasimeasure.__file__}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else NullTracer()
    workdir = args.out / f"work-{args.workload}-{args.seed}-{args.mode}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ops = WORKLOADS[args.workload](args.seed, workdir, tracer)
        warmup = warmup_ops(workdir, tracer)
        for op, output in zip(warmup, run_pass(warmup, tracer, RUN_GROUP)[2]):
            finish_op(op, output)  # removes the warm-up's report files
        setup_raw_s = time.monotonic() - args.spawned_at
        slow = slowdown([reference_loop() for _ in range(SETUP_REFERENCE_SAMPLES)])
        result = {"setup_s": setup_raw_s / slow, "setup_raw_s": setup_raw_s}
        if args.mode == "record":
            result.update(record(ops))
        elif args.mode == "full":
            result.update(measure(ops, args, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace and args.mode == "full":
        table = layer_table(tracer, result["traced_passes"])
        result["layers"] = table
        values = per_layer_values(table, result["overhead_s"])
        result["per_layer"] = {name: {"value": values[name], "unit": unit}
                               for name, unit in per_layer_units().items()}
        result["spans"] = len(tracer.spans)
        balance = op_balance_error(tracer.spans)
        result["balance_error_s"] = balance
        if balance > BALANCE_TOLERANCE_S:
            result["failures"].insert(0, f"op self times miss the op duration by {balance:.3g} s")
        spans_path = args.out / f"{args.workload}-seed{args.seed}-spans.jsonl"
        write_spans(tracer, spans_path)
        result["span_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
