"""The four benchmark workloads: seeded inputs, timed ops, probes and checks.

Each workload turns a seed into a fixed op list.  The set-up generates the
instances with ``testkit`` and renders them to instance documents; the ops
then hand the library only those documents (or what it parsed from them in
set-up).  An ``Op`` bundles:

* ``run(tracer)``: the timed call; returns the op's output.
* ``finish(output)``: after the pass, outside any timing, the canonical
  bytes of the output (digested and compared) and the facts the checks need.
* ``check(facts)``: oracle checks, after the timed region; failure messages.
* ``probe(tracer, output)``: traced runs only, after the op's own spans:
  standalone calls into layers the op reaches only from inside another
  call, plus counts computed from sizes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from quasimeasure import cli
from quasimeasure.cover import check_outer_properties, outer, outer_exhaustive
from quasimeasure.extension import extend, measurable_family, verify_premeasure
from quasimeasure.instance_io import format_rational, instance_spec_from, parse_instance, render_instance
from quasimeasure.intervals import (
    Interval,
    IntervalSet,
    issubset,
    outer_interval,
    verify_example_axioms,
)
from quasimeasure.quasi import check_alt_conditions, check_axioms, cover_bound_violations
from quasimeasure.sets import Coat, generate_algebra, refine
from quasimeasure.testkit import (
    canonical_negative_instance,
    induce,
    instance_for_seed,
    random_algebra_instance,
    random_instance,
)

DEFAULT_SEED = 0

# Op-list sizes: one pass takes one to six seconds at the parent commit, so
# a run of twenty-five seconds makes five passes or more.  Each pass spreads
# its work over many instances, so that no single seeded instance sets the
# figures of a run.
DENSE_N, DENSE_K = 10, 12
DENSE_PAIRS = 2            # singleton-coat + random-coat instances per pass
SURVEY_INSTANCES = 1000
AUDIT_N, AUDIT_INSTANCES = 5, 12
QUERY_COATS = 256          # one query each; most ops are cover queries, so the median op is one
INTERVAL_POOLS = 96        # one query each
POOL_SIZE = 20
EXAMPLE_BLOCKS, EXAMPLE_SAMPLES = 12, 50
RANDOM_ROWS_CHECKED = 6
EXHAUSTIVE_COAT_LIMIT = 20  # outer_exhaustive refuses larger coats
EXHAUSTIVE_TARGETS = 3


def _nothing(tracer, output) -> None:
    pass


@dataclass
class Op:
    name: str
    run: Callable[[Any], Any]
    finish: Callable[[Any], tuple[bytes, Any]]
    check: Callable[[Any], list[str]]
    probe: Callable[[Any, Any], None] = field(default=_nothing)


def generate(tracer, fn, *args, **kwargs):
    """Instance generation in set-up; traced runs also time the refinement
    of the generated coat on its own."""
    result = tracer.call("testkit.generate", fn, *args, **kwargs)
    if tracer.enabled:
        qm = result[2] if isinstance(result, tuple) else result
        tracer.count("sets.refine.members", len(tracer.call("sets.refine", refine, qm.coat)))
    return result


def render(tracer, qm, seed: int | None) -> str:
    return tracer.call("instance_io.render",
                       lambda: render_instance(instance_spec_from(qm, seed=seed)))


def parse(tracer, text: str):
    spec = tracer.call("instance_io.parse_instance", parse_instance, text)
    tracer.count("instance_io.bytes_in", len(text.encode("utf-8")))
    return tracer.call("instance_io.build", spec.build)[2]


def _report_tuple(report) -> tuple:
    return (report.suite, report.notes, tuple(
        (r.name, r.passed, len(r.witnesses), r.witnesses[0].render() if r.witnesses else "")
        for r in report.results))


def _witness_count(report) -> int:
    return sum(len(r.witnesses) for r in report.results)


def _count_axiom_work(tracer, qm) -> None:
    k = len(qm.coat)
    tracer.count("quasi.coat_pairs", k * k)
    tracer.count("quasi.subcollections", (1 << k) - 1)


def _count_table_work(tracer, table, premeasure) -> None:
    atoms = len(table.algebra).bit_length() - 1  # a finite algebra has 2**atoms members
    tracer.count("extension.disjoint_pairs", (3 ** atoms - 1) // 2)
    tracer.count("extension.witnesses", _witness_count(premeasure))


# --- dense-extend -----------------------------------------------------------

def singleton_coat_instance(seed: int, n: int):
    """Seeded weights on the coat {empty, omega, {1}, ..., {n}}: the table
    on its algebra (the power set) is additive and equals the measure."""
    tm = random_instance(seed, n=n, coat_size=2)[0]
    ground = tm.ground
    coat = Coat.from_bits(ground, [0, ground.full_bits, *(1 << i for i in range(n))])
    return tm, coat, induce(tm, coat)


def _read_report(path: Path) -> bytes:
    data = path.read_bytes()
    path.unlink()
    return data


def dense_check(facts) -> list[str]:
    """Exit codes agree with the verdicts; table rows agree with the oracle."""
    rc_check, check_bytes, rc_extend, extend_bytes, tm, qm, kind, sample_seed = facts
    failures = []
    tables = []
    for sub, rc, data in (("check", rc_check, check_bytes), ("extend", rc_extend, extend_bytes)):
        try:
            records = [json.loads(line) for line in data.decode("utf-8").splitlines()]
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            failures.append(f"{sub}: unreadable report ({exc})")
            continue
        verdict = records[-1].get("status") if records else None
        if verdict not in ("pass", "fail") or rc != (0 if verdict == "pass" else 1):
            failures.append(f"{sub}: exit code {rc} with verdict {verdict!r}")
        if sub == "extend":
            tables = [r for r in records if r.get("record") == "table"]
    if len(tables) != 1 << qm.ground.n and kind == "singleton":
        failures.append(f"singleton table has {len(tables)} rows")
    ground = qm.ground

    def mask_of(row):
        labels = row["set"].strip("{}")
        return ground.subset(labels.split(",") if labels else [])

    if kind == "singleton":
        for row in tables:
            if row["value"] != format_rational(tm.mass(mask_of(row))):
                failures.append(f"row {row['set']} = {row['value']} differs from the measure")
    elif tables:
        rng = random.Random(sample_seed)
        for row in rng.sample(tables, min(RANDOM_ROWS_CHECKED, len(tables))):
            want = format_rational(outer_exhaustive(qm, mask_of(row))[0])
            if row["value"] != want:
                failures.append(f"row {row['set']} = {row['value']}, exhaustive {want}")
    return failures


def dense_op(name: str, path: Path, workdir: Path, tm, qm, kind: str, sample_seed: int) -> Op:
    check_out = workdir / f"{name.replace('/', '_')}.check.jsonl"
    extend_out = workdir / f"{name.replace('/', '_')}.extend.jsonl"

    def run(tracer):
        rc_check = tracer.call("cli.main.check", cli.main,
                               ["check", str(path), "--format", "machine", "--out", str(check_out)])
        rc_extend = tracer.call("cli.main.extend", cli.main,
                                ["extend", str(path), "--format", "machine", "--out", str(extend_out)])
        return rc_check, rc_extend

    def finish(output):
        rc_check, rc_extend = output
        check_bytes = _read_report(check_out)
        extend_bytes = _read_report(extend_out)
        blob = b"%d\n%s%d\n%s" % (rc_check, check_bytes, rc_extend, extend_bytes)
        return blob, (rc_check, check_bytes, rc_extend, extend_bytes, tm, qm, kind, sample_seed)

    def probe(tracer, output):
        # The library calls each subcommand makes, under one "mirror" span;
        # cli.main minus the mirror is the CLI's own rendering time.
        def mirror():
            parsed = parse(tracer, path.read_text(encoding="utf-8"))
            tracer.call("quasi.check_axioms", check_axioms, parsed, variant="restricted")
            parsed = parse(tracer, path.read_text(encoding="utf-8"))
            table = tracer.call("extension.extend", extend, parsed)
            return parsed, table, tracer.call("extension.verify_premeasure", verify_premeasure, table)

        parsed, table, premeasure = tracer.call("mirror", mirror)
        tracer.call("probe", _axiom_and_algebra_probes, tracer, parsed)
        _count_axiom_work(tracer, parsed)
        _count_table_work(tracer, table, premeasure)
        tracer.count("cli.report_bytes", check_out.stat().st_size + extend_out.stat().st_size)

    return Op(name, run, finish, dense_check, probe)


def _axiom_and_algebra_probes(tracer, qm) -> None:
    tracer.call("quasi.cover_bound_violations", cover_bound_violations, qm)
    algebra = tracer.call("sets.generate_algebra", generate_algebra, qm.coat)
    tracer.count("sets.algebra_members", len(algebra))


def dense_setup(seed: int, workdir: Path, tracer) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for i in range(2 * DENSE_PAIRS):
        instance_seed = rng.randrange(1 << 31)
        kind = "singleton" if i % 2 == 0 else "random"
        if kind == "singleton":
            tm, _, qm = generate(tracer, singleton_coat_instance, instance_seed, DENSE_N)
        else:
            tm, _, qm = generate(tracer, random_instance, instance_seed, n=DENSE_N, coat_size=DENSE_K)
        path = workdir / f"dense-{i}.qm"
        path.write_text(render(tracer, qm, instance_seed), encoding="utf-8")
        ops.append(dense_op(f"dense-extend/{i}", path, workdir, tm, qm, kind, instance_seed))
    return ops


# --- survey -----------------------------------------------------------------

def survey_check(facts) -> list[str]:
    axioms_pass, alt_pass, premeasure_pass = facts
    failures = []
    if axioms_pass and not premeasure_pass:
        failures.append("restricted axioms pass but the extension is not additive")
    if alt_pass and not axioms_pass:
        failures.append("alt conditions pass but the restricted axioms fail")
    return failures


def survey_op(name: str, text: str) -> Op:
    def run(tracer):
        qm = parse(tracer, text)
        axioms = tracer.call("quasi.check_axioms", check_axioms, qm, variant="restricted")
        alt = tracer.call("quasi.check_alt_conditions", check_alt_conditions, qm)
        table = tracer.call("extension.extend", extend, qm)
        premeasure = tracer.call("extension.verify_premeasure", verify_premeasure, table)
        return qm, axioms, alt, table, premeasure

    def finish(output):
        _, axioms, alt, table, premeasure = output
        rows = tuple((str(m), format_rational(v), s.chosen) for m, v, s in table.rows())
        blob = repr((_report_tuple(axioms), _report_tuple(alt), rows, _report_tuple(premeasure)))
        return blob.encode("utf-8"), (axioms.passed, alt.passed, premeasure.passed)

    def probe(tracer, output):
        qm, _, _, table, premeasure = output
        tracer.call("probe", _axiom_and_algebra_probes, tracer, qm)
        _count_axiom_work(tracer, qm)
        tracer.count("quasi.coat_pairs", len(qm.coat) ** 2)  # the alt-condition pair loop
        _count_table_work(tracer, table, premeasure)

    return Op(name, run, finish, survey_check, probe)


def survey_setup(seed: int, workdir: Path, tracer) -> list[Op]:
    first = seed * SURVEY_INSTANCES
    ops = []
    for instance_seed in range(first, first + SURVEY_INSTANCES):
        qm = generate(tracer, instance_for_seed, instance_seed)
        ops.append(survey_op(f"survey/{instance_seed}", render(tracer, qm, instance_seed)))
    return ops


# --- outer-audit ------------------------------------------------------------

def audit_check(facts) -> list[str]:
    return [] if facts else ["check_outer_properties failed"]


def _records_tuple(records) -> tuple:
    return tuple((r.candidate.bits, r.measurable,
                  None if r.counterexample is None else r.counterexample.bits) for r in records)


def audit_op(name: str, qm) -> Op:
    def run(tracer):
        report = tracer.call("cover.check_outer_properties", check_outer_properties, qm)
        family = tracer.call("extension.measurable_family", measurable_family, qm)
        return report, family

    def finish(output):
        report, family = output
        blob = repr((_report_tuple(report), _records_tuple(family.algebra), _records_tuple(family.audit)))
        return blob.encode("utf-8"), report.passed

    def probe(tracer, output):
        algebra = tracer.call("probe", lambda: tracer.call("sets.generate_algebra", generate_algebra, qm.coat))
        tracer.count("sets.algebra_members", len(algebra))
        tracer.count("cover.targets", 1 << qm.ground.n)  # exhaustive while 2**n <= 4096

    return Op(name, run, finish, audit_check, probe)


def audit_setup(seed: int, workdir: Path, tracer) -> list[Op]:
    ops = []
    for i in range(AUDIT_INSTANCES):
        instance_seed = seed * AUDIT_INSTANCES + i
        if i % 2:
            qm = generate(tracer, random_instance, instance_seed, n=AUDIT_N,
                          coat_size=3 + instance_seed % 6)[2]  # as in criterion 5
        else:
            qm = generate(tracer, random_algebra_instance, instance_seed, n=AUDIT_N)[2]
        qm = parse(tracer, render(tracer, qm, instance_seed))
        ops.append(audit_op(f"outer-audit/{instance_seed}", qm))
    return ops


# --- cover-queries ----------------------------------------------------------

def outer_check(facts) -> list[str]:
    qm, target, cost, solution, exhaustive = facts
    failures = []
    if not solution.verify(qm, target) or solution.cost != cost:
        failures.append(f"cover witness for {target} does not verify")
    if exhaustive:
        want = outer_exhaustive(qm, target)[0]
        if want != cost:
            failures.append(f"outer {target} = {cost}, exhaustive {want}")
    return failures


def outer_op(name: str, qm, target, exhaustive: bool) -> Op:
    def run(tracer):
        return tracer.call("cover.outer", outer, qm, target)

    def finish(output):
        cost, solution = output
        blob = f"{format_rational(cost)} {solution.chosen}".encode("utf-8")
        return blob, (qm, target, cost, solution, exhaustive)

    return Op(name, run, finish, outer_check)


def interval_check(facts) -> list[str]:
    target, pool, result = facts
    chosen = [pool[i] for i in result.chosen]
    covered = IntervalSet.of(*chosen)
    failures = []
    if not issubset(target, covered):
        failures.append(f"chosen intervals do not cover {target}")
    if abs(sum(p.weight() for p in chosen) - result.cost) > 1e-12:
        failures.append(f"cover cost {result.cost!r} is not the chosen weight sum")
    if result.cost < result.analytic - 1e-12:
        failures.append(f"cover cost {result.cost!r} below the measure {result.analytic!r}")
    return failures


def interval_op(name: str, target: IntervalSet, pool: list[Interval]) -> Op:
    def run(tracer):
        return tracer.call("intervals.outer_interval", outer_interval, target, pool)

    def finish(result):
        return repr((result.chosen, result.cost, result.analytic)).encode("utf-8"), (target, pool, result)

    return Op(name, run, finish, interval_check)


def example_check(report) -> list[str]:
    witnesses = _witness_count(report)
    return [f"example suite has {witnesses} witnesses"] if witnesses else []


def example_op(name: str, samples: int, seed: int) -> Op:
    def run(tracer):
        return tracer.call("intervals.verify_example_axioms", verify_example_axioms,
                           sample_count=samples, seed=seed)

    def finish(report):
        return repr(_report_tuple(report)).encode("utf-8"), report

    def probe(tracer, output):
        tracer.count("intervals.samples", samples)

    return Op(name, run, finish, example_check, probe)


def interval_pool(rng: random.Random, size: int = POOL_SIZE) -> list[Interval]:
    """The half line (so every target is coverable) and closed intervals in [0,6]."""
    pool = [Interval(0.0, float("inf"), True, False)]
    while len(pool) < size:
        a, b = sorted(rng.uniform(0.0, 6.0) for _ in range(2))
        if a < b:
            pool.append(Interval.closed(a, b))
    return pool


def interval_target(rng: random.Random) -> IntervalSet:
    """A closed interval or a two-piece set [u,a) with (b,v], in [0,6]."""
    u, a, b, v = sorted(rng.uniform(0.0, 6.0) for _ in range(4))
    if rng.random() < 0.5 or u == a or b == v:
        return IntervalSet.of(Interval.closed(a, b))
    return IntervalSet.of(Interval.closed_open(u, a), Interval.open_closed(b, v))


def queries_setup(seed: int, workdir: Path, tracer) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    exhaustive_left = EXHAUSTIVE_TARGETS if seed == DEFAULT_SEED else 0
    for j in range(QUERY_COATS):
        instance_seed = seed * QUERY_COATS + j
        n, k = 16 + j % 3, 20 + j % 3
        qm = generate(tracer, random_instance, instance_seed, n=n, coat_size=k)[2]
        # Half of the ground set: a query's cost grows steeply with the
        # target's size, so uniform subsets would spread op times over a
        # decade and leave the median op to a few coats.
        target = qm.ground.mask(sum(1 << i for i in rng.sample(range(n), n // 2)))
        exhaustive = exhaustive_left > 0 and len(qm.coat) <= EXHAUSTIVE_COAT_LIMIT
        exhaustive_left -= exhaustive
        ops.append(outer_op(f"cover-queries/outer/{j}", qm, target, exhaustive))
    for j in range(INTERVAL_POOLS):
        pool = interval_pool(rng)
        ops.append(interval_op(f"cover-queries/interval/{j}", interval_target(rng), pool))
    for j in range(EXAMPLE_BLOCKS):
        ops.append(example_op(f"cover-queries/example/{j}", EXAMPLE_SAMPLES, seed * EXAMPLE_BLOCKS + j))
    return ops


# --- warm-up ----------------------------------------------------------------

def warmup_ops(workdir: Path, tracer) -> list[Op]:
    """One op of every kind on the canonical four-element negative instance,
    run before timing so that every layer's first call is paid in set-up."""
    tm, _, qm = canonical_negative_instance()
    path = workdir / "warmup.qm"
    text = render(tracer, qm, None)
    path.write_text(text, encoding="utf-8")
    rng = random.Random(DEFAULT_SEED)
    pool = interval_pool(rng, 4)
    return [
        dense_op("warmup/dense", path, workdir, tm, qm, "random", DEFAULT_SEED),
        survey_op("warmup/survey", text),
        audit_op("warmup/audit", qm),
        outer_op("warmup/outer", qm, qm.ground.subset(["2"]), True),
        interval_op("warmup/interval", interval_target(rng), pool),
        example_op("warmup/example", 5, DEFAULT_SEED),
    ]


WORKLOADS: dict[str, Callable[[int, Path, Any], list[Op]]] = {
    "dense-extend": dense_setup,
    "survey": survey_setup,
    "outer-audit": audit_setup,
    "cover-queries": queries_setup,
}
