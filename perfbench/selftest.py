"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer, layer_table, op_balance_error  # noqa: E402


class GenerateCapture(NullTracer):
    """Untraced, but renders every instance the set-up generates."""

    def __init__(self) -> None:
        self.documents: list[bytes] = []

    def call(self, name, fn, *args, **kwargs):
        result = fn(*args, **kwargs)
        if name == "testkit.generate":
            qm = result[2] if isinstance(result, tuple) else result
            self.documents.append(workloads.render(NullTracer(), qm, None).encode("utf-8"))
        return result


def rendered(workload: str, seed: int, workdir: Path) -> list[bytes]:
    workdir.mkdir()
    capture = GenerateCapture()
    workloads.WORKLOADS[workload](seed, workdir, capture)
    files = [p.read_bytes() for p in sorted(workdir.glob("*.qm"))]
    return capture.documents + files


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_instance_files(workload, tmp_path):
    first = rendered(workload, 5, tmp_path / "a")
    assert first
    assert rendered(workload, 5, tmp_path / "b") == first
    assert rendered(workload, 6, tmp_path / "c") != first


def small_dense_op(tmp_path: Path, kind: str = "singleton"):
    seed = 11
    if kind == "singleton":
        tm, _, qm = workloads.singleton_coat_instance(seed, 5)
    else:
        tm, _, qm = workloads.random_instance(seed, n=5, coat_size=6)
    path = tmp_path / f"{kind}.qm"
    path.write_text(workloads.render(NullTracer(), qm, seed), encoding="utf-8")
    return workloads.dense_op(f"dense/{kind}", path, tmp_path, tm, qm, kind, seed)


def run_args(**overrides) -> argparse.Namespace:
    args = dict(workload="dense-extend", seed=12345, seconds=0.0, trace=0)
    args.update(overrides)
    return argparse.Namespace(**args)


@pytest.mark.parametrize("kind", ["singleton", "random"])
def test_clean_dense_op_passes_its_checks(kind, tmp_path):
    op = small_dense_op(tmp_path, kind)
    result = worker.measure([op], run_args(), NullTracer())
    assert result["attempted"] == 1
    assert result["failed"] == 0 and not result["failures"]


def test_corrupted_report_byte_is_a_failed_op(tmp_path):
    op = small_dense_op(tmp_path)
    clean_run = op.run

    def corrupting_run(tracer):
        output = clean_run(tracer)
        report = tmp_path / "dense_singleton.extend.jsonl"
        data = bytearray(report.read_bytes())
        at = data.index(b'"value":"') + len(b'"value":"')
        data[at] = ord("7") if data[at] != ord("7") else ord("3")
        report.write_bytes(bytes(data))
        return output

    op.run = corrupting_run
    (tmp_path / "other").mkdir()
    result = worker.measure([op, small_dense_op(tmp_path / "other", "random")], run_args(), NullTracer())
    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert "differs from the measure" in result["failures"][0]


def test_wrong_exit_code_is_a_failed_op(tmp_path):
    op = small_dense_op(tmp_path)
    clean_run = op.run
    op.run = lambda tracer: tuple(1 - rc for rc in clean_run(tracer))
    result = worker.measure([op], run_args(), NullTracer())
    assert result["failed"] == 1
    assert "exit code" in result["failures"][0]


def test_raising_op_is_counted_and_the_run_goes_on(tmp_path):
    op = small_dense_op(tmp_path)
    broken = workloads.Op("broken", lambda tracer: 1 / 0, op.finish, op.check)
    result = worker.measure([broken, op], run_args(), NullTracer())
    assert result["attempted"] == 2 and result["failed"] == 1
    assert "ZeroDivisionError" in result["failures"][0]


def test_times_are_quoted_at_the_reference_speed(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "reference_loop", lambda: 2 * worker.REFERENCE_S)
    result = worker.measure([small_dense_op(tmp_path)], run_args(), NullTracer())
    assert result["slowdowns"] == [2.0]
    assert result["wall_s"] == pytest.approx(result["wall_raw_s"] / 2)


def test_untraced_run_records_no_spans(tmp_path):
    tracer = Tracer()
    ops = workloads.warmup_ops(tmp_path, NullTracer())
    worker.measure(ops, run_args(), tracer)
    assert tracer.spans == [] and not tracer.counts


def test_traced_run_self_times_add_up_per_op(tmp_path):
    tracer = Tracer()
    ops = workloads.warmup_ops(tmp_path, NullTracer())
    result = worker.measure(ops, run_args(trace=1), tracer)
    assert result["failed"] == 0
    assert result["traced_passes"] == 1
    ops_traced = [s for s in tracer.spans if s[0] == "op"]
    assert len(ops_traced) == len(ops)
    assert op_balance_error(tracer.spans) < 1e-9
    table = layer_table(tracer, result["traced_passes"])
    values = worker.per_layer_values(table, result["overhead_s"])
    assert set(values) == set(worker.per_layer_units())
    assert values["cover.outer.calls"] == 1 and values["intervals.samples"] == 5


def test_benchmark_json_matches_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.per_layer_units()
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "latency_s.p50", "peak_rss_mib"]


def test_without_the_sources_the_benchmark_refuses(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "survey", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
