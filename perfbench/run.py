"""Benchmark of the quasimeasure pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload survey --seed 3 --seconds 10 --trace 0

Run from the root of a checkout.  The workload runs in a child process of
its own (``worker.py``), so peak memory belongs to that workload alone.  An
untraced run (``--trace 0``) reports the end-to-end metrics, its times at
a fixed reference speed gauged alongside the program (see ``worker.py``);
set-up time is the median of three processes, two of which only set up.
The seconds as measured are printed as well.  A traced run
(``--trace 1``) reports the per-layer metrics and writes the span file.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("dense-extend", "survey", "outer-audit", "cover-queries")
DEFAULT_SEED = 0
SETUP_ONLY_PROCESSES = 2
TIME_LIMIT_S = 170.0
P90_MIN_OPS = 100


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest(root: Path) -> str:
    """SHA-256 over the library sources, naming the code measured even
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "seed": seed,
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(ROOT),
    }


def spawn(args, mode: str, deadline: float) -> dict:
    """Run the worker once and return its JSON line; raise on any failure."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", mode, "--spawned-at", repr(spawned_at), "--out", str(OUT),
    ]
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store the default seed's output digests as the reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quasimeasure" / "__init__.py").is_file():
        print(f"error: no quasimeasure sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_digests and (args.seed != DEFAULT_SEED or args.trace):
        print("error: digests are recorded for the default seed, untraced", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.record_digests:
            return record_digests(args, deadline)
        setups = []
        if not args.trace:
            setups = [spawn(args, "setup", deadline) for _ in range(SETUP_ONLY_PROCESSES)]
        result = spawn(args, "full", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result)

    env = environment(args.seed)
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "setup_s": metric(statistics.median(r["setup_s"] for r in setups), "s"),
            "wall_s": metric(result["wall_s"], "s"),
            "latency_s.p50": metric(result["latency_p50_s"], "s"),
            "peak_rss_mib": metric(result["peak_rss_mib"], "MiB"),
        }
    correct = result["failed"] == 0 and not result["failures"]
    summary = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
               "metrics": metrics}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes {result['passes']} ops_attempted {result['attempted']} ops_failed {result['failed']}"
          f" ops_failed_frac {result['failed'] / result['attempted']:.6g}")
    for message in result["failures"]:
        print(f"FAILED {message}")
    if not args.trace:
        slowdowns = ", ".join(f"{x:.3g}" for x in result["slowdowns"])
        print(f"times at the reference speed; machine slowdown per pass: {slowdowns}")
        print(f"as measured: setup_s {statistics.median(r['setup_raw_s'] for r in setups):.6g} s,"
              f" wall_s {result['wall_raw_s']:.6g} s")
    per_op = f"n={result['latency_n']} ops, each the median of {result['passes']} passes"
    samples = {"setup_s": f"n={len(setups)} processes", "wall_s": per_op, "latency_s.p50": per_op}
    for name, m in metrics.items():
        n = f" ({samples[name]})" if name in samples else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{n}")
    if not args.trace and result["latency_n"] >= P90_MIN_OPS:
        print(f"latency_s.p90 {result['latency_p90_s']:.6g} s ({per_op})")
    if args.trace:
        print(f"spans {result['spans']} written to {result['span_file']};"
              f" largest op self-time imbalance {result['balance_error_s']:.3g} s")
        print(f"{'layer':40s} {'calls':>10s} {'busy_s':>10s} {'self_s':>10s}")
        for name, row in sorted(result["layers"]["layers"].items()):
            print(f"{name:40s} {row['calls']:10.4g} {row['busy_s']:10.4g} {row['self_s']:10.4g}")

    record = dict(result, environment=env, summary=summary)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


def record_digests(args, deadline: float) -> int:
    result = spawn(args, "record", deadline)
    if "failures" in result:
        for message in result["failures"]:
            print(f"FAILED {message}", file=sys.stderr)
        return 1
    path = HERE / "digests.json"
    stored = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    stored[args.workload] = result["digests"]
    path.write_text(json.dumps(stored, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"stored {len(result['digests'])} digests for {args.workload} in {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
