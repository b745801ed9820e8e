"""Mutation check of the exact fast paths: every mutant must fail its tests.

Each mutant replaces one piece of text, which must occur exactly once, in one
source file of a temporary copy of the repository, then runs ``pytest -x`` on
the test files that must catch it.  Hypothesis runs under the ``mutants``
profile from ``tests/conftest.py``, which skips shrinking, so a caught
mutant stops at its first failing example.  The unmutated copy runs first
on every listed test file, so a kill never comes from a test that already
fails.

Usage: python mutants/run.py

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when the
baseline fails, a replacement does not match, or pytest errors out.
Only the standard library is needed to run it; the tests need pytest and
hypothesis.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


QUASI = "src/quasimeasure/quasi.py"
EXTENSION = "src/quasimeasure/extension.py"
INTERVALS = "src/quasimeasure/intervals.py"
CLI = "src/quasimeasure/cli.py"
TESTKIT = "src/quasimeasure/testkit.py"
INSTANCE_IO = "src/quasimeasure/instance_io.py"
SETS = "src/quasimeasure/sets.py"
MUTANTS = (
    Mutant("solver-weight-skip-ties", QUASI,
           "if best is not None and weight > best[0]:",
           "if best is not None and weight >= best[0]:",
           ("tests/test_cover.py",)),
    Mutant("solver-cost-skip-ties", QUASI,
           "if best is not None and cost > best[0]:",
           "if best is not None and cost >= best[0]:",
           ("tests/test_cover.py",)),
    Mutant("solver-tie-key-drops-indices", QUASI,
           "if size > 0 or size == 0 and not chosen & d & -d:",
           "if size >= 0:",
           ("tests/test_cover.py",)),
    Mutant("solver-tie-from-the-wrong-set", QUASI,
           "not chosen & d & -d:",
           "not best[1] & d & -d:",
           ("tests/test_cover.py",)),
    Mutant("solver-skips-memo-read", QUASI,
           "return self._memo.get(target_bits) or self._solve(target_bits)",
           "return self._solve(target_bits)",
           ("tests/test_cover.py",)),
    Mutant("solver-exact-weights-try-every-meeting-entry", QUASI,
           "if self._lowest_only:",
           "if False:",
           ("tests/test_cover.py",)),
    Mutant("solver-candidates-in-entry-order", QUASI,
           "self._by_weight = sorted(entries, key=operator.itemgetter(2))",
           "self._by_weight = list(entries)",
           ("tests/test_cover.py",)),
    Mutant("solver-float-weights-branch-on-lowest", QUASI,
           "self._lowest_only = not isinstance(zero, float)",
           "self._lowest_only = True",
           ("tests/test_intervals.py",)),
    Mutant("cover-bound-gate-needs-two-undercut", QUASI,
           "if not undercut:",
           "if len(undercut) < 2:",
           ("tests/test_quasi.py",)),
    Mutant("cover-bound-cost-gate-takes-min", QUASI,
           "top = max(num[x]",
           "top = min(num[x]",
           ("tests/test_quasi.py",)),
    Mutant("envelope-containment-swapped", QUASI,
           "if m & ~w == 0:",
           "if w & ~m == 0:",
           ("tests/test_quasi.py",)),
    Mutant("envelope-equal-value-becomes-ge", QUASI,
           "if vw == v:",
           "if vw >= v:",
           ("tests/test_quasi.py",)),
    Mutant("meet-squeeze-drops-inner-set", QUASI,
           "if not (meet in inside and meet in around):",
           "if meet not in inside:",
           ("tests/test_quasi.py",)),
    Mutant("monotone-comparison-flipped", QUASI,
           "if diff == 0 and num[x] > num[y]:",
           "if diff == 0 and num[x] < num[y]:",
           ("tests/test_quasi.py",)),
    Mutant("pair-record-swaps-x-and-y", QUASI,
           "i, j = divmod(record, len(bits))",
           "j, i = divmod(record, len(bits))",
           ("tests/test_quasi.py",)),
    Mutant("cover-walk-size-cap-off-by-one", QUASI,
           "if size < max_cover_size:",
           "if size <= max_cover_size:",
           ("tests/test_quasi.py",)),
    Mutant("atom-sum-gate-checks-omega-only", EXTENSION,
           "return subset_table(atom_values, operator.add) == list(nums)",
           "return subset_table(atom_values, operator.add)[-1] == nums[-1]",
           ("tests/test_extension.py",)),
    Mutant("measurable-family-certifies-every-table", EXTENSION,
           "certified = _atom_sums_agree(table)",
           "certified = True",
           ("tests/test_extension.py",)),
    Mutant("hull-maps-an-element-to-its-neighbours-atom", EXTENSION,
           "if atom >> i & 1)",
           "if atom >> (i ^ 1) & 1)",
           ("tests/test_extension.py",)),
    Mutant("coat-agreement-one-sided", QUASI,
           "if v != qm.numerators[x]]",
           "if v > qm.numerators[x]]",
           ("tests/test_cover.py",)),
    Mutant("overlapping-split-one-sided", INTERVALS,
           "if abs(lhs - rhs) > tol:",
           "if lhs - rhs > tol:",
           ("tests/test_intervals.py",)),
    Mutant("split-rhs-reassociated", INTERVALS,
           "rhs = meet + ((su - sa) + (sb - sv))",
           "rhs = meet + (su - sa) + (sb - sv)",
           ("tests/test_intervals.py",)),
    Mutant("interval-mask-drops-open-left-offset", INTERVALS,
           "lo = 2 * pos[c.left] + (not c.left_closed)",
           "lo = 2 * pos[c.left]",
           ("tests/test_intervals.py",)),
    Mutant("interval-mask-drops-open-right-offset", INTERVALS,
           "hi = 2 * pos[c.right] - (not c.right_closed)",
           "hi = 2 * pos[c.right]",
           ("tests/test_intervals.py",)),
    Mutant("family-drops-two-piece-tail", INTERVALS,
           "    ((True, False, False), (False, False, True)),  # [u, a) with (b, inf)\n",
           "",
           ("tests/test_intervals.py",)),
    Mutant("row-value-drops-gcd", CLI,
           "for g in [math.gcd(v, scale)]",
           "for g in [1]",
           ("tests/test_cli.py",)),
    Mutant("machine-rows-skip-label-escaping", CLI,
           "labels, names = [json.dumps(s)[1:-1] for s in labels], [json.dumps(s)[1:-1] for s in names]",
           "names = [json.dumps(s)[1:-1] for s in names]",
           ("tests/test_cli.py",)),
    Mutant("row-text-first-byte-drops-bit-7", CLI,
           "table[m & 255]",
           "table[m & 127]",
           ("tests/test_cli.py",)),
    Mutant("row-text-later-byte-drops-bit-7", CLI,
           "table[m >> start & 255]",
           "table[m >> start & 127]",
           ("tests/test_cli.py",)),
    Mutant("outer-row-mask-drops-first-index", CLI,
           "sum(1 << i for i in solution.chosen)",
           "sum(1 << i for i in solution.chosen[1:])",
           ("tests/test_cli.py",)),
    Mutant("bit-indices-off-by-one", SETS,
           "indices.append((mask & -mask).bit_length() - 1)",
           "indices.append((mask & -mask).bit_length())",
           ("tests/test_cli.py",)),
    Mutant("table-range-check-drops-the-upper-bound", EXTENSION,
           "if min(self.numerators) < 0 or max(self.numerators) > self.scale:",
           "if min(self.numerators) < 0:",
           ("tests/test_extension.py",)),
    Mutant("induce-mid-table-shift-off-by-one", TESTKIT,
           "mid[b >> 8 & 255]",
           "mid[b >> 7 & 255]",
           ("tests/test_testkit.py",)),
    Mutant("validator-drops-the-upper-bound", QUASI,
           "if not 0 <= numerator <= scale:",
           "if not 0 <= numerator:",
           ("tests/test_quasi.py",)),
    Mutant("from-numerators-skips-gcd", QUASI,
           "divisor = math.gcd(scale, *numerators.values())",
           "divisor = 1",
           ("tests/test_quasi.py",)),
    Mutant("disjoint-triples-skip-k-after-j", EXTENSION,
           "k = 1 << j.bit_length()",
           "k = 2 << j.bit_length()",
           ("tests/test_extension.py",)),
    Mutant("sampled-triple-table-empties-one-size", EXTENSION,
           "    11: (",
           "    11: (), 0: (",
           ("tests/test_extension.py",)),
    Mutant("sampled-triple-unpack-swaps-j-and-k", EXTENSION,
           "t >> shift & low, t & low)",
           "t & low, t >> shift & low)",
           ("tests/test_extension.py",)),
    Mutant("search-skips-agreement", TESTKIT,
           "if verification.passed and _agrees(table, qm):",
           "if verification.passed:",
           ("tests/test_cli.py",)),
    Mutant("perturb-skips-rescale", TESTKIT,
           "numerators = {b: v * (lcm // scale) for b, v in numerators.items()}",
           "numerators = dict(numerators)",
           ("tests/test_testkit.py",)),
    Mutant("true-measure-sum-check-le", TESTKIT,
           "if sum(ints) != scale:",
           "if not sum(ints) <= scale:",
           ("tests/test_testkit.py",)),
    Mutant("spec-skips-repeated-label-check", INSTANCE_IO,
           "if len(set(labels)) != len(labels):",
           "if False:",
           ("tests/test_cli.py",)),
    Mutant("spec-reserves-only-omega", INSTANCE_IO,
           "if name in RESERVED_NAMES:",
           'if name == "omega":',
           ("tests/test_cli.py",)),
    Mutant("spec-admits-values-above-one", INSTANCE_IO,
           "if not 0 <= value.numerator <= value.denominator:",
           "if not 0 <= value.numerator:",
           ("tests/test_cli.py",)),
)


def pytest_in_copy(tests: tuple[str, ...], mutant: Mutant | None = None) -> int:
    """Run ``pytest -x`` on ``tests`` in a fresh copy, with ``mutant`` applied; -1 if it does not match."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        if mutant is not None:
            source = copy / mutant.path
            text = source.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                return -1
            source.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "--hypothesis-profile", "mutants", *tests]
        return subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode


def main() -> int:
    started = time.perf_counter()
    tests = tuple(sorted({t for m in MUTANTS for t in m.tests}))
    if pytest_in_copy(tests) != 0:
        print(f"baseline: the unmutated tests fail: {' '.join(tests)}", file=sys.stderr)
        return 2
    outcomes = []
    for mutant in MUTANTS:
        code = pytest_in_copy(mutant.tests, mutant)
        outcome = {-1: "unmatched", 0: "SURVIVED", 1: "killed"}.get(code, f"error (pytest exit {code})")
        outcomes.append(outcome)
        print(f"{outcome:<10} {mutant.name}", flush=True)
    print(f"{outcomes.count('killed')}/{len(MUTANTS)} killed in {time.perf_counter() - started:.0f} s")
    if all(o == "killed" for o in outcomes):
        return 0
    return 1 if "SURVIVED" in outcomes else 2


if __name__ == "__main__":
    sys.exit(main())
