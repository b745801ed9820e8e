"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines.  Every tolerance is pinned here: interval identities at 1e-12, all
finite-set checks at exact rational equality (no tolerance at all).
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import power_set_coat
from quasimeasure import (
    GroundSet,
    Interval,
    IntervalSet,
    canonical_negative_instance,
    check_alt_conditions,
    check_axioms,
    check_outer_properties,
    exp_eval,
    extend,
    induce,
    instance_spec_from,
    is_caratheodory_measurable,
    outer,
    outer_exhaustive,
    random_algebra_instance,
    random_instance,
    render_instance,
    verify_example_axioms,
    verify_premeasure,
)
from quasimeasure.cli import main
from quasimeasure.testkit import instance_for_seed

TOL = 1e-12


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.1f}s, limit {limit_seconds}s"
    )
    print(f"ACCEPTANCE {number}: PASS - {description} [{elapsed:.2f}s]")


def test_criterion_1_example_reproduction():
    with criterion(1, "exponential closed forms reproduce", 1.0):
        assert abs(exp_eval(IntervalSet.of(Interval.closed(0.0, math.log(2)))) - 0.5) <= TOL
        assert exp_eval(IntervalSet.empty()) == 0.0
        assert exp_eval(IntervalSet.half_line()) == 1.0
        two_piece = IntervalSet.of(
            Interval.closed_open(0.0, 1.0), Interval.open_closed(2.0, 3.0)
        )
        expected = 1 - math.exp(-1) + math.exp(-2) - math.exp(-3)
        assert abs(exp_eval(two_piece) - expected) <= TOL


def test_criterion_2_example_axiom_suite():
    with criterion(2, "exponential axiom suite: 1000 samples, zero failures", 5.0):
        report = verify_example_axioms(sample_count=1000, seed=0, tol=1e-12)
        assert report.passed
        assert all(r.witnesses == () for r in report.results)


def test_criterion_3_extension_property():
    with criterion(3, "every restricted-passing instance extends additively (>=500)", 120.0):
        passing = 0
        for seed in range(1400):
            qm = instance_for_seed(seed, n_max=5, coat_max=8)
            assert qm.ground.n <= 5 and len(qm.coat) <= 8
            if not check_axioms(qm, variant="restricted").passed:
                continue
            passing += 1
            report = verify_premeasure(extend(qm))
            assert report.passed, f"extension additivity failed at seed {seed}"
            if passing >= 500:
                break
        assert passing >= 500


def test_criterion_4_negative_instance_detection():
    with criterion(4, "canonical negative instance: axiom, additivity, splitting failures", 1.0):
        _, coat, qm = canonical_negative_instance()
        ground = qm.ground
        a_mask = ground.subset(["1", "2"])
        b_mask = ground.subset(["2", "3"])

        # (a) restricted envelope failure with witness X={1,2}, Y={2,3}
        report = check_axioms(qm, variant="restricted")
        assert not report.passed
        witness = report.result("meet-envelope").witnesses[0]
        assert witness.set_named("X") == a_mask
        assert witness.set_named("Y") == b_mask
        assert witness.lhs == Fraction(1, 4)

        # (b) extension additivity failure: 1/2 + 1/2 = 1 != 1/2
        one = outer(qm, ground.subset(["1"]))[0]
        two = outer(qm, ground.subset(["2"]))[0]
        both = outer(qm, a_mask)[0]
        assert one + two == Fraction(1)
        assert both == Fraction(1, 2)
        assert one + two != both
        ver = verify_premeasure(extend(qm))
        pair = ver.result("pair-additivity").witnesses[0]
        assert {pair.set_named("E1"), pair.set_named("E2")} == {
            ground.subset(["1"]), ground.subset(["2"])
        }

        # (c) the overlapping coat members are not splitting-measurable.
        # The violating pairing puts the 1/2 + 1/2 = 1 sum against 1/2:
        # splitting A={2,3} through W={1,2} (equivalently A={1,2} through
        # W={2,3}); the identity does hold at A=W={1,2} itself.
        measurable, counterexample = is_caratheodory_measurable(qm, a_mask)
        assert not measurable and counterexample == b_mask
        measurable, counterexample = is_caratheodory_measurable(qm, b_mask)
        assert not measurable and counterexample == a_mask
        split = outer(qm, a_mask & b_mask)[0] + outer(qm, a_mask.difference(b_mask))[0]
        assert split == Fraction(1)
        assert outer(qm, a_mask)[0] == Fraction(1, 2)


def test_criterion_5_outer_property_suite():
    with criterion(5, "exterior-value properties hold exhaustively on 100 instances", 60.0):
        for seed in range(100):
            n = 2 + seed % 4
            if seed % 2:
                _, _, qm = random_instance(seed, n=n, coat_size=3 + seed % 6)
            else:
                _, _, qm = random_algebra_instance(seed, n=n)
            report = check_outer_properties(qm)
            assert report.passed, f"outer properties failed at seed {seed}"
            assert any("exhaustive" in note for note in report.notes)


def test_criterion_6_alt_condition_implication():
    with criterion(6, "alt-condition passers satisfy the restricted axioms (>=200)", 120.0):
        accepted = 0
        for seed in range(2000):
            qm = instance_for_seed(seed, n_max=5, coat_max=8)
            if not check_alt_conditions(qm).passed:
                continue
            accepted += 1
            assert check_axioms(
                qm, variant="restricted", cover_mode="all"
            ).passed, f"implication failed at seed {seed}"
            if accepted >= 200:
                break
        assert accepted >= 200


def test_criterion_7_oracle_equivalence():
    with criterion(7, "optimizer equals exhaustive enumeration on all targets", 60.0):
        for seed in range(50):
            n = 3 + seed % 3
            _, _, qm = random_instance(seed, n=n, coat_size=10)
            assert len(qm.coat) <= 10
            for bits in range(1 << n):
                target = qm.ground.mask(bits)
                fast = outer(qm, target)[0]
                slow = outer_exhaustive(qm, target)[0]
                assert fast == slow, f"seed {seed}, target {target}"


def test_criterion_8_ground_truth_recovery():
    with criterion(8, "power-set extensions reproduce the measure exactly", 60.0):
        for seed in range(100):
            n = 1 + seed % 5
            ground = GroundSet(tuple(str(i + 1) for i in range(n)))
            tm = random_instance(seed, n=n)[0]
            qm = induce(tm, power_set_coat(ground))
            table = extend(qm)
            for member in table.algebra:
                assert table.value(member) == tm.mass(member)


def test_criterion_9_report_determinism(tmp_path):
    with criterion(9, "identical runs produce byte-identical machine reports", 30.0):
        _, _, qm = canonical_negative_instance()
        doc = render_instance(instance_spec_from(qm))
        instance = tmp_path / "instance.qm"
        instance.write_text(doc, encoding="utf-8")
        invocations = [
            ["check", str(instance)],
            ["check", str(instance), "--variant", "literal"],
            ["outer", str(instance), "--set", "2"],
            ["extend", str(instance)],
            ["example", "--samples", "200", "--seed", "1"],
            ["search", "--seeds", "0..30"],
        ]
        for i, argv in enumerate(invocations):
            first = tmp_path / f"run{i}a.jsonl"
            second = tmp_path / f"run{i}b.jsonl"
            code_a = main([*argv, "--format", "machine", "--out", str(first)])
            code_b = main([*argv, "--format", "machine", "--out", str(second)])
            assert code_a == code_b
            assert first.read_bytes() == second.read_bytes()
            assert first.read_bytes().strip()
