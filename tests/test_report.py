from fractions import Fraction

import pytest

from quasimeasure.report import AxiomReport, CheckResult, ReportBuilder, Witness, WitnessRecords

WITNESS = Witness((("X", "{1}"),), Fraction(1), Fraction(0), "eq")


def test_builder_preserves_declaration_order():
    rb = ReportBuilder("demo")
    rb.declare("first", "second", "third")
    rb.fail("second", Witness((("X", "{1}"),), Fraction(1), Fraction(0), "eq"))
    report = rb.build()
    assert [r.name for r in report.results] == ["first", "second", "third"]
    assert report.result("first").passed
    assert not report.result("second").passed
    assert not report.passed
    assert [r.name for r in report.failures()] == ["second"]


def test_passing_check_cannot_carry_witnesses():
    # The verdict is derived from the witnesses, so it cannot disagree with them.
    assert CheckResult("x").passed
    assert not CheckResult("x", (Witness((), Fraction(0), None, "exists"),)).passed


def test_unknown_check_name():
    report = AxiomReport("demo", ())
    with pytest.raises(KeyError):
        report.result("nope")


def test_witness_render_shapes():
    eq = Witness((("X", "{1}"), ("Y", "{2}")), Fraction(1, 2), Fraction(1), "eq")
    assert eq.render() == "X={1} Y={2} 1/2 != 1"
    le = Witness((("A", "{1}"),), Fraction(3, 4), Fraction(1, 2), "le", note="cap")
    assert le.render() == "A={1} 3/4 > 1/2 cap"
    exists = Witness((("meet", "{2}"),), Fraction(1, 4), None, "exists", note="no envelope")
    assert exists.render() == "meet={2} value 1/4: no envelope"


def test_witness_records_are_unequal_to_a_list_of_their_witnesses():
    records = WitnessRecords([0, 1], lambda record: WITNESS)
    assert records == (WITNESS, WITNESS)
    assert records != [WITNESS, WITNESS] and [WITNESS, WITNESS] != records


def test_fail_each_refuses_a_check_that_already_holds_witnesses():
    rb = ReportBuilder("demo")
    rb.fail("only", WITNESS)
    with pytest.raises(ValueError, match="^check 'only' already holds witnesses$"):
        rb.fail_each("only", [0], lambda record: WITNESS)


def test_notes_survive_build():
    rb = ReportBuilder("demo")
    rb.declare("only")
    rb.note("context")
    report = rb.build()
    assert report.result("only").passed
    assert report.notes == ("context",)
