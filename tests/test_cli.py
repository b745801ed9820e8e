import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasimeasure import (
    Coat,
    GroundSet,
    TrueMeasure,
    canonical_negative_instance,
    cli,
    extension,
    induce,
    instance_io,
    instance_spec_from,
    perturb,
    random_algebra_instance,
    random_instance,
)
from quasimeasure.cli import main
from quasimeasure.instance_io import (
    ParseError,
    parse_instance,
    render_instance,
    resolve_target,
)
from quasimeasure.sets import MAX_GROUND_SIZE

# CLI subprocesses import the package from where this process found it.
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}

UNIFORM_DOC = """\
# canonical failing instance
ground: 1 2 3 4
set A: 1 2
set B: 2 3
coat: empty omega A B
value empty: 0/1
value omega: 1/1
value A: 1/2
value B: 1/2
value A&B: 1/4        # refinement element by expression; resolved to a mask
value A&!B: 1/4
value B&!A: 1/4
value omega&!A: 1/2
value omega&!B: 1/2
"""

POWER_SET_DOC = """\
ground: 1 2 3
set A: 1
set B: 2
set C: 3
set AB: 1 2
set AC: 1 3
set BC: 2 3
coat: empty omega A B C AB AC BC
value empty: 0/1
value omega: 1/1
value A: 1/2
value B: 1/4
value C: 1/4
value AB: 3/4
value AC: 3/4
value BC: 1/2
"""


@pytest.fixture
def uniform_path(tmp_path):
    path = tmp_path / "uniform.qm"
    path.write_text(UNIFORM_DOC, encoding="utf-8")
    return str(path)


@pytest.fixture
def power_set_path(tmp_path):
    path = tmp_path / "power.qm"
    path.write_text(POWER_SET_DOC, encoding="utf-8")
    return str(path)


class TestParsing:
    def test_document_matches_programmatic_instance(self):
        spec = parse_instance(UNIFORM_DOC)
        _, coat, qm = spec.build()
        _, ref_coat, ref_qm = canonical_negative_instance()
        assert coat.member_bits() == ref_coat.member_bits()
        assert qm.values == ref_qm.values
        assert spec.seed is None

    def test_value_outside_unit_interval(self):
        doc = UNIFORM_DOC.replace("value A: 1/2", "value A: 5/4")
        with pytest.raises(ParseError, match="value outside \\[0,1\\]"):
            parse_instance(doc)

    def test_negative_value_reports_line(self):
        doc = UNIFORM_DOC.replace("value A: 1/2", "value A: -1/2")
        with pytest.raises(ParseError, match=re.escape("line 8: value outside [0,1]: -1/2")):
            parse_instance(doc)

    def test_build_rejections_keep_their_messages(self):
        cases = (
            (UNIFORM_DOC + "set D: 1 3\nvalue D: 1/2\n",
             "value assigned to a set outside the refinement: 'D'"),
            (UNIFORM_DOC + "value omega&!A&B: 1/8\n",
             "conflicting values for 'omega&!A&B': 1/4 vs 1/8"),
            (UNIFORM_DOC.replace("value B&!A: 1/4\n", "").replace("value omega&!B: 1/2\n", ""),
             "missing values for refinement members: {1,4} {3}"),
            (UNIFORM_DOC + "value A&!: 1/4\n", "empty operand in expression"),
            (UNIFORM_DOC + "value A&Z: 1/4\n", "unknown set name 'Z'"),
        )
        for doc, message in cases:
            with pytest.raises(ParseError) as info:
                parse_instance(doc)
            assert str(info.value) == message

    def test_values_are_keyed_by_refinement_members_in_line_order(self):
        qm = parse_instance(UNIFORM_DOC + "value omega&!A&B: 1/4\n").build()[2]
        assert [str(m) for m in qm.values] == [
            "{}", "{1,2,3,4}", "{1,2}", "{2,3}", "{2}", "{1}", "{3}", "{3,4}", "{1,4}"]
        members = {m.bits: m for m in qm.refinement.members}
        assert all(members[m.bits] is m for m in qm.values)

    def test_missing_omega_in_coat(self):
        doc = UNIFORM_DOC.replace("coat: empty omega A B", "coat: empty A B")
        with pytest.raises(ParseError, match="coat must contain omega"):
            parse_instance(doc)

    def test_missing_empty_in_coat(self):
        doc = UNIFORM_DOC.replace("coat: empty omega A B", "coat: omega A B")
        with pytest.raises(ParseError, match="coat must contain empty"):
            parse_instance(doc)

    def test_duplicate_set_definition(self):
        doc = UNIFORM_DOC.replace("set B: 2 3", "set B: 2 3\nset A: 3 4")
        with pytest.raises(ParseError, match="duplicate set definition"):
            parse_instance(doc)

    def test_unknown_element_label(self):
        doc = UNIFORM_DOC.replace("set A: 1 2", "set A: 1 9")
        with pytest.raises(ParseError, match="unknown element label"):
            parse_instance(doc)

    def test_value_outside_refinement(self):
        doc = UNIFORM_DOC + "set D: 1 3\nvalue D: 1/2\n"
        with pytest.raises(ParseError, match="outside the refinement"):
            parse_instance(doc)

    def test_conflicting_values_for_same_mask(self):
        # B&!A and omega&!A&B denote the same set {3}.
        doc = UNIFORM_DOC + "value omega&!A&B: 1/8\n"
        with pytest.raises(ParseError, match="conflicting values"):
            parse_instance(doc)

    def test_agreeing_duplicate_is_accepted(self):
        doc = UNIFORM_DOC + "value omega&!A&B: 1/4\n"
        parse_instance(doc)

    def test_missing_refinement_value(self):
        doc = UNIFORM_DOC.replace("value omega&!B: 1/2\n", "")
        with pytest.raises(ParseError, match="missing values"):
            parse_instance(doc)

    def test_syntax_error_reports_line(self):
        doc = "ground: 1 2\nnot a directive\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_instance(doc)

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="unknown directive"):
            parse_instance("ground: 1\nfrob: 3\n")

    def test_duplicate_ground(self):
        with pytest.raises(ParseError, match="duplicate ground"):
            parse_instance("ground: 1\nground: 2\n")

    def test_duplicate_seed(self):
        doc = UNIFORM_DOC + "seed: 1\nseed: 2\n"
        with pytest.raises(ParseError, match="duplicate seed directive") as info:
            parse_instance(doc)
        assert info.value.line == len(doc.splitlines())

    def test_malformed_rational(self):
        doc = UNIFORM_DOC.replace("value A: 1/2", "value A: 0.5")
        with pytest.raises(ParseError, match="malformed rational"):
            parse_instance(doc)

    def test_overlong_rational_reports_line(self):
        # 5,000 digits exceed Python's int-from-string limit
        doc = UNIFORM_DOC.replace("value A: 1/2", "value A: " + "1" * 5000 + "/2")
        with pytest.raises(ParseError, match="line 8") as info:
            parse_instance(doc)
        assert info.value.line == 8

    def test_non_utf8_input_reports_line(self, tmp_path, capsys):
        path = tmp_path / "latin.qm"
        path.write_bytes(UNIFORM_DOC.replace("set B: 2 3", "set B: 2 \xff3").encode("latin-1"))
        assert main(["check", str(path)]) == 2
        assert "line 4: input is not UTF-8" in capsys.readouterr().err

    def test_seed_line_roundtrips(self):
        doc = UNIFORM_DOC + "seed: 42\n"
        spec = parse_instance(doc)
        assert spec.seed == 42
        assert parse_instance(render_instance(spec)) == spec


    def test_build_returns_the_instance_parsing_built(self):
        spec = parse_instance(UNIFORM_DOC)
        assert spec.build()[2] is spec.build()[2]
        unbuilt = dataclasses.replace(spec)
        assert (spec, hash(spec), repr(spec)) == (unbuilt, hash(unbuilt), repr(unbuilt))


class TestRoundTrip:
    @settings(max_examples=60)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.sampled_from(("random", "algebra", "perturbed")))
    def test_generated_instances_roundtrip(self, seed, n, style):
        if style == "algebra":
            qm = random_algebra_instance(seed, n=n)[2]
        else:
            qm = random_instance(seed, n=n, coat_size=2 + seed % 8)[2]
            if style == "perturbed":
                qm = perturb(qm, seed + 1, max_changes=4)
        spec = instance_spec_from(qm, seed=seed)
        parsed = parse_instance(render_instance(spec))
        assert parsed == spec
        _, coat, rebuilt = parsed.build()
        assert coat.member_bits() == qm.coat.member_bits()
        assert rebuilt.values == qm.values

    def test_rendered_instance_rebuilds_same_values(self):
        _, _, qm = canonical_negative_instance()
        spec = instance_spec_from(qm)
        _, coat, rebuilt = parse_instance(render_instance(spec)).build()
        assert coat.member_bits() == qm.coat.member_bits()
        assert rebuilt.values == qm.values

    @pytest.mark.parametrize("label", ["", "a b", "a#b"])
    def test_labels_the_format_cannot_write_are_refused(self, label):
        # Rendered, "a b" would parse back as two elements and "a#b" as "a".
        ground = GroundSet((label, "c"))
        qm = induce(TrueMeasure.uniform(ground), Coat(ground, (ground.empty(), ground.full())))
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            instance_spec_from(qm)


class TestResolveTarget:
    def test_bare_element_label(self):
        spec = parse_instance(UNIFORM_DOC)
        ground = spec.ground()
        assert resolve_target("2", spec.names(), ground) == ground.subset(["2"])

    def test_label_list(self):
        spec = parse_instance(UNIFORM_DOC)
        ground = spec.ground()
        assert resolve_target("1 3", spec.names(), ground) == ground.subset(["1", "3"])

    def test_expression(self):
        spec = parse_instance(UNIFORM_DOC)
        ground = spec.ground()
        assert resolve_target("A&!B", spec.names(), ground) == ground.subset(["1"])
        assert resolve_target("empty", spec.names(), ground) == ground.empty()

    def test_unknown_target(self):
        spec = parse_instance(UNIFORM_DOC)
        with pytest.raises(ParseError):
            resolve_target("nope", spec.names(), spec.ground())


class TestRun:
    def test_check_passes_on_power_set(self, power_set_path, capsys):
        assert main(["check", power_set_path]) == 0
        out = capsys.readouterr().out
        assert "RESULT axioms: pass" in out

    def test_check_fails_restricted_on_uniform(self, uniform_path, capsys):
        assert main(["check", uniform_path, "--variant", "restricted"]) == 1
        out = capsys.readouterr().out
        assert "meet-envelope" in out
        assert "X={1,2} Y={2,3}" in out

    def test_check_literal_passes(self, uniform_path, capsys):
        assert main(["check", uniform_path, "--variant", "literal"]) == 0
        capsys.readouterr()

    def test_outer_prints_value_and_cover(self, uniform_path, capsys):
        assert main(["outer", uniform_path, "--set", "2"]) == 0
        out = capsys.readouterr().out
        assert "outer {2} = 1/2 cover {1,2}" in out

    def test_extend_fails_on_uniform(self, uniform_path, capsys):
        assert main(["extend", uniform_path]) == 1
        out = capsys.readouterr().out
        assert "pair-additivity" in out
        assert "table {1} = 1/2" in out

    def test_extend_passes_on_power_set(self, power_set_path, capsys):
        assert main(["extend", power_set_path]) == 0
        capsys.readouterr()

    def test_example_subcommand(self, capsys):
        assert main(["example", "--samples", "50", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "RESULT exponential: pass" in out

    def test_search_subcommand(self, capsys):
        assert main(["search", "--seeds", "0..40"]) == 0
        out = capsys.readouterr().out
        assert "search seeds 0..40" in out
        assert "counterexamples []" in out

    def test_input_errors_exit_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.qm")
        assert main(["check", missing]) == 2
        bad = tmp_path / "bad.qm"
        bad.write_text("ground: 1\ncoat: empty\n", encoding="utf-8")
        assert main(["check", str(bad)]) == 2
        capsys.readouterr()

    def test_internal_error_exits_three(self, uniform_path, capsys, monkeypatch):
        # A fault in the program must not look like a failed check (exit 1).
        def broken_algebra(*args, **kwargs):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(extension, "generate_algebra", broken_algebra)
        assert main(["extend", uniform_path]) == 3
        captured = capsys.readouterr()
        assert "RuntimeError: injected fault" in captured.err  # the traceback
        assert captured.err.endswith("\ninternal error: injected fault\n")
        assert captured.out == ""

    @pytest.mark.parametrize("document", [
        UNIFORM_DOC.replace("set B: 2 3", "set B: 2 1"),  # two names for one coat mask
        UNIFORM_DOC.replace("value empty: 0/1", "value empty: 1/2"),
        "ground: " + " ".join(str(i) for i in range(25)) + "\ncoat: empty omega\n"
        "value empty: 0/1\nvalue omega: 1/1\n",
    ])
    def test_invalid_instances_exit_two(self, document, tmp_path, capsys):
        path = tmp_path / "invalid.qm"
        path.write_text(document, encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_nonpositive_tolerance_exits_two(self, capsys):
        assert main(["example", "--tol", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_internal_value_error_exits_three(self, uniform_path, capsys, monkeypatch):
        def broken_verify(*args, **kwargs):
            raise ValueError("injected fault")

        monkeypatch.setattr(cli, "verify_premeasure", broken_verify)
        assert main(["extend", uniform_path]) == 3
        assert capsys.readouterr().err.endswith("\ninternal error: injected fault\n")

    @pytest.mark.parametrize("argv", [
        ["example", "--samples", "0"],
        ["example", "--samples", "-5"],
        ["example", "--tol", "inf"],
        ["example", "--tol", "nan"],
    ])
    def test_flag_values_that_check_nothing_exit_two(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {argv[1]} must be ")

    @pytest.mark.parametrize("seeds", ["5..2", "5..5"])
    def test_empty_seed_range_is_a_usage_error(self, seeds, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--seeds", seeds])
        assert exc.value.code == 2
        assert "--seeds" in capsys.readouterr().err

    def test_builds_each_document_once(self, uniform_path, capsys, monkeypatch):
        refines, refine = [], instance_io.refine

        def counting_refine(coat):
            refines.append(coat)
            return refine(coat)

        monkeypatch.setattr(instance_io, "refine", counting_refine)
        assert main(["check", uniform_path]) == 1
        assert len(refines) == 1
        capsys.readouterr()

    def test_max_n_guard(self, tmp_path, capsys):
        # The parser's MAX_GROUND_SIZE is the one ground-size limit; it names the line.
        path = tmp_path / "wide.qm"
        labels = " ".join(str(i + 1) for i in range(MAX_GROUND_SIZE + 1))
        path.write_text(f"# too wide\nground: {labels}\ncoat: empty omega\n", encoding="utf-8")
        message = f"error: line 2: ground set has 25 elements, more than {MAX_GROUND_SIZE}\n"
        for subcommand, *flags in (["check"], ["outer", "--set", "1"], ["extend"]):
            assert main([subcommand, str(path), *flags]) == 2
            captured = capsys.readouterr()
            assert captured.err == message
            assert captured.out == ""

    def test_ground_sets_up_to_the_size_limit_get_a_result(self, tmp_path, capsys):
        _, _, qm = random_instance(4, n=MAX_GROUND_SIZE, coat_size=5)
        path = tmp_path / "wide.qm"
        path.write_text(render_instance(instance_spec_from(qm)), encoding="utf-8")
        for subcommand, *flags in (["check"], ["outer", "--set", "S1&S2"], ["extend"]):
            assert main([subcommand, str(path), *flags, "--format", "machine"]) in (0, 1)
            records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            assert records[-1]["record"] == "summary"

    def test_oversized_algebra_exits_two(self, tmp_path, capsys):
        ground = GroundSet(tuple(str(i + 1) for i in range(17)))
        coat = Coat.from_bits(ground, [0, ground.full_bits, *(1 << i for i in range(17))])
        path = tmp_path / "singletons.qm"
        path.write_text(render_instance(instance_spec_from(induce(TrueMeasure.uniform(ground), coat))),
                        encoding="utf-8")
        assert main(["extend", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "2**17" in captured.err
        assert captured.out == ""

    def test_outer_requires_known_target(self, uniform_path, capsys):
        assert main(["outer", uniform_path, "--set", "frob"]) == 2
        capsys.readouterr()

    def test_oversized_cover_enumeration_exits_two(self, tmp_path, capsys):
        _, _, qm = random_instance(5, n=5, coat_size=24)
        assert len(qm.coat) > 20
        doc = render_instance(instance_spec_from(qm))
        path = tmp_path / "big.qm"
        path.write_text(doc, encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert "enumeration" in capsys.readouterr().err
        # a bounded cover size keeps the run feasible
        assert main(["check", str(path), "--max-cover", "2"]) in (0, 1)
        capsys.readouterr()


class TestFlags:
    FLAGS = {
        "check": {"--variant", "--cover-mode", "--max-cover", "--format", "--out"},
        "outer": {"--set", "--format", "--out"},
        "extend": {"--format", "--out"},
        "example": {"--samples", "--seed", "--tol", "--format", "--out"},
        "search": {"--seeds", "--variant", "--cover-mode", "--format", "--out"},
    }

    @pytest.mark.parametrize("subcommand", sorted(FLAGS))
    def test_help_lists_only_the_flags_read(self, subcommand, capsys):
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        assert listed == self.FLAGS[subcommand]

    @pytest.mark.parametrize("argv", [
        ["outer", "x.qm", "--set", "2", "--variant", "literal"],
        ["outer", "x.qm", "--set", "2", "--cover-mode", "all"],
        ["outer", "x.qm", "--set", "2", "--max-cover", "1"],
        ["extend", "x.qm", "--variant", "literal"],
        ["extend", "x.qm", "--cover-mode", "all"],
        ["extend", "x.qm", "--max-cover", "1"],
        ["example", "--variant", "literal"],
        ["example", "--cover-mode", "all"],
        ["check", "x.qm", "--max-n", "16"],
        ["example", "--max-cover", "1"],
        ["extend", "x.qm", "--max-n", "16"],
        ["search", "--seeds", "0..2", "--max-cover", "1"],
    ])
    def test_flags_a_subcommand_ignores_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestMachineFormat:
    def test_records_parse_and_have_fixed_keys(self, uniform_path, capsys):
        main(["check", uniform_path, "--format", "machine"])
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        checks = [r for r in records if r["record"] == "check"]
        assert len(checks) == 5
        expected_keys = [
            "record", "suite", "check", "status", "witnesses",
            "witness", "lhs", "rhs", "relation", "note",
        ]
        for record in checks:
            assert list(record.keys()) == expected_keys
        assert records[-1]["record"] == "summary"
        meet = next(r for r in checks if r["check"] == "meet-envelope")
        assert meet["status"] == "fail"
        assert meet["lhs"] == "1/4"

    def test_byte_identical_reports(self, uniform_path, tmp_path):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        for target in (out1, out2):
            code = main([
                "check", uniform_path, "--format", "machine", "--out", str(target),
            ])
            assert code == 1
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes()  # non-empty

    def test_console_entry_point(self, uniform_path):
        proc = subprocess.run(
            [sys.executable, "-m", "quasimeasure.cli", "outer", uniform_path, "--set", "A&B"],
            capture_output=True, text=True, env=CLI_ENV,
        )
        assert proc.returncode == 0
        assert "outer {2} = 1/2" in proc.stdout

    def test_matches_golden_reports(self, tmp_path):
        golden_dir = Path(__file__).parent / "golden"
        instance = tmp_path / "golden_instance.qm"
        instance.write_text(UNIFORM_DOC, encoding="utf-8")
        cases = [
            ("uniform_check.jsonl", ["check", str(instance)]),
            ("uniform_outer.jsonl", ["outer", str(instance), "--set", "2"]),
            ("uniform_extend.jsonl", ["extend", str(instance)]),
        ]
        for golden_name, argv in cases:
            produced = tmp_path / golden_name
            main([*argv, "--format", "machine", "--out", str(produced)])
            assert produced.read_bytes() == (golden_dir / golden_name).read_bytes(), golden_name

    def test_byte_identical_across_processes(self, uniform_path):
        argv = [sys.executable, "-m", "quasimeasure.cli", "check", uniform_path,
                "--format", "machine"]
        first = subprocess.run(argv, capture_output=True, env=CLI_ENV)
        second = subprocess.run(argv, capture_output=True, env=CLI_ENV)
        assert first.returncode == second.returncode == 1
        assert first.stdout == second.stdout
        assert first.stdout.strip()
