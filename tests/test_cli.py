import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasimeasure import (
    Coat,
    CoverSolution,
    GroundSet,
    TrueMeasure,
    canonical_negative_instance,
    cli,
    extend,
    extension,
    induce,
    instance_io,
    instance_spec_from,
    outer,
    perturb,
    random_algebra_instance,
    random_instance,
    testkit,
)
from quasimeasure.cli import main
from quasimeasure.instance_io import (
    InstanceSpec,
    ParseError,
    format_rational,
    parse_instance,
    render_instance,
    resolve_target,
)
from quasimeasure.sets import MAX_GROUND_SIZE, bit_indices

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


# Tokens a document can hold; the edits below make valid and invalid specs of them.
NAME_TOKENS = ("S1", "S2", "T", "empty", "omega", "A&B", "!T")
LABEL_TOKENS = ("1", "2", "3", "9", "é")
EXPRESSION_TOKENS = ("S1", "S1&S2", "S1&!S2", "omega&!S1", "T", "&S1", "S1&", "!", "empty", "omega")
VALUE_TOKENS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(-1, 4))


def edited(draw, items, tokens):
    """``items`` with one token inserted, replaced or deleted."""
    items = list(items)
    i = draw(st.integers(0, len(items)))
    kind = draw(st.sampled_from(("insert", "replace", "delete")))
    if kind == "insert" or i == len(items):
        items.insert(i, draw(tokens))
    elif kind == "replace":
        items[i] = draw(tokens)
    else:
        del items[i]
    return tuple(items)


@st.composite
def edited_specs(draw):
    """The canonical spec of a small random instance, after up to three edits."""
    seed = draw(st.integers(0, 10**4))
    spec = instance_spec_from(random_instance(seed, n=draw(st.integers(1, 3)), coat_size=2 + seed % 4)[2])
    set_def = st.tuples(st.sampled_from(NAME_TOKENS), st.lists(st.sampled_from(LABEL_TOKENS), max_size=3)
                        .map(tuple))
    edits = {
        "ground_labels": st.sampled_from(LABEL_TOKENS),
        "set_defs": set_def,
        "coat_names": st.sampled_from(NAME_TOKENS),
        "values": st.tuples(st.sampled_from(EXPRESSION_TOKENS), st.sampled_from(VALUE_TOKENS)),
    }
    for _ in range(draw(st.integers(0, 3))):
        field = draw(st.sampled_from(sorted(edits)))
        spec = dataclasses.replace(spec, **{field: edited(draw, getattr(spec, field), edits[field])})
    return spec


def rebuilt(spec):
    """The instance of the spec's rendered document."""
    return parse_instance(render_instance(spec)).build()


def build_outcome(build, *args):
    """The built coat bits, scale and numerators, or the refusal's column and text after its line."""
    try:
        _, coat, qm = build(*args)
    except ParseError as exc:
        return "refused", exc.column, re.sub(r"^line \d+(, |: )", "", str(exc))
    return "built", coat.member_bits(), qm.scale, qm.numerators


class TestParsing:
    def test_document_matches_programmatic_instance(self):
        spec = parse_instance(UNIFORM_DOC)
        _, coat, qm = spec.build()
        _, ref_coat, ref_qm = canonical_negative_instance()
        assert coat.member_bits() == ref_coat.member_bits()
        assert qm.values == ref_qm.values
        assert spec.seed is None

    def test_value_outside_unit_interval(self):
        # The refusal prints the value in lowest terms.
        doc = UNIFORM_DOC.replace("value A: 1/2", "value A: 6/4")
        with pytest.raises(ParseError, match=re.escape("line 8: value outside [0,1]: 3/2")):
            parse_instance(doc)

    def test_negative_value_reports_line(self):
        doc = UNIFORM_DOC.replace("value A: 1/2", "value A: -1/2")
        with pytest.raises(ParseError, match=re.escape("line 8: value outside [0,1]: -1/2")):
            parse_instance(doc)

    def test_only_cr_and_lf_end_a_line(self):
        # str.splitlines also breaks at these; a comment may hold them, and
        # line numbers count "\n" like the CLI's UTF-8 error does.
        breaks = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
        doc = UNIFORM_DOC.replace("ground: 1 2 3 4", f"ground: 1 2 3 4  # note{breaks}more")
        assert parse_instance(doc) == parse_instance(UNIFORM_DOC)
        with pytest.raises(ParseError, match=re.escape("line 8: value outside [0,1]: -1/2")):
            parse_instance(doc.replace("value A: 1/2", "value A: -1/2"))
        crlf = UNIFORM_DOC.replace("value A: 1/2", "value A: -1/2").replace("\n", "\r\n")
        with pytest.raises(ParseError, match=re.escape("line 8: value outside [0,1]: -1/2")):
            parse_instance(crlf)

    def test_build_rejections_keep_their_messages(self):
        cases = (
            (UNIFORM_DOC + "set D: 1 3\nvalue D: 1/2\n",
             "line 16: value assigned to a set outside the refinement: 'D'"),
            (UNIFORM_DOC + "value omega&!A&B: 1/8\n",
             "line 15: conflicting values for 'omega&!A&B': 1/4 vs 1/8"),
            (UNIFORM_DOC.replace("value B&!A: 1/4\n", "").replace("value omega&!B: 1/2\n", ""),
             "missing values for refinement members: {1,4} {3}"),
            (UNIFORM_DOC + "value A&!: 1/4\n", "line 15, column 3: empty operand in expression"),
            (UNIFORM_DOC + "value A&Z: 1/4\n", "line 15, column 3: unknown set name 'Z'"),
            (UNIFORM_DOC.replace("coat: empty omega A B", "set C: 2 1\ncoat: empty omega A B C"),
             "line 6: duplicate coat member {1,2}"),
            (UNIFORM_DOC.replace("coat: empty omega A B", "coat: empty omega A B A"),
             "line 5: duplicate coat member {1,2}"),
            (UNIFORM_DOC.replace("coat: empty omega A B", "coat: empty omega A X"),
             "line 5: unknown set name 'X' in coat"),
            # Coat names resolve after every line is read, so a bad rational further down comes first.
            (UNIFORM_DOC.replace("coat: empty omega A B", "coat: empty omega A X")
             .replace("value A: 1/2", "value A: 1"), "line 8: malformed rational '1', expected p/q"),
            # So do the ground's, each set's and each value range's refusals.
            *((UNIFORM_DOC.replace(old, new) + "value B: 0.5\n",
               "line 15: malformed rational '0.5', expected p/q")
              for old, new in (("ground: 1 2 3 4", "ground: 1 2 3 1"), ("set A: 1 2", "set A: 1 2 1"),
                               ("set A: 1 2", "set A&B: 1 2"), ("value A: 1/2", "value A: 6/4"))),
            # GroundSet's refusals, with the ground line's number.
            ("\nground:\ncoat: empty omega\n", "line 2: ground set must list at least one element"),
            ("\nground: 1 2 1\ncoat: empty omega\n", "line 2: duplicate element label in ground set"),
            ("\nground: " + " ".join(map(str, range(30))) + "\ncoat: empty omega\n",
             "line 2: ground set has 30 elements, more than 24"),
            (UNIFORM_DOC.replace("ground: 1 2 3 4", "ground x: 1 2 3 4"),
             "line 2, column 7: malformed ground directive"),
            (UNIFORM_DOC.replace("coat: empty omega A B", "coat x: empty omega A B"),
             "line 5, column 5: malformed coat directive"),
            ("# no ground\ncoat: empty omega\nvalue empty: 0/1\nvalue omega: 1/1\n",
             "missing ground definition"),
            (UNIFORM_DOC.replace("set A: 1 2", "set A: 1 2 1"), "line 3: duplicate element label in set"),
            (UNIFORM_DOC.replace("set B: 2 3", "set B: 2 3\nset empty: 4"),
             "line 5: set name 'empty' is reserved"),
            (UNIFORM_DOC.replace("set B: 2 3", "set B: 2 3\nset A&B: 4"), "line 5: invalid set name 'A&B'"),
        )
        for doc, message in cases:
            with pytest.raises(ParseError) as info:
                parse_instance(doc)
            assert str(info.value) == message

    def test_spec_with_an_unknown_coat_name_is_refused_with_a_parse_error(self):
        values = (("empty", Fraction(0)), ("omega", Fraction(1)))
        spec = InstanceSpec(("1", "2"), (), ("empty", "omega", "X"), values)
        with pytest.raises(ParseError) as info:
            spec.build()
        assert str(info.value) == "unknown set name 'X' in coat"

    @pytest.mark.parametrize("set_defs, values, message", [
        ((("A", ("3",)),), (), "unknown element label: '3'"),
        ((("empty", ("1",)),), (), "set name 'empty' is reserved"),
        ((("A", ("1",)), ("A", ("2",))), (), "duplicate set definition: 'A'"),
        ((("A", ("1", "1")),), (), "duplicate element label in set"),
        ((("A&B", ("1",)),), (), "invalid set name 'A&B'"),
        ((("A", ("1",)),), (("A", Fraction(3, 2)),), "value outside [0,1]: 3/2"),
        ((("A", ("1",)),), (("omega", Fraction(1, 2)),), "value of omega must be 1"),
    ])
    def test_hand_built_specs_are_refused_with_the_parser_text(self, set_defs, values, message):
        # Each spec renders to a document refused with the same text.
        defaults = (("empty", Fraction(0)), ("omega", Fraction(1)), ("A", Fraction(1, 2)),
                    ("omega&!A", Fraction(1, 2)))
        expressions = {expr for expr, _ in values}
        values = tuple(v for v in defaults if v[0] not in expressions) + values
        spec = InstanceSpec(("1", "2"), set_defs, ("empty", "omega", "A"), values)
        with pytest.raises(ParseError) as info:
            spec.build()
        assert (str(info.value), info.value.line) == (message, None)
        assert build_outcome(rebuilt, spec) == ("refused", None, message)

    @settings(max_examples=300)
    @given(st.data())
    def test_hand_built_and_parsed_specs_agree(self, data):
        # Edited canonical specs, valid or not, from tokens a document can hold:
        # building the spec and parsing its document give one outcome.
        spec = data.draw(edited_specs())
        built = build_outcome(spec.build)
        assert build_outcome(rebuilt, spec) == built
        if built[0] == "refused":
            with pytest.raises(ParseError) as info:
                spec.build()
            assert info.value.line is None
        else:
            assert parse_instance(render_instance(spec)) == spec

    def test_a_parse_builds_one_ground_set(self, monkeypatch):
        built, post_init = [], GroundSet.__post_init__

        def counting_post_init(ground):
            built.append(ground)
            post_init(ground)

        monkeypatch.setattr(GroundSet, "__post_init__", counting_post_init)
        spec = parse_instance(UNIFORM_DOC)
        assert len(built) == 1
        assert spec.ground() is spec.build()[0] is built[0]

    def test_names_map_to_bits(self):
        spec = parse_instance(UNIFORM_DOC)
        assert spec.names() == {"empty": 0, "omega": 0b1111, "A": 0b11, "B": 0b110}

    def test_set_line_may_precede_ground(self):
        moved = UNIFORM_DOC.replace("ground: 1 2 3 4\n", "").replace("coat:", "ground: 1 2 3 4\ncoat:")
        assert moved.index("set A:") < moved.index("ground:")
        assert build_outcome(parse_instance(moved).build) == build_outcome(parse_instance(UNIFORM_DOC).build)

    def test_coat_line_may_precede_the_sets_it_names(self):
        moved = UNIFORM_DOC.replace("coat: empty omega A B\n", "").replace(
            "set A: 1 2", "coat: empty omega A B\nset A: 1 2")
        assert moved.index("coat:") < moved.index("set A:")
        spec, reference = parse_instance(moved), parse_instance(UNIFORM_DOC)
        assert spec == reference
        (_, coat, qm), (_, ref_coat, ref_qm) = spec.build(), reference.build()
        assert coat.member_bits() == ref_coat.member_bits()
        assert (qm.scale, qm.numerators) == (ref_qm.scale, ref_qm.numerators)

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

    def test_overlong_line_reports_line(self):
        # The limit sits well above a value line of two rationals at int()'s digit limit.
        limit = instance_io.MAX_LINE_LENGTH
        assert limit > 2 * sys.get_int_max_str_digits() + 100
        parse_instance(UNIFORM_DOC + "#" * limit + "\n")
        doc = UNIFORM_DOC.replace("value A: 1/2", "value A: 1/2" + " " * limit)
        with pytest.raises(ParseError, match=f"^line 8: line longer than {limit} characters$") as info:
            parse_instance(doc)
        assert info.value.line == 8

    def test_overlong_line_exits_2(self, tmp_path, capsys):
        path = tmp_path / "long.qm"
        limit = instance_io.MAX_LINE_LENGTH
        path.write_text(UNIFORM_DOC + "#" * (limit + 1) + "\n", encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert f"line 15: line longer than {limit} characters" in capsys.readouterr().err

    def test_non_utf8_input_reports_line(self, tmp_path, capsys):
        path = tmp_path / "latin.qm"
        path.write_bytes(UNIFORM_DOC.replace("set B: 2 3", "set B: 2 \xff3").encode("latin-1"))
        assert main(["check", str(path)]) == 2
        assert "line 4: input is not UTF-8" in capsys.readouterr().err

    def test_non_utf8_line_counts_lone_carriage_returns(self, tmp_path, capsys):
        # The parser ends lines at "\r\n", "\r" and "\n"; the UTF-8 error counts the same way.
        path = tmp_path / "cr.qm"
        cases = ((b"set B: \xff2", "line 3: input is not UTF-8"),
                 (b"frob: 2", "line 3, column 1: unknown directive"))
        for third, message in cases:
            path.write_bytes(b"ground: 1 2\rset A: 1\r" + third + b"\r")
            assert main(["check", str(path)]) == 2
            assert message in capsys.readouterr().err

    def test_overlong_seed_reports_line_and_exits_2(self, tmp_path, capsys):
        # 5,000 digits pass the seed's digit pattern but exceed Python's int-from-string limit
        doc = UNIFORM_DOC + "seed: " + "7" * 5000 + "\n"
        with pytest.raises(ParseError, match="^line 15: seed too long") as info:
            parse_instance(doc)
        assert info.value.line == 15
        path = tmp_path / "seed.qm"
        path.write_text(doc, encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert "line 15: seed too long" in capsys.readouterr().err

    def test_mutated_documents_parse_or_raise_parse_error(self):
        # Seeded mutations of UNIFORM_DOC: each token replaces a word, joins a line or
        # forms a new directive line.  Nothing but ParseError may escape the parser.
        tokens = ("7" * 5000, "1" * 5000 + "/2", "\x00", "1/0", "-1/2", "0/0", "#", ":", "",
                  "empty", "omega", "A&!B", "&", "!", "-", "seed:", "value", "set", "coat:")
        keywords = ("ground", "set A", "set D", "coat", "value A", "value D", "seed")
        rng = random.Random(0)
        lines = UNIFORM_DOC.splitlines()
        outcomes = {"parsed": 0, "refused": 0}
        for _ in range(4000):
            doc = list(lines)
            for _ in range(rng.randint(1, 3)):
                i, token = rng.randrange(len(doc)), rng.choice(tokens)
                words = doc[i].split(" ")
                kind = rng.randrange(3)
                if kind == 0:
                    words[rng.randrange(len(words))] = token
                elif kind == 1:
                    words.insert(rng.randrange(len(words) + 1), token)
                doc[i] = " ".join(words)
                if kind == 2:
                    doc.insert(i, f"{rng.choice(keywords)}: {token}")
            try:
                parse_instance("\n".join(doc) + "\n")
                outcomes["parsed"] += 1
            except ParseError:
                outcomes["refused"] += 1
        assert min(outcomes.values()) > 50, outcomes

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

    def test_search_exits_one_on_a_counterexample(self, capsys, monkeypatch):
        # Seed 0 draws a partition-algebra coat, which passes the axioms; its
        # verification is made to fail, so the seed is a counterexample.
        verify, calls = testkit.verify_premeasure, []

        def fail_first(table):
            calls.append(table)
            return SimpleNamespace(passed=False) if len(calls) == 1 else verify(table)

        monkeypatch.setattr(testkit, "verify_premeasure", fail_first)
        assert testkit.search_instances(range(3)).counterexample_seeds == [0]
        calls.clear()
        assert main(["search", "--seeds", "0..3", "--format", "machine"]) == 1
        search, summary = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert (search["axiom_pass"], search["premeasure_verified"], search["counterexamples"]) == (2, 1, "0")
        assert summary["status"] == "fail"

    def test_search_counts_an_additive_table_that_disagrees_as_a_counterexample(self, capsys, monkeypatch):
        # Seed 0 passes the axioms.  Its table is swapped for one that gives
        # each atom the same value: additive, but not equal to the quasi-measure.
        extend = testkit.extend

        def same_value_per_atom(qm):
            table = extend(qm)
            m = len(table.algebra.atoms)
            return dataclasses.replace(table, scale=m, numerators=tuple(i.bit_count() for i in range(1 << m)))

        qm = testkit.instance_for_seed(0)
        swapped = same_value_per_atom(qm)
        assert testkit.check_axioms(qm).passed
        assert testkit.verify_premeasure(swapped).passed
        assert any(swapped.value(member) != qm.value(member) for member in qm.refinement)
        monkeypatch.setattr(testkit, "extend", same_value_per_atom)
        assert testkit.search_instances(range(1)).counterexample_seeds == [0]
        assert main(["search", "--seeds", "0..1", "--format", "machine"]) == 1
        search, summary = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert (search["axiom_pass"], search["premeasure_verified"], search["counterexamples"]) == (1, 0, "0")
        assert summary["status"] == "fail"

    @pytest.mark.parametrize("argv, extra", [
        (["check", "{input}"], ()),
        (["outer", "{input}", "--set", "A"], ()),
        (["extend", "{input}"], ()),
        (["example", "--samples", "10"], ("intervals",)),
        (["search", "--seeds", "0..3"], ("testkit",)),
    ], ids=["check", "outer", "extend", "example", "search"])
    def test_each_subcommand_loads_only_the_modules_it_runs(self, uniform_path, tmp_path, argv, extra):
        script = ("import sys; from quasimeasure.cli import main; main(sys.argv[1:]);"
                  " print(*sorted(m for m in sys.modules if m.startswith('quasimeasure.')))")
        argv = [uniform_path if a == "{input}" else a for a in argv]
        proc = subprocess.run([sys.executable, "-c", script, *argv, "--out", str(tmp_path / "report")],
                              capture_output=True, text=True, env=CLI_ENV)
        assert proc.stderr == ""
        shared = ("cli", "cover", "extension", "instance_io", "quasi", "report", "sets")
        assert proc.stdout.split() == sorted(f"quasimeasure.{m}" for m in shared + extra)

    def test_example_with_a_subnormal_tolerance_fails_with_float_values(self, capsys):
        assert main(["example", "--tol", "5e-324", "--format", "machine"]) == 1
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        splitting = next(r for r in records if r.get("check") == "splitting")
        assert (splitting["status"], splitting["witnesses"]) == ("fail", 264)
        assert all(repr(float(splitting[key])) == splitting[key] for key in ("lhs", "rhs"))
        assert splitting["lhs"] != splitting["rhs"]
        assert records[-1] == {"record": "summary", "suite": "exponential", "status": "fail"}

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
        assert main(["outer", uniform_path, "--set", "A&Z"]) == 2
        assert capsys.readouterr().err == "error: column 3: unknown set name 'Z'\n"
        assert main(["outer", uniform_path, "--set", ""]) == 2
        assert capsys.readouterr().err == "error: empty expression\n"

    def test_seed_range_without_dots_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--seeds", "5"])
        assert exc.value.code == 2
        assert "argument --seeds: expected A..B, got '5'" in capsys.readouterr().err

    def test_oversized_cover_enumeration_exits_two(self, tmp_path, capsys):
        # A coat that fails the cover bound would list witnesses from 2**24
        # subcollections; a passing one is certified without enumerating.
        _, _, qm = random_instance(5, n=5, coat_size=24)
        assert len(qm.coat) > 20
        path = tmp_path / "big.qm"
        path.write_text(render_instance(instance_spec_from(perturb(qm, 0, max_changes=4))), encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert "enumeration" in capsys.readouterr().err
        # a bounded cover size keeps the run feasible
        assert main(["check", str(path), "--max-cover", "2"]) in (0, 1)
        capsys.readouterr()
        path.write_text(render_instance(instance_spec_from(qm)), encoding="utf-8")
        assert main(["check", str(path)]) in (0, 1)
        assert "[PASS] axioms/cover-bound" in capsys.readouterr().out


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
            ("uniform_check_literal.jsonl", ["check", str(instance), "--variant", "literal"]),
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


def reference_cover_record(kind, target, value, chosen, names):
    """An ``outer`` or ``table`` record as a dict of a mask and a ``Fraction``, rendered as before."""
    return {
        "record": kind,
        "target" if kind == "outer" else "set": str(target),
        "value": format_rational(value),
        "cover": " ".join(names[i] for i in chosen),
        "indices": " ".join(str(i) for i in chosen),
    }


def reference_line(record, machine):
    if machine:
        return json.dumps(record, separators=(",", ":"))
    _, name, value, cover, indices = record.values()
    return f"{record['record']} {name} = {value} cover {cover} (indices {indices})"


def reference_table_lines(qm, machine):
    table = extend(qm)
    names = [str(m) for m in qm.coat.members]
    return [reference_line(reference_cover_record("table", qm.ground.mask(bits), value, chosen, names), machine)
            for bits, value, chosen in zip(table.algebra.bits, table.values, table.covers)]


def reference_outer_line(qm, target, machine):
    value, solution = outer(qm, target)
    names = [str(m) for m in qm.coat.members]
    return reference_line(reference_cover_record("outer", target, value, solution.chosen, names), machine)


def relabeled(qm, tm, labels):
    """The instance with its elements renamed, through a document the parser reads back."""
    ground = GroundSet(tuple(labels))
    renamed = induce(TrueMeasure(ground, tm.weights), Coat.from_bits(ground, qm.coat.member_bits()))
    return parse_instance(render_instance(instance_spec_from(renamed))).build()[2]


# Labels the parser accepts: JSON escapes the quote, the backslash, the
# non-ASCII letters, the non-BMP one as a surrogate pair and the NUL.
HOSTILE_LABELS = ('"', "\\", "é", "中", "\U0001d538", "\x00", 'a"b\\c')
# A label is a run of characters other than whitespace and "#".
PARSER_LABELS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="#")
                        .filter(lambda c: not c.isspace()), min_size=1, max_size=3)


def assert_rows_match_the_record_builder(qm, target, machine):
    """``_cover_lines`` renders the ``extend`` table of ``qm`` and the ``outer`` row of ``target``
    as the record builder does."""
    table = extend(qm)
    assert cli._cover_lines("table", qm, table.scale, table.algebra.bits, table.numerators, table.chosen,
                            machine) == reference_table_lines(qm, machine)
    value, solution = outer(qm, target)
    chosen = sum(1 << i for i in solution.chosen)
    assert cli._cover_lines("outer", qm, value.denominator, [target.bits], [value.numerator], [chosen],
                            machine) == [reference_outer_line(qm, target, machine)]


def wide_instance(labels, coat_size, seed):
    """A seeded instance on ``labels`` whose coat has ``coat_size`` members, all unions
    of at most eight atoms scattered over the ground, under small int weights that tie often."""
    rng = random.Random(seed)
    n, atoms = len(labels), rng.randint(6, 8)
    owner = [*range(atoms), *(rng.randrange(atoms) for _ in range(n - atoms))]
    rng.shuffle(owner)
    atom_bits = [sum(1 << e for e in range(n) if owner[e] == a) for a in range(atoms)]
    unions = [sum(b for a, b in enumerate(atom_bits) if s >> a & 1) for s in range(1, (1 << atoms) - 1)]
    ground = GroundSet(tuple(labels))
    coat = Coat.from_bits(ground, [0, ground.full_bits, *rng.sample(unions, coat_size - 2)])
    weights = [rng.randint(0, 3) for _ in range(n)]
    weights[0] += 1
    return induce(TrueMeasure(ground, tuple(Fraction(w, sum(weights)) for w in weights)), coat)


class TestRowBuilder:
    @pytest.fixture
    def hostile(self, tmp_path):
        tm, _, qm = random_instance(3, n=len(HOSTILE_LABELS), coat_size=6)
        qm = relabeled(qm, tm, HOSTILE_LABELS)
        path = tmp_path / "hostile.qm"
        path.write_text(render_instance(instance_spec_from(qm)), encoding="utf-8")
        return qm, str(path)

    @pytest.mark.parametrize("output_format", ["machine", "text"])
    def test_extend_rows_match_the_record_builder(self, hostile, output_format, capsys):
        qm, path = hostile
        assert main(["extend", path, "--format", output_format]) == 1
        lines = capsys.readouterr().out.split("\n")
        want = reference_table_lines(qm, output_format == "machine")
        assert len(want) == 1 << len(extend(qm).algebra.atoms) > 16
        assert lines[:len(want)] == want
        non_bmp = "\\ud835\\udd38" if output_format == "machine" else "\U0001d538"
        assert non_bmp in "".join(want)

    @pytest.mark.parametrize("output_format", ["machine", "text"])
    @pytest.mark.parametrize("target", ["S1&!S2", "omega&!S3", '" \\ \x00 \U0001d538', "中"])
    def test_outer_row_matches_the_record_builder(self, hostile, output_format, target, capsys):
        qm, path = hostile
        assert main(["outer", path, "--set", target, "--format", output_format]) == 0
        mask = resolve_target(target, parse_instance(Path(path).read_text(encoding="utf-8")).names(), qm.ground)
        assert capsys.readouterr().out.split("\n")[0] == reference_outer_line(qm, mask, output_format == "machine")

    @settings(max_examples=80)
    @given(st.lists(PARSER_LABELS, min_size=1, max_size=6, unique=True), st.integers(0, 10**6),
           st.booleans())
    def test_rows_match_the_record_builder_on_parser_labels(self, labels, seed, machine):
        tm, _, qm = random_instance(seed, n=len(labels), coat_size=1 + seed % 8)
        qm = relabeled(qm, tm, labels)
        assert_rows_match_the_record_builder(qm, qm.ground.mask(seed % (1 << len(labels))), machine)

    @settings(max_examples=60)
    @given(st.lists(PARSER_LABELS, min_size=9, max_size=MAX_GROUND_SIZE, unique=True), st.integers(9, 40),
           st.integers(0, 10**6), st.booleans())
    def test_rows_match_the_record_builder_across_mask_bytes(self, labels, coat_size, seed, machine):
        # Up to 24 labels and 40 coat members: both masks of a row span several bytes.
        qm = wide_instance(labels, coat_size, seed)
        assert_rows_match_the_record_builder(qm, qm.ground.mask(random.Random(seed).getrandbits(len(labels))),
                                             machine)
        table = extend(qm)
        for i, value in enumerate(table.values):
            assert CoverSolution(table.covers[i], value).verify(qm, table.algebra.members[i])

    @settings(max_examples=200)
    @given(st.integers(0, 1 << 100))
    def test_bit_indices_are_the_set_bits_ascending(self, mask):
        assert bit_indices(mask) == tuple(i for i in range(mask.bit_length()) if mask >> i & 1)

    def test_extend_builds_the_cover_tuples_on_first_read(self):
        _, _, qm = random_instance(5, n=10, coat_size=12)
        table = extend(qm)
        assert "covers" not in table.__dict__
        covers = table.covers
        assert table.__dict__["covers"] is covers
        assert covers == tuple(map(bit_indices, table.chosen))

    def test_calls_in_one_process_match_fresh_processes(self, uniform_path, tmp_path, capsys):
        # One parser serves every call in a process; no flag value may carry over.
        out = tmp_path / "extend.jsonl"
        calls = (["extend", uniform_path, "--format", "machine", "--out", str(out)],
                 ["extend", uniform_path],
                 ["check", uniform_path])
        fresh = []
        for argv in calls:
            proc = subprocess.run([sys.executable, "-m", "quasimeasure.cli", *argv],
                                  capture_output=True, env=CLI_ENV)
            fresh.append((proc.returncode, proc.stdout, out.read_bytes() if "--out" in argv else b""))
        out.unlink()
        for argv, want in zip(calls, fresh):
            code = main(argv)
            written = out.read_bytes() if "--out" in argv else b""
            assert (code, capsys.readouterr().out.encode("utf-8"), written) == want, argv
        assert [code for code, _, _ in fresh] == [1, 1, 1]
        assert fresh[0][1] == b"" and fresh[0][2].startswith(b'{"record":"table"')
        assert fresh[1][1].startswith(b"table {} = 0/1 cover  (indices )\n")
