"""The line-oriented instance text format.

UTF-8, one directive per line, ``#`` starts a comment.  Directives:

    ground: 1 2 3 4
    set A: 1 2
    set B: 2 3
    coat: empty omega A B
    seed: 42                  # optional
    value A&B: 1/4

``empty`` and ``omega`` are reserved set names.  Value expressions are
single tokens over set names with ``&`` for intersection and ``!name`` for
complement; every refinement member must receive exactly one value, and two
expressions resolving to the same mask must agree.  Rationals are written
``p/q`` and parsed exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .quasi import QuasiMeasure
from .sets import MAX_GROUND_SIZE, Coat, GroundSet, SubsetMask, refine

RESERVED_NAMES = ("empty", "omega")
_RATIONAL = re.compile(r"^(-?\d+)/(\d+)$")
_NAME = re.compile(r"^[^\s&!:#]+$")
_LABEL = re.compile(r"[^\s#]+")


class ParseError(ValueError):
    """Instance-format rejection, with the offending line (and column)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


def parse_rational(text: str, line: int | None = None) -> Fraction:
    m = _RATIONAL.match(text)
    if not m:
        raise ParseError(f"malformed rational {text!r}, expected p/q", line)
    try:
        num, den = int(m.group(1)), int(m.group(2))
    except ValueError as exc:  # more digits than int() will convert
        raise ParseError(f"rational too long: {exc}", line) from None
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}", line)
    if not 0 <= num <= den:
        raise ParseError(f"value outside [0,1]: {text}", line)
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def resolve_expression(
    text: str,
    names: Mapping[str, SubsetMask],
    ground: GroundSet,
    line: int | None = None,
) -> SubsetMask:
    """Intersect named sets and complements: ``A&!B`` is A minus B."""
    if any(mask.ground != ground for mask in names.values()):
        raise ValueError("masks belong to different ground sets")
    bits = {name: mask.bits for name, mask in names.items()}
    return ground.mask(_expression_bits(text, bits, ground.full_bits, line))


def _expression_bits(text: str, names: Mapping[str, int], full: int, line: int | None) -> int:
    """``resolve_expression`` on int masks: ``names`` maps set names to their bits."""
    result = full
    for offset, part in _split_expression(text, line):
        negate = part.startswith("!")
        name = part[1:] if negate else part
        if not name:
            raise ParseError("empty operand in expression", line, offset + 1)
        if name not in names:
            raise ParseError(f"unknown set name {name!r}", line, offset + 1)
        result &= names[name] ^ full if negate else names[name]
    return result


def _split_expression(text: str, line: int | None) -> list[tuple[int, str]]:
    if not text:
        raise ParseError("empty expression", line)
    parts: list[tuple[int, str]] = []
    offset = 0
    for part in text.split("&"):
        parts.append((offset, part))
        offset += len(part) + 1
    return parts


def resolve_target(text: str, names: Mapping[str, SubsetMask], ground: GroundSet) -> SubsetMask:
    """A target set for the CLI: a value expression, or bare element labels.

    ``A&!B`` goes through the expression grammar; a whitespace- or
    comma-separated list whose tokens are all element labels (``"2"``,
    ``"1 3"``) builds the set of those elements directly.
    """
    stripped = text.strip()
    try:
        return resolve_expression(stripped, names, ground)
    except ParseError:
        labels = stripped.replace(",", " ").split()
        if labels and all(label in ground.elements for label in labels):
            return ground.subset(labels)
        raise


@dataclass(frozen=True)
class InstanceSpec:
    """A parsed, validated instance document.

    Values are always explicit expression/rational pairs; instances induced
    from a ground-truth measure are normalized to this form at construction,
    which keeps render/parse a lossless round trip.  Identical specs build
    identical instances.
    """

    ground_labels: tuple[str, ...]
    set_defs: tuple[tuple[str, tuple[str, ...]], ...]
    coat_names: tuple[str, ...]
    values: tuple[tuple[str, Fraction], ...]
    seed: int | None = None

    def ground(self) -> GroundSet:
        return GroundSet(self.ground_labels)

    def names(self) -> dict[str, SubsetMask]:
        ground = self.ground()
        names: dict[str, SubsetMask] = {"empty": ground.empty(), "omega": ground.full()}
        for name, labels in self.set_defs:
            names[name] = ground.subset(labels)
        return names

    def build(self) -> tuple[GroundSet, Coat, QuasiMeasure]:
        """The instance this spec denotes, built on the first call and shared after it."""
        built = self.__dict__.get("_built")
        if built is not None:
            return built
        ground = self.ground()
        names = self.names()
        coat = Coat(ground, tuple(names[n] for n in self.coat_names))
        refinement = refine(coat)
        member_of = {m.bits: m for m in refinement.members}
        name_bits = {name: mask.bits for name, mask in names.items()}
        by_bits: dict[int, Fraction] = {}
        for expr, value in self.values:
            bits = _expression_bits(expr, name_bits, ground.full_bits, None)
            if bits not in member_of:
                raise ParseError(f"value assigned to a set outside the refinement: {expr!r}")
            if bits in by_bits and by_bits[bits] != value:
                raise ParseError(
                    f"conflicting values for {expr!r}: {format_rational(by_bits[bits])}"
                    f" vs {format_rational(value)}"
                )
            by_bits[bits] = value
        missing = [m for m in refinement.members if m.bits not in by_bits]
        if missing:
            rendered = " ".join(str(m) for m in missing)
            raise ParseError(f"missing values for refinement members: {rendered}")
        values = {member_of[bits]: value for bits, value in by_bits.items()}
        built = ground, coat, QuasiMeasure(coat, refinement, values)
        # Not a field: equality, hashing and rendering see only the document.
        object.__setattr__(self, "_built", built)
        return built


def parse_instance(document: str) -> InstanceSpec:
    """Parse and fully validate one instance document."""
    ground_labels: tuple[str, ...] | None = None
    set_defs: list[tuple[str, tuple[str, ...]]] = []
    set_names: set[str] = set()
    coat_names: tuple[str, ...] | None = None
    value_lines: list[tuple[int, str, str]] = []
    seed: int | None = None

    for lineno, raw in enumerate(document.splitlines(), start=1):
        hash_at = raw.find("#")
        line = (raw if hash_at < 0 else raw[:hash_at]).strip()
        if not line:
            continue
        head, colon, rest = line.partition(":")
        if not colon:
            raise ParseError("missing ':' in directive", lineno, len(line) + 1)
        keyword_tokens = head.split()
        rest = rest.strip()
        if not keyword_tokens:
            raise ParseError("missing directive keyword", lineno, 1)
        keyword = keyword_tokens[0]

        if keyword == "ground":
            if len(keyword_tokens) != 1:
                raise ParseError("malformed ground directive", lineno, len(keyword) + 1)
            if ground_labels is not None:
                raise ParseError("duplicate ground definition", lineno)
            labels = tuple(rest.split())
            if not labels:
                raise ParseError("ground set must list at least one element", lineno)
            if len(labels) > MAX_GROUND_SIZE:
                raise ParseError(f"ground set has {len(labels)} elements, more than {MAX_GROUND_SIZE}",
                                 lineno)
            if len(set(labels)) != len(labels):
                raise ParseError("duplicate element label in ground set", lineno)
            ground_labels = labels
        elif keyword == "set":
            if len(keyword_tokens) != 2:
                raise ParseError("set directive needs exactly one name", lineno, len(keyword) + 1)
            name = keyword_tokens[1]
            if ground_labels is None:
                raise ParseError("set defined before ground", lineno)
            if name in RESERVED_NAMES:
                raise ParseError(f"set name {name!r} is reserved", lineno)
            if not _NAME.match(name):
                raise ParseError(f"invalid set name {name!r}", lineno)
            if name in set_names:
                raise ParseError(f"duplicate set definition: {name!r}", lineno)
            labels = tuple(rest.split())
            for label in labels:
                if label not in ground_labels:
                    raise ParseError(f"unknown element label: {label!r}", lineno)
            if len(set(labels)) != len(labels):
                raise ParseError("duplicate element label in set", lineno)
            set_names.add(name)
            set_defs.append((name, labels))
        elif keyword == "coat":
            if len(keyword_tokens) != 1:
                raise ParseError("malformed coat directive", lineno, len(keyword) + 1)
            if coat_names is not None:
                raise ParseError("duplicate coat definition", lineno)
            names = tuple(rest.split())
            for name in names:
                if name not in set_names and name not in RESERVED_NAMES:
                    raise ParseError(f"unknown set name {name!r} in coat", lineno)
            if len(set(names)) != len(names):
                raise ParseError("duplicate name in coat", lineno)
            if "empty" not in names:
                raise ParseError("coat must contain empty", lineno)
            if "omega" not in names:
                raise ParseError("coat must contain omega", lineno)
            coat_names = names
        elif keyword == "value":
            if len(keyword_tokens) != 2:
                raise ParseError("value directive needs exactly one expression", lineno,
                                 len(keyword) + 1)
            value_lines.append((lineno, keyword_tokens[1], rest))
        elif keyword == "seed":
            if len(keyword_tokens) != 1 or not re.match(r"^-?\d+$", rest):
                raise ParseError("malformed seed directive", lineno)
            if seed is not None:
                raise ParseError("duplicate seed directive", lineno)
            seed = int(rest)
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno, 1)

    if ground_labels is None:
        raise ParseError("missing ground definition")
    if coat_names is None:
        raise ParseError("missing coat definition")

    values = tuple(
        (expr, parse_rational(text, lineno)) for lineno, expr, text in value_lines
    )
    spec = InstanceSpec(ground_labels, tuple(set_defs), coat_names, values, seed)
    # Deep validation happens in build(), whose result the spec keeps; its
    # errors carry no line number, since mask-level problems span several lines.
    try:
        spec.build()
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return spec


def render_instance(spec: InstanceSpec) -> str:
    lines = ["ground: " + " ".join(spec.ground_labels)]
    for name, labels in spec.set_defs:
        lines.append(f"set {name}: " + " ".join(labels))
    lines.append("coat: " + " ".join(spec.coat_names))
    if spec.seed is not None:
        lines.append(f"seed: {spec.seed}")
    for expr, value in spec.values:
        lines.append(f"value {expr}: {format_rational(value)}")
    return "\n".join(lines) + "\n"


def instance_spec_from(qm: QuasiMeasure, seed: int | None = None) -> InstanceSpec:
    """Normalize a programmatic instance to its canonical document form.

    Coat members beyond empty/omega are named S1, S2, ... in coat order and
    every refinement member gets one canonical value line: its own name when
    it is a coat member, otherwise its first derivation in coat-pair order,
    ``Si&Sj`` before ``Si&!Sj``.  A ground label that is empty or holds
    whitespace or ``#`` cannot be written as one token and raises ``ValueError``.
    """
    for label in qm.ground.elements:
        if not _LABEL.fullmatch(label):
            raise ValueError(f"ground label {label!r} is empty or holds whitespace or '#'")
    set_defs: list[tuple[str, tuple[str, ...]]] = []
    coat_names: list[str] = []
    for member in qm.coat.members:
        if member.is_empty():
            coat_names.append("empty")
        elif member.is_full():
            coat_names.append("omega")
        else:
            name = f"S{len(set_defs) + 1}"
            set_defs.append((name, member.labels()))
            coat_names.append(name)
    masks = qm.coat.member_bits()
    expression_of = dict(zip(masks, coat_names))
    for x, left in zip(masks, coat_names):
        for y, right in zip(masks, coat_names):
            meet, diff = x & y, x & ~y
            if meet not in expression_of:
                expression_of[meet] = f"{left}&{right}"
            if diff not in expression_of:
                expression_of[diff] = f"{left}&!{right}"
    values = tuple((expression_of[m.bits], qm.value(m)) for m in qm.refinement.members)
    return InstanceSpec(qm.ground.elements, tuple(set_defs), tuple(coat_names), values, seed)
