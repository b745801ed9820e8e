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
``p/q`` and parsed exactly.  Names and labels resolve after the whole
document is read, so directives may come in any order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Mapping

from .quasi import QuasiMeasure
from .sets import Coat, GroundSet, SubsetMask, refine

RESERVED_NAMES = ("empty", "omega")
_RATIONAL = re.compile(r"^(-?\d+)/(\d+)$")
_NAME = re.compile(r"[^\s&!:#]+")
_LABEL = re.compile(r"[^\s#]+")
MAX_LINE_LENGTH = 1 << 16  # characters; fits a rational of two 4,300-digit ints and more


class ParseError(ValueError):
    """Instance-format rejection, with the offending line and column when known.

    An expression's column counts from the expression's first character.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = [f"line {line}"] if line is not None else []
        if column is not None:
            where.append(f"column {column}")
        super().__init__(", ".join(where) + ": " + message if where else message)


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
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _expression_bits(text: str, names: Mapping[str, int], full: int, line: int | None) -> int:
    """Intersect named sets and complements on int masks: ``A&!B`` is A minus B.

    ``names`` maps set names to their bits and ``full`` is the ground set's.
    """
    if not text:
        raise ParseError("empty expression", line)
    result = full
    offset = 0
    for part in text.split("&"):
        negate = part.startswith("!")
        name = part[1:] if negate else part
        if not name:
            raise ParseError("empty operand in expression", line, offset + 1)
        if name not in names:
            raise ParseError(f"unknown set name {name!r}", line, offset + 1)
        result &= names[name] ^ full if negate else names[name]
        offset += len(part) + 1
    return result


def resolve_target(text: str, names: Mapping[str, int], ground: GroundSet) -> SubsetMask:
    """A target set for the CLI: a value expression, or bare element labels.

    ``names`` maps set names to their bits, as ``InstanceSpec.names`` does.
    ``A&!B`` goes through the expression grammar; a whitespace- or
    comma-separated list whose tokens are all element labels (``"2"``,
    ``"1 3"``) builds the set of those elements directly.
    """
    stripped = text.strip()
    try:
        return ground.mask(_expression_bits(stripped, names, ground.full_bits, None))
    except ParseError:
        labels = stripped.replace(",", " ").split()
        if labels and all(label in ground.elements for label in labels):
            return ground.subset(labels)
        raise


@dataclass(frozen=True)
class InstanceSpec:
    """An instance document; ``build`` applies every rule of the format to it.

    Values are always explicit expression/rational pairs; instances induced
    from a ground-truth measure are normalized to this form at construction,
    which keeps render/parse a lossless round trip.  Identical specs build
    identical instances.  A spec that breaks a rule is refused with the
    ``ParseError`` text its rendered document gets, without a line number.
    """

    ground_labels: tuple[str, ...]
    set_defs: tuple[tuple[str, tuple[str, ...]], ...]
    coat_names: tuple[str, ...]
    values: tuple[tuple[str, Fraction], ...]
    seed: int | None = None

    def ground(self) -> GroundSet:
        return self.build()[0]

    def names(self) -> dict[str, int]:
        """Each set name, ``empty`` and ``omega`` included, mapped to its bits."""
        self.build()
        return dict(self._names)

    def build(self) -> tuple[GroundSet, Coat, QuasiMeasure]:
        """The instance this spec denotes, built on the first call and shared after it."""
        return self.__dict__.get("_built") or self._build(None, repeat(None), None, repeat(None))

    def _build(self, ground_line: int | None, set_lines: Iterable[int | None], coat_line: int | None,
               value_lines: Iterable[int | None]) -> tuple[GroundSet, Coat, QuasiMeasure]:
        """``build``, with each refusal naming its directive's line.

        Rules run in this order: the ground, each set, the coat, each value,
        then coverage and the endpoints, whose refusals name no line."""
        try:
            ground = GroundSet(self.ground_labels)
        except ValueError as exc:
            raise ParseError(str(exc), ground_line) from None
        full = ground.full_bits
        element_bits = {label: 1 << i for i, label in enumerate(ground.elements)}
        names = {"empty": 0, "omega": full}
        for line, (name, labels) in zip(set_lines, self.set_defs):
            if name in RESERVED_NAMES:
                raise ParseError(f"set name {name!r} is reserved", line)
            if not _NAME.fullmatch(name):
                raise ParseError(f"invalid set name {name!r}", line)
            if name in names:
                raise ParseError(f"duplicate set definition: {name!r}", line)
            for label in labels:
                if label not in element_bits:
                    raise ParseError(f"unknown element label: {label!r}", line)
            if len(set(labels)) != len(labels):
                raise ParseError("duplicate element label in set", line)
            names[name] = sum(element_bits[label] for label in labels)
        try:
            coat = Coat.from_bits(ground, [names[n] for n in self.coat_names])
        except KeyError as exc:
            raise ParseError(f"unknown set name {exc.args[0]!r} in coat", coat_line) from None
        except ValueError as exc:
            raise ParseError(str(exc), coat_line) from None
        refinement = refine(coat)
        members = set(refinement.bits)
        by_bits: dict[int, Fraction] = {}
        for line, (expr, value) in zip(value_lines, self.values):
            if not 0 <= value.numerator <= value.denominator:  # a Fraction's denominator is positive
                raise ParseError(f"value outside [0,1]: {format_rational(value)}", line)
            bits = _expression_bits(expr, names, full, line)
            if bits not in members:
                raise ParseError(f"value assigned to a set outside the refinement: {expr!r}", line)
            if bits in by_bits and by_bits[bits] != value:
                raise ParseError(
                    f"conflicting values for {expr!r}: {format_rational(by_bits[bits])}"
                    f" vs {format_rational(value)}", line
                )
            by_bits[bits] = value
        missing = [bits for bits in refinement.bits if bits not in by_bits]
        if missing:
            rendered = " ".join(str(ground.mask(bits)) for bits in missing)
            raise ParseError(f"missing values for refinement members: {rendered}")
        scale = math.lcm(*(value.denominator for value in by_bits.values()))
        numerators = {bits: v.numerator * (scale // v.denominator) for bits, v in by_bits.items()}
        try:
            qm = QuasiMeasure.from_numerators(refinement, scale, numerators)
        except ValueError as exc:  # the endpoints: the empty set's value and omega's
            raise ParseError(str(exc)) from None
        # Not fields: equality, hashing and rendering see only the document.
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_built", (ground, coat, qm))
        return ground, coat, qm


def parse_instance(document: str) -> InstanceSpec:
    """Lex one instance document into a spec that has built its instance.

    The lexer checks what one line's text decides: the directive's shape,
    ``ground``, ``coat`` and ``seed`` at most once each, the line length and
    the rationals' and seed's syntax.  Every other rule is the spec's, and
    its refusals name the line of the directive that broke it.
    """
    once: dict[str, tuple[int, tuple[str, ...]]] = {}  # ground and coat: line and tokens
    set_lines: list[int] = []
    set_defs: list[tuple[str, tuple[str, ...]]] = []
    value_lines: list[tuple[int, str, str]] = []
    seed: int | None = None

    # Only "\r\n", "\r" and "\n" end a line; str.splitlines also splits at U+2028 and others.
    lines = document.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        if len(raw) > MAX_LINE_LENGTH:
            raise ParseError(f"line longer than {MAX_LINE_LENGTH} characters", lineno)
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

        if keyword in ("ground", "coat"):
            if len(keyword_tokens) != 1:
                raise ParseError(f"malformed {keyword} directive", lineno, len(keyword) + 1)
            if keyword in once:
                raise ParseError(f"duplicate {keyword} definition", lineno)
            once[keyword] = lineno, tuple(rest.split())
        elif keyword == "set":
            if len(keyword_tokens) != 2:
                raise ParseError("set directive needs exactly one name", lineno, len(keyword) + 1)
            set_lines.append(lineno)
            set_defs.append((keyword_tokens[1], tuple(rest.split())))
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
            try:
                seed = int(rest)
            except ValueError as exc:  # more digits than int() will convert
                raise ParseError(f"seed too long: {exc}", lineno) from None
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno, 1)

    for keyword in ("ground", "coat"):
        if keyword not in once:
            raise ParseError(f"missing {keyword} definition")
    (ground_line, ground_labels), (coat_line, coat_names) = once["ground"], once["coat"]
    values = tuple((expr, parse_rational(text, lineno)) for lineno, expr, text in value_lines)
    spec = InstanceSpec(ground_labels, tuple(set_defs), coat_names, values, seed)
    spec._build(ground_line, set_lines, coat_line, [lineno for lineno, _, _ in value_lines])
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
    values = tuple((expression_of[b], Fraction(qm.numerators[b], qm.scale)) for b in qm.refinement.bits)
    return InstanceSpec(qm.ground.elements, tuple(set_defs), tuple(coat_names), values, seed)
