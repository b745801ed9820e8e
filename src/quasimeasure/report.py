"""Check results with re-evaluatable failure witnesses.

Every verification operation in this package returns an ``AxiomReport``:
an ordered list of named checks, each pass/fail, and for each failure a
witness carrying the sets involved and both sides of the violated relation.
Failures are reported, never raised.

A check's ``witnesses`` is a sequence whose ``len`` is its violation count.
Checks that can fail many times keep each failure as a compact int record
and build its ``Witness`` only when that item is read; the sequence still
compares, hashes and prints as the tuple of its witnesses.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Any


@dataclass(frozen=True)
class Witness:
    """The concrete sets and values of one violated (or missing) relation.

    ``sets`` maps a role name ("X", "Y", "meet", "cover", ...) to the set it
    names, in a fixed order.  For equality/inequality violations both side
    values are present; for a failed existence condition ``rhs`` is None and
    ``note`` says what was searched for.
    """

    sets: tuple[tuple[str, Any], ...]
    lhs: Fraction | float
    rhs: Fraction | float | None
    relation: str  # "eq", "le", or "exists"
    note: str = ""

    def set_named(self, role: str) -> Any:
        for name, value in self.sets:
            if name == role:
                return value
        raise KeyError(role)

    def render(self) -> str:
        parts = [f"{name}={value}" for name, value in self.sets]
        if self.rhs is None:
            parts.append(f"value {self.lhs}: {self.note}" if self.note else f"value {self.lhs}")
        else:
            op = {"eq": "!=", "le": ">"}[self.relation]
            parts.append(f"{self.lhs} {op} {self.rhs}")
            if self.note:
                parts.append(self.note)
        return " ".join(str(p) for p in parts)


class WitnessRecords(Sequence[Witness]):
    """Failures kept as int records; item i is ``make(records[i])``, built on access.

    ``len`` is the violation count.  Equality, hash and repr are those of the
    tuple of all the witnesses, so a report reads the same as one built from
    ``Witness`` objects; a slice is a tuple of built witnesses.
    """

    __slots__ = ("_records", "_make")

    def __init__(self, records: Sequence[int], make: Callable[[int], Witness]):
        self._records = records
        self._make = make

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index: int | slice) -> Witness | tuple[Witness, ...]:
        if isinstance(index, slice):
            return tuple(map(self._make, self._records[index]))
        return self._make(self._records[index])

    def __iter__(self) -> Iterator[Witness]:
        return map(self._make, self._records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, WitnessRecords)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single named check: it passes iff it has no witnesses."""

    name: str
    witnesses: tuple[Witness, ...] | WitnessRecords = ()

    @property
    def passed(self) -> bool:
        return not self.witnesses


@dataclass(frozen=True)
class AxiomReport:
    """Ordered collection of check results from one verification run."""

    suite: str
    results: tuple[CheckResult, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def result(self, name: str) -> CheckResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(f"no check named {name!r} in suite {self.suite!r}")

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.passed)


class ReportBuilder:
    """Accumulates witnesses per check, then freezes an AxiomReport."""

    def __init__(self, suite: str):
        self.suite = suite
        self._witnesses: dict[str, list[Witness] | WitnessRecords] = {}  # in declaration order
        self._notes: list[str] = []

    def declare(self, *names: str) -> None:
        for name in names:
            self._witnesses.setdefault(name, [])

    def fail(self, name: str, witness: Witness) -> None:
        self.declare(name)
        self._witnesses[name].append(witness)

    def fail_each(self, name: str, records: Sequence[int], make: Callable[[int], Witness]) -> None:
        """Record one failure per int in ``records``; ``make`` builds a witness when it is read."""
        self.declare(name)
        if self._witnesses[name]:
            raise ValueError(f"check {name!r} already holds witnesses")
        if records:
            self._witnesses[name] = WitnessRecords(records, make)

    def note(self, text: str) -> None:
        self._notes.append(text)

    def build(self) -> AxiomReport:
        results = tuple(CheckResult(name, tuple(w) if isinstance(w, list) else w)
                        for name, w in self._witnesses.items())
        return AxiomReport(self.suite, results, tuple(self._notes))
