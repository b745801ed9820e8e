"""Exponential quasi-measure on the interval coat of the nonnegative half line.

The coat is the family of closed intervals [a,b] together with the empty set
and the whole half line; its refinement adds the half-open kinds [a,b) and
(a,b], left-open tails (b,inf), and two-piece sets [u,a) with (b,v].  The
fixed survival function is s(x) = exp(-x) with s(inf) = 0, and every shape
in the family evaluates to the sum of s(left) - s(right) over components,
independent of which endpoints are closed.

Endpoints use explicit closed/open flags, never epsilon perturbation, so
shapes like [u,a) with (b,v] are represented exactly.  Evaluation is binary
floating point; identity checks take a tolerance (default 1e-12) because the
survival function is transcendental even though the identities themselves
are analytically exact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .quasi import CoverSolver
from .report import AxiomReport, ReportBuilder, Witness

INF = math.inf


def survival(x: float) -> float:
    return math.exp(-x)


@dataclass(frozen=True)
class Interval:
    """One nonempty interval component of the half line."""

    left: float
    right: float
    left_closed: bool
    right_closed: bool

    def __post_init__(self) -> None:
        if not 0 <= self.left:
            raise ValueError("interval endpoints must be nonnegative")
        if math.isinf(self.left) or math.isnan(self.left) or math.isnan(self.right):
            raise ValueError("left endpoint must be finite")
        if self.left > self.right:
            raise ValueError("interval left endpoint exceeds right endpoint")
        if self.right == INF and self.right_closed:
            raise ValueError("infinite right endpoint must be open")
        if self.left == self.right and not (self.left_closed and self.right_closed):
            raise ValueError("degenerate interval must be a closed singleton")

    @classmethod
    def closed(cls, a: float, b: float) -> "Interval":
        return cls(a, b, True, True)

    @classmethod
    def closed_open(cls, a: float, b: float) -> "Interval":
        return cls(a, b, True, False)

    @classmethod
    def open_closed(cls, a: float, b: float) -> "Interval":
        return cls(a, b, False, True)

    @classmethod
    def tail(cls, b: float) -> "Interval":
        """The left-open unbounded piece (b, inf)."""
        return cls(b, INF, False, False)

    def weight(self) -> float:
        """s(left) - s(right); the flags do not matter."""
        return survival(self.left) - (0.0 if self.right == INF else survival(self.right))

    def contains_point(self, v: float) -> bool:
        if v < self.left or (v == self.left and not self.left_closed):
            return False
        if v > self.right or (v == self.right and not self.right_closed):
            return False
        return True

    def contains_gap(self, a: float, b: float) -> bool:
        """Whether the open interval (a, b) lies inside this component."""
        return self.left <= a and b <= self.right

    def __str__(self) -> str:
        lb = "[" if self.left_closed else "("
        rb = "]" if self.right_closed else ")"
        right = "inf" if self.right == INF else repr(self.right)
        return f"{lb}{self.left!r},{right}{rb}"


# Atoms of the endpoint decomposition: ("point", v) or ("gap", a, b).
_Atom = tuple


def _atoms(points: Sequence[float]) -> list[_Atom]:
    atoms: list[_Atom] = []
    for i, p in enumerate(points):
        atoms.append(("point", p))
        nxt = points[i + 1] if i + 1 < len(points) else INF
        if p < nxt:
            atoms.append(("gap", p, nxt))
    return atoms


def _contains_atom(components: tuple[Interval, ...], atom: _Atom) -> bool:
    if atom[0] == "point":
        return any(c.contains_point(atom[1]) for c in components)
    return any(c.contains_gap(atom[1], atom[2]) for c in components)


@dataclass(frozen=True)
class IntervalSet:
    """A canonical finite union of interval components.

    Components are sorted, pairwise disjoint, and non-adjacent: no pair can
    be merged into one interval.  The empty tuple denotes the empty set.
    Canonical form makes structural equality semantic equality.
    """

    components: tuple[Interval, ...] = ()

    def __post_init__(self) -> None:
        for prev, cur in zip(self.components, self.components[1:]):
            if prev.right > cur.left:
                raise ValueError("components overlap or are out of order")
            if prev.right == cur.left and (prev.right_closed or cur.left_closed):
                raise ValueError("adjacent components must be merged")

    @classmethod
    def of(cls, *components: Interval) -> "IntervalSet":
        """Canonicalize an arbitrary component list (merging as needed)."""
        raw = cls(())
        for c in components:
            raw = union(raw, cls((c,)))
        return raw

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def half_line(cls) -> "IntervalSet":
        return cls((Interval(0.0, INF, True, False),))

    def is_empty(self) -> bool:
        return not self.components

    def endpoints(self) -> set[float]:
        pts = {0.0}
        for c in self.components:
            pts.add(c.left)
            if c.right != INF:
                pts.add(c.right)
        return pts

    def __str__(self) -> str:
        if not self.components:
            return "empty"
        return " u ".join(str(c) for c in self.components)


HALF_LINE = IntervalSet.half_line()


def _rebuild(atoms: list[_Atom], included: list[bool]) -> IntervalSet:
    components: list[Interval] = []
    i = 0
    while i < len(atoms):
        if not included[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(atoms) and included[j + 1]:
            j += 1
        first, last = atoms[i], atoms[j]
        left, left_closed = (first[1], True) if first[0] == "point" else (first[1], False)
        right, right_closed = (last[1], True) if last[0] == "point" else (last[2], False)
        components.append(Interval(left, right, left_closed, right_closed))
        i = j + 1
    return IntervalSet(tuple(components))


def _combine(x: IntervalSet, y: IntervalSet, op) -> IntervalSet:
    points = sorted(x.endpoints() | y.endpoints())
    atoms = _atoms(points)
    included = [
        op(_contains_atom(x.components, a), _contains_atom(y.components, a)) for a in atoms
    ]
    return _rebuild(atoms, included)


def intersect(x: IntervalSet, y: IntervalSet) -> IntervalSet:
    return _combine(x, y, lambda a, b: a and b)


def union(x: IntervalSet, y: IntervalSet) -> IntervalSet:
    return _combine(x, y, lambda a, b: a or b)


def difference(x: IntervalSet, y: IntervalSet) -> IntervalSet:
    return _combine(x, y, lambda a, b: a and not b)


def complement(x: IntervalSet) -> IntervalSet:
    """The complement within the nonnegative half line."""
    return difference(HALF_LINE, x)


def issubset(x: IntervalSet, y: IntervalSet) -> bool:
    points = sorted(x.endpoints() | y.endpoints())
    return all(
        _contains_atom(y.components, a)
        for a in _atoms(points)
        if _contains_atom(x.components, a)
    )


def survival_weight(shape: IntervalSet) -> float:
    """Component-sum of s(left) - s(right), with no shape restriction."""
    return sum(c.weight() for c in shape.components)


def exp_eval(shape: IntervalSet) -> float:
    """Value of a refinement-family shape under the exponential measure.

    Accepted shapes: the empty set (0), the whole half line (1), a single
    bounded interval with at least one closed endpoint (closed singletons
    included, with value 0), a left-open tail (b, inf), or a two-piece set
    [u,a) with (b,v] where v may be infinite.  Anything else is outside the
    family and must be decomposed or rejected by the caller.
    """
    comps = shape.components
    if not comps:
        return 0.0
    if shape == HALF_LINE:
        return 1.0
    if len(comps) == 1:
        c = comps[0]
        if c.right == INF:
            if c.left_closed:
                raise ValueError(f"shape {shape} is outside the refinement family")
            return survival(c.left)
        if not c.left_closed and not c.right_closed:
            raise ValueError(f"open-open shape {shape} is outside the refinement family")
        return c.weight()
    if len(comps) == 2:
        first, second = comps
        first_ok = first.left_closed and not first.right_closed
        second_ok = not second.left_closed and (second.right_closed or second.right == INF)
        if first_ok and second_ok:
            return first.weight() + second.weight()
    raise ValueError(f"shape {shape} is outside the refinement family")


def verify_example_axioms(
    sample_count: int = 1000, seed: int = 0, tol: float = 1e-12
) -> AxiomReport:
    """Spot-check the quasi-measure axioms on the exponential interval coat.

    Draws endpoint tuples u <= a <= b <= v from the given seed and runs the
    two comparisons whose float sides can differ, within ``tol``: the
    "overlapping" split of [u, v] through [a, b], and the cover bound of the
    target [a, b] under [u, v] plus up to two disjoint pieces beyond v (its
    pass rests on ``math.exp`` being monotone in floating point).  Because of
    that draw order the "overlapping" pair is nested too, so truly
    overlapping intervals are never split.  The other declared identities
    hold bit for bit by construction, so they are not computed:

    - "nested" split of [a, b] through [u, v]: the difference is empty, so
      the right side is the left side plus 0.0;
    - "disjoint" split of [u, a] through [b, v]: the meet is empty or the
      closed singleton {a} of weight 0.0, and the difference has the
      endpoints of [u, a];
    - "meet-envelope": the meet is [a, b] itself, and a half-open member
      and its closure share endpoints, which is all ``Interval.weight`` reads;
    - "diff-envelope": summing the closures of the difference's components
      gives 0 + w1 (+ w2), the float ``exp_eval`` computes for it;
    - "cover-bound" that some piece contains the target: [u, v] holds [a, b].
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    rb = ReportBuilder("exponential")
    rb.declare("endpoints", "splitting", "meet-envelope", "diff-envelope", "cover-bound")
    rb.note(f"samples={sample_count} seed={seed} tol={tol!r}")
    # "endpoints" always passes: exp_eval returns the literal 0.0 for the empty set, 1.0 for HALF_LINE.
    rng = random.Random(seed)
    for _ in range(sample_count):
        u, a, b, v = sorted(rng.uniform(0.0, 4.0) for _ in range(4))
        x = IntervalSet.of(Interval.closed(u, v))
        y = IntervalSet.of(Interval.closed(a, b))
        meet = intersect(x, y)
        diff = difference(x, y)
        lhs = exp_eval(x)
        rhs = exp_eval(meet) + exp_eval(diff)
        if abs(lhs - rhs) > tol:
            rb.fail("splitting", Witness(
                (("X", x), ("Y", y), ("meet", meet), ("difference", diff)),
                lhs, rhs, "eq", note="overlapping",
            ))

        pieces = [Interval.closed(u, v)]
        cursor = v
        for _ in range(rng.randrange(3)):
            gap = rng.uniform(0.1, 1.0)
            width = rng.uniform(0.1, 1.0)
            pieces.append(Interval.closed(cursor + gap, cursor + gap + width))
            cursor += gap + width
        bound = sum(exp_eval(IntervalSet.of(p)) for p in pieces)
        if exp_eval(y) > bound + tol:
            rb.fail("cover-bound", Witness(
                (("X", y),) + tuple((f"S{n+1}", IntervalSet.of(p)) for n, p in enumerate(pieces)),
                exp_eval(y), bound, "le",
            ))

    return rb.build()


@dataclass(frozen=True)
class IntervalCover:
    """Minimum-cost pool cover of a target, with the analytic cross-check."""

    chosen: tuple[int, ...]
    cost: float
    analytic: float


def outer_interval(target: IntervalSet, pool: Sequence[Interval]) -> IntervalCover:
    """Exact minimum-cost cover of ``target`` by pool members.

    The pool and target are decomposed over their shared endpoints into
    point and gap atoms; coverage then reduces to the same mask search the
    finite optimizer uses.  The analytic value is the component sum of
    survival weights, which matches the search whenever the pool contains
    the component closures.
    """
    points = set(target.endpoints())
    for p in pool:
        points.add(p.left)
        if p.right != INF:
            points.add(p.right)
    atoms = _atoms(sorted(points))
    target_bits = 0
    for i, atom in enumerate(atoms):
        if _contains_atom(target.components, atom):
            target_bits |= 1 << i
    entries = []
    for idx, p in enumerate(pool):
        bits = 0
        for i, atom in enumerate(atoms):
            if _contains_atom((p,), atom):
                bits |= 1 << i
        entries.append((idx, bits, p.weight()))
    cost, chosen = CoverSolver(entries, 0.0).solve(target_bits)  # ValueError if the pool cannot cover it
    return IntervalCover(chosen, cost, survival_weight(target))
