"""Exponential quasi-measure on the interval coat of the nonnegative half line.

The coat is the closed intervals [a,b] with the empty set and the whole half
line; its refinement adds [a,b), (a,b], tails (b,inf) and two-piece sets
[u,a) with (b,v].  Every shape is worth the sum of s(left) - s(right) over
its components, for s(x) = exp(-x) and s(inf) = 0, whichever endpoints are
closed.  Endpoints carry closed/open flags, never an epsilon, and set algebra
and cover search run on the atom masks of ``_atom_masks``.  Evaluation is
binary floating point, so identity checks take a tolerance (default 1e-12)
although the identities are analytically exact.
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
        if math.isnan(self.left) or math.isnan(self.right):
            raise ValueError("interval endpoints must not be NaN")
        if not 0 <= self.left:
            raise ValueError("interval endpoints must be nonnegative")
        if math.isinf(self.left):
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

    def __str__(self) -> str:
        lb = "[" if self.left_closed else "("
        rb = "]" if self.right_closed else ")"
        right = "inf" if self.right == INF else repr(self.right)
        return f"{lb}{self.left!r},{right}{rb}"


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
        ends, (bits,) = _atom_masks(components)
        return _rebuild(ends, bits)

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def half_line(cls) -> "IntervalSet":
        return cls((Interval(0.0, INF, True, False),))

    def is_empty(self) -> bool:
        return not self.components

    def __str__(self) -> str:
        if not self.components:
            return "empty"
        return " u ".join(str(c) for c in self.components)


HALF_LINE = IntervalSet.half_line()


def _atom_masks(*shapes: Sequence[Interval]) -> tuple[list[float], list[int]]:
    """The sorted endpoints of ``shapes`` (0 and INF always among them) and each shape's atom mask.

    The endpoints p_0 < ... < p_{m-1} < INF split the half line into atoms:
    atom 2i is the point p_i and atom 2i+1 the open gap after it.  Every
    component endpoint is a point, so the component from l to r is the run of
    atoms from 2·pos[l], or the gap after l when it is open, to 2·pos[r], or
    the gap before r when it is open; INF sits at position m.
    """
    points = {0.0, INF}
    for shape in shapes:
        for c in shape:
            points.add(c.left)
            points.add(c.right)
    ends = sorted(points)
    pos = {p: i for i, p in enumerate(ends)}
    masks = []
    for shape in shapes:
        bits = 0
        for c in shape:
            lo = 2 * pos[c.left] + (not c.left_closed)
            hi = 2 * pos[c.right] - (not c.right_closed)
            bits |= (2 << hi) - (1 << lo)
        masks.append(bits)
    return ends, masks


def _rebuild(ends: list[float], bits: int) -> IntervalSet:
    """The canonical set of the atoms in ``bits``: one component per run of set bits.

    A run that starts or ends on a point atom (even index) has that endpoint
    closed; on a gap atom, the endpoint is the gap's open end.
    """
    components = []
    while bits:
        low = bits & -bits
        lo = low.bit_length() - 1
        # Adding the lowest bit carries through its run into the bit above it.
        hi = (bits ^ (bits + low)).bit_length() - 2
        bits &= bits + low
        components.append(Interval(ends[lo >> 1], ends[(hi + 1) >> 1], not lo & 1, not hi & 1))
    return IntervalSet(tuple(components))


def intersect(x: IntervalSet, y: IntervalSet) -> IntervalSet:
    ends, (mx, my) = _atom_masks(x.components, y.components)
    return _rebuild(ends, mx & my)


def difference(x: IntervalSet, y: IntervalSet) -> IntervalSet:
    ends, (mx, my) = _atom_masks(x.components, y.components)
    return _rebuild(ends, mx & ~my)


def issubset(x: IntervalSet, y: IntervalSet) -> bool:
    _, (mx, my) = _atom_masks(x.components, y.components)
    return mx & ~my == 0


def survival_weight(shape: IntervalSet) -> float:
    """Component-sum of s(left) - s(right), with no shape restriction."""
    return sum((c.weight() for c in shape.components), 0.0)


# (left_closed, right_closed, right == INF) of each component, per family shape but the half line.
_FAMILY_KINDS = {
    (),  # the empty set
    ((True, True, False),),  # [a, b], closed singletons included
    ((True, False, False),),  # [a, b)
    ((False, True, False),),  # (a, b]
    ((False, False, True),),  # (b, inf)
    ((True, False, False), (False, True, False)),  # [u, a) with (b, v]
    ((True, False, False), (False, False, True)),  # [u, a) with (b, inf)
}


def exp_eval(shape: IntervalSet) -> float:
    """Value of a refinement-family shape under the exponential measure: its ``survival_weight``.

    The family is the whole half line and the component kinds of
    ``_FAMILY_KINDS``; any other shape raises ``ValueError``.
    """
    kinds = tuple((c.left_closed, c.right_closed, c.right == INF) for c in shape.components)
    if kinds not in _FAMILY_KINDS and shape != HALF_LINE:
        raise ValueError(f"shape {shape} is outside the refinement family")
    return survival_weight(shape)


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

    Both sides of each comparison come from the four survival values s(u),
    s(a), s(b) and s(v), and shapes are built only for witnesses.  The
    difference [u, a) with (b, v] is worth (s(u) - s(a)) + (s(b) - s(v)) even
    when u == a or b == v, the float ``exp_eval`` gives for its one-piece or
    empty form, because ``x - x == 0.0`` and ``0.0 + y == y`` hold exactly.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    rb = ReportBuilder("exponential")
    rb.declare("endpoints", "splitting", "meet-envelope", "diff-envelope", "cover-bound")
    rb.note(f"samples={sample_count} seed={seed} tol={tol!r}")
    # "endpoints" always passes: exp_eval gives 0.0 for the empty set, exp(-0.0) = 1.0 for HALF_LINE.
    rng = random.Random(seed)
    for _ in range(sample_count):
        u, a, b, v = sorted(rng.uniform(0.0, 4.0) for _ in range(4))
        su, sa, sb, sv = survival(u), survival(a), survival(b), survival(v)
        lhs = su - sv
        meet = sa - sb
        rhs = meet + ((su - sa) + (sb - sv))
        if abs(lhs - rhs) > tol:
            x = IntervalSet.of(Interval.closed(u, v))
            y = IntervalSet.of(Interval.closed(a, b))
            rb.fail("splitting", Witness(
                (("X", x), ("Y", y), ("meet", intersect(x, y)), ("difference", difference(x, y))),
                lhs, rhs, "eq", note="overlapping",
            ))

        pieces = [(u, v)]
        cursor = v
        for _ in range(rng.randrange(3)):
            gap = rng.uniform(0.1, 1.0)
            width = rng.uniform(0.1, 1.0)
            pieces.append((cursor + gap, cursor + gap + width))
            cursor += gap + width
        bound = sum(survival(lo) - survival(hi) for lo, hi in pieces)
        if meet > bound + tol:
            rb.fail("cover-bound", Witness(
                (("X", IntervalSet.of(Interval.closed(a, b))),)
                + tuple((f"S{n+1}", IntervalSet.of(Interval.closed(*p))) for n, p in enumerate(pieces)),
                meet, bound, "le",
            ))

    return rb.build()


@dataclass(frozen=True)
class IntervalCover:
    """Minimum-cost pool cover of a target, with the analytic cross-check."""

    chosen: tuple[int, ...]
    cost: float
    analytic: float


def outer_interval(target: IntervalSet, pool: Sequence[Interval]) -> IntervalCover:
    """Exact minimum-cost cover of ``target`` by pool members, on their ``_atom_masks``.

    The analytic value is the component sum of survival weights, which
    matches the search whenever the pool contains the component closures.
    """
    _, (target_bits, *pool_bits) = _atom_masks(target.components, *((p,) for p in pool))
    entries = [(idx, bits, p.weight()) for idx, (p, bits) in enumerate(zip(pool, pool_bits))]
    cost, chosen = CoverSolver(entries, 0.0).solve(target_bits)  # ValueError if the pool cannot cover it
    return IntervalCover(chosen, cost, survival_weight(target))
