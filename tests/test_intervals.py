import math
import random
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ReferenceCoverSolver
from quasimeasure import (
    Interval,
    IntervalSet,
    exp_eval,
    outer_interval,
    survival_weight,
    verify_example_axioms,
)
from quasimeasure.intervals import HALF_LINE, _atom_masks, _rebuild, difference, intersect, issubset
from quasimeasure.quasi import CoverSolver
from quasimeasure.report import ReportBuilder, Witness

TOL = 1e-12


def closed(a, b):
    return IntervalSet.of(Interval.closed(a, b))


class TestExpEval:
    def test_log_two_interval(self):
        assert abs(exp_eval(closed(0.0, math.log(2))) - 0.5) <= TOL

    def test_endpoints_exact(self):
        assert exp_eval(IntervalSet.empty()) == 0.0
        assert exp_eval(IntervalSet.half_line()) == 1.0

    def test_two_piece_closed_form(self):
        shape = IntervalSet.of(Interval.closed_open(0.0, 1.0), Interval.open_closed(2.0, 3.0))
        expected = 1 - math.exp(-1) + math.exp(-2) - math.exp(-3)
        assert abs(exp_eval(shape) - expected) <= TOL

    def test_endpoint_style_invariance_exact(self):
        rng = random.Random(3)
        for _ in range(50):
            a, b = sorted(rng.uniform(0, 5) for _ in range(2))
            if a == b:
                continue
            values = {
                exp_eval(IntervalSet.of(Interval.closed(a, b))),
                exp_eval(IntervalSet.of(Interval.closed_open(a, b))),
                exp_eval(IntervalSet.of(Interval.open_closed(a, b))),
            }
            assert len(values) == 1

    def test_singleton_worth_nothing(self):
        assert exp_eval(closed(2.0, 2.0)) == 0.0

    def test_tail_value(self):
        assert abs(exp_eval(IntervalSet.of(Interval.tail(1.5))) - math.exp(-1.5)) <= TOL

    def test_rejects_shapes_outside_family(self):
        with pytest.raises(ValueError, match="outside"):
            exp_eval(IntervalSet.of(Interval(1.0, 2.0, False, False)))
        with pytest.raises(ValueError, match="outside"):
            exp_eval(IntervalSet.of(Interval(1.0, math.inf, True, False)))
        three = IntervalSet.of(
            Interval.closed(0.0, 1.0), Interval.closed(2.0, 3.0), Interval.closed(4.0, 5.0)
        )
        with pytest.raises(ValueError, match="outside"):
            exp_eval(three)
        # closed-closed pair is not a difference shape either
        pair = IntervalSet.of(Interval.closed(0.0, 1.0), Interval.closed(2.0, 3.0))
        with pytest.raises(ValueError, match="outside"):
            exp_eval(pair)

    def test_monotone_under_inclusion(self):
        rng = random.Random(5)
        for _ in range(100):
            u, a, b, v = sorted(rng.uniform(0, 5) for _ in range(4))
            inner = closed(a, b)
            outer_set = closed(u, v)
            assert issubset(inner, outer_set)
            assert exp_eval(inner) <= exp_eval(outer_set) + TOL


def reference_exp_eval(shape):
    """``exp_eval`` as it was when each family shape had its own arithmetic branch."""
    comps = shape.components
    if not comps:
        return 0.0
    if shape == HALF_LINE:
        return 1.0
    if len(comps) == 1:
        c = comps[0]
        if c.right == math.inf:
            if c.left_closed:
                raise ValueError(f"shape {shape} is outside the refinement family")
            return math.exp(-c.left)
        if not c.left_closed and not c.right_closed:
            raise ValueError(f"open-open shape {shape} is outside the refinement family")
        return c.weight()
    if len(comps) == 2:
        first, second = comps
        first_ok = first.left_closed and not first.right_closed
        second_ok = not second.left_closed and (second.right_closed or second.right == math.inf)
        if first_ok and second_ok:
            return first.weight() + second.weight()
    raise ValueError(f"shape {shape} is outside the refinement family")


def evaluation(evaluate, shape):
    """``evaluate(shape)`` as a float's hex digits, or "outside" when it refuses the shape."""
    try:
        return evaluate(shape).hex()
    except ValueError as exc:
        assert "outside" in str(exc)
        return "outside"


def test_exp_eval_matches_the_reference_on_every_grid_shape():
    # The atoms over the points 0, 0.5, 1, 2 (and the gap to inf): every set
    # of at most three runs of them is a shape of at most three components.
    ends = [0.0, 0.5, 1.0, 2.0, math.inf]
    shapes = {_rebuild(ends, bits) for bits in range(1 << 8)}
    shapes = [s for s in shapes if len(s.components) <= 3]
    outcomes = Counter()
    for shape in shapes:
        got = evaluation(exp_eval, shape)
        assert got == evaluation(reference_exp_eval, shape), shape
        outcomes[got != "outside"] += 1
    assert len(shapes) == 247 and outcomes == {True: 43, False: 204}


class TestIntervalSets:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0, True, True)
        with pytest.raises(ValueError):
            Interval(-1.0, 1.0, True, True)
        with pytest.raises(ValueError):
            Interval(0.0, math.inf, True, True)
        with pytest.raises(ValueError):
            Interval(1.0, 1.0, True, False)
        with pytest.raises(ValueError, match="^left endpoint must be finite$"):
            Interval(math.inf, math.inf, False, False)

    @pytest.mark.parametrize("left, right", [(1.0, math.nan), (math.nan, 2.0), (math.nan, math.nan)])
    def test_nan_endpoint_is_refused_as_nan(self, left, right):
        with pytest.raises(ValueError, match="^interval endpoints must not be NaN$"):
            Interval(left, right, True, True)

    def test_canonical_form_rejects_mergeable(self):
        with pytest.raises(ValueError, match="merged"):
            IntervalSet((Interval.closed_open(0.0, 1.0), Interval.closed(1.0, 2.0)))
        with pytest.raises(ValueError, match="overlap"):
            IntervalSet((Interval.closed(0.0, 2.0), Interval.closed(1.0, 3.0)))

    def test_empty_set_prints_as_empty(self):
        assert str(IntervalSet()) == "empty"

    def test_of_merges_adjacent(self):
        merged = IntervalSet.of(Interval.closed_open(0.0, 1.0), Interval.closed(1.0, 2.0))
        assert merged == closed(0.0, 2.0)

    def test_punctured_interval_stays_two_pieces(self):
        kept = IntervalSet.of(Interval.closed_open(0.0, 1.0), Interval.open_closed(1.0, 2.0))
        assert len(kept.components) == 2

    def test_difference_produces_the_two_piece_shape(self):
        x = closed(0.0, 3.0)
        y = closed(1.0, 2.0)
        expected = IntervalSet.of(Interval.closed_open(0.0, 1.0), Interval.open_closed(2.0, 3.0))
        assert difference(x, y) == expected

    def test_complement_of_closed_interval(self):
        got = difference(HALF_LINE, closed(1.0, 2.0))
        expected = IntervalSet.of(Interval.closed_open(0.0, 1.0), Interval.tail(2.0))
        assert got == expected

    def test_intersect_and_union_roundtrip(self):
        rng = random.Random(9)
        for _ in range(50):
            u, a, b, v = sorted(rng.uniform(0, 4) for _ in range(4))
            x = closed(u, b)
            y = closed(a, v)
            meet = intersect(x, y)
            assert issubset(meet, x) and issubset(meet, y)
            assert IntervalSet.of(*meet.components, *difference(x, y).components) == x

    def test_of_accepts_unsorted_overlapping_input(self):
        got = IntervalSet.of(Interval.closed(2.0, 3.0), Interval.closed(0.0, 1.0),
                             Interval.closed(2.5, 4.0))
        assert got == IntervalSet.of(Interval.closed(0.0, 1.0), Interval.closed(2.0, 4.0))

    def test_complement_of_tail_is_origin_singleton(self):
        got = difference(HALF_LINE, IntervalSet.of(Interval.tail(0.0)))
        assert got == closed(0.0, 0.0)

    def test_complement_of_open_interval_keeps_boundary_points(self):
        got = difference(HALF_LINE, IntervalSet.of(Interval(1.0, 2.0, False, False)))
        assert got == IntervalSet.of(Interval.closed(0.0, 1.0), Interval(2.0, math.inf, True, False))


@st.composite
def intervals(draw):
    """One interval with integer endpoints in 0..5, or a tail to infinity."""
    left = float(draw(st.integers(0, 5)))
    right = draw(st.sampled_from([*range(int(left), 6), math.inf]))
    if right == left:
        return Interval.closed(left, left)
    return Interval(left, float(right), draw(st.booleans()), right != math.inf and draw(st.booleans()))


interval_lists = st.lists(intervals(), max_size=4)


@st.composite
def family_shapes(draw):
    """A shape of the refinement family on drawn endpoints u < a < b < v."""
    u, a, b, v = sorted(draw(st.lists(st.floats(0.0, 50.0), min_size=4, max_size=4, unique=True)))
    return draw(st.sampled_from([
        IntervalSet(), HALF_LINE, closed(u, u), closed(u, a),
        IntervalSet.of(Interval.closed_open(u, a)), IntervalSet.of(Interval.open_closed(u, a)),
        IntervalSet.of(Interval.tail(u)),
        IntervalSet.of(Interval.closed_open(u, a), Interval.open_closed(b, v)),
        IntervalSet.of(Interval.closed_open(u, a), Interval.tail(b)),
    ]))


@settings(max_examples=150)
@given(st.one_of(family_shapes(), interval_lists.map(lambda xs: IntervalSet.of(*xs))))
def test_exp_eval_matches_the_reference_bit_for_bit(shape):
    assert evaluation(exp_eval, shape) == evaluation(reference_exp_eval, shape)


@settings(max_examples=100)
@given(interval_lists, interval_lists)
def test_interval_set_operations_obey_the_set_laws(xs, ys):
    x, y = IntervalSet.of(*xs), IntervalSet.of(*ys)
    assert intersect(x, y) == intersect(y, x)
    assert intersect(x, x) == x
    assert issubset(x, y) == (intersect(x, y) == x)


@settings(max_examples=100)
@given(interval_lists.flatmap(lambda xs: st.tuples(st.just(xs), st.permutations(xs))))
def test_interval_set_of_is_order_independent_and_canonical(case):
    components, shuffled = case
    s = IntervalSet.of(*components)
    assert IntervalSet.of(*shuffled) == s
    assert IntervalSet.of(*s.components) == s


def holds(components, x):
    """Whether the point ``x`` lies in some component, read off the endpoint flags."""
    return any(
        (c.left < x or (x == c.left and c.left_closed)) and (x < c.right or (x == c.right and c.right_closed))
        for c in components
    )


def atom_probes(points):
    """One point inside each atom of the sorted distinct ``points``: each point, then its gap's
    midpoint, or ``last + 1`` for the final gap."""
    probes = []
    for p, q in zip(points, [*points[1:], math.inf]):
        mid = (p + q) / 2 if q != math.inf else p + 1
        assert p < mid < q
        probes += [p, mid]
    return probes


def shape_points(*shapes):
    """The sorted distinct finite endpoints of the component lists ``shapes``, with 0."""
    return sorted({0.0}.union(*({c.left, c.right} for shape in shapes for c in shape)) - {math.inf})


def oracle_mask(components, points):
    """The atoms over ``points`` whose probe lies in ``components``: atom 2i the point, 2i+1 the gap after it."""
    return sum(1 << a for a, x in enumerate(atom_probes(points)) if holds(components, x))


@settings(max_examples=150)
@given(interval_lists, interval_lists)
def test_interval_set_operations_match_pointwise_membership(xs, ys):
    x, y = IntervalSet.of(*xs), IntervalSet.of(*ys)
    probes = atom_probes(shape_points(xs, ys))
    for z in probes:
        in_x, in_y = holds(xs, z), holds(ys, z)
        assert holds(x.components, z) == in_x and holds(y.components, z) == in_y
        assert holds(intersect(x, y).components, z) == (in_x and in_y)
        assert holds(difference(x, y).components, z) == (in_x and not in_y)
    assert issubset(x, y) == all(holds(ys, z) for z in probes if holds(xs, z))


class TestAtomEdgeCases:
    def test_closed_half_line(self):
        whole = IntervalSet.of(Interval(0.0, math.inf, True, False))
        assert whole == HALF_LINE
        assert IntervalSet.of(Interval.closed(0.0, 1.0), Interval.tail(1.0)) == HALF_LINE
        assert difference(HALF_LINE, HALF_LINE).is_empty()
        assert difference(HALF_LINE, IntervalSet.of(Interval.tail(0.0))) == closed(0.0, 0.0)
        assert issubset(IntervalSet.of(Interval.tail(3.0)), HALF_LINE)
        assert not issubset(HALF_LINE, IntervalSet.of(Interval.tail(0.0)))

    def test_negative_zero_left_endpoint_reads_as_zero(self):
        shape = IntervalSet.of(Interval.closed(-0.0, 1.0))
        assert shape == closed(0.0, 1.0) and str(shape) == "[0.0,1.0]"
        assert difference(HALF_LINE, shape) == IntervalSet.of(Interval.tail(1.0))
        assert str(IntervalSet.of(Interval.closed(-0.0, 1.0), Interval.closed(2.0, 3.0))) == "[0.0,1.0] u [2.0,3.0]"
        result = outer_interval(IntervalSet((Interval.closed(-0.0, 1.0),)), [Interval.closed(0.0, 1.0)])
        assert result.chosen == (0,)

    def test_punctured_interval(self):
        punctured = IntervalSet.of(Interval.closed_open(0.0, 1.0), Interval.open_closed(1.0, 2.0))
        point = closed(1.0, 1.0)
        assert IntervalSet.of(*punctured.components, *point.components) == closed(0.0, 2.0)
        assert intersect(punctured, point).is_empty()
        assert difference(HALF_LINE, punctured) == IntervalSet.of(Interval.closed(1.0, 1.0), Interval.tail(2.0))
        assert issubset(punctured, closed(0.0, 2.0)) and not issubset(closed(0.0, 2.0), punctured)
        assert outer_interval(punctured, [Interval.closed(0.0, 2.0)]).chosen == (0,)


class TestExampleSuite:
    def test_thousand_samples_pass(self):
        report = verify_example_axioms(sample_count=1000, seed=0, tol=1e-12)
        assert report.passed
        for result in report.results:
            assert result.witnesses == ()

    def test_puncture_case_identity_tight(self):
        # (u, a, b, v) = (0, 1, 1, 2): the difference is [0,1) with (1,2].
        x = closed(0.0, 2.0)
        y = closed(1.0, 1.0)
        diff = difference(x, y)
        assert diff == IntervalSet.of(Interval.closed_open(0.0, 1.0), Interval.open_closed(1.0, 2.0))
        lhs = exp_eval(x)
        rhs = exp_eval(intersect(x, y)) + exp_eval(diff)
        assert abs(lhs - rhs) <= 1e-15

    def test_identity_trivial_cases(self):
        x = closed(0.5, 1.5)
        assert exp_eval(intersect(x, x)) == exp_eval(x)
        assert difference(x, x).is_empty()
        y = closed(2.0, 3.0)
        assert intersect(x, y).is_empty()
        assert difference(x, y) == x

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            verify_example_axioms(sample_count=1, seed=0, tol=0.0)
        # Without samples only the two endpoint checks would run and pass.
        for count in (0, -5):
            with pytest.raises(ValueError, match="sample_count"):
                verify_example_axioms(sample_count=count, seed=0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_rejects_non_finite_tolerance(self, tol):
        # inf would pass every comparison and nan would fail none.
        with pytest.raises(ValueError, match="finite"):
            verify_example_axioms(sample_count=1, seed=0, tol=tol)

    def test_deterministic_in_seed(self):
        a = verify_example_axioms(sample_count=50, seed=7)
        b = verify_example_axioms(sample_count=50, seed=7)
        assert a == b

    def test_cover_bound_witness_names_the_target_and_its_pieces(self, monkeypatch):
        # With an increasing survival function every "weight" is negative, and
        # [u, v] plus its pieces beyond v weigh less than the [a, b] they cover.
        monkeypatch.setattr("quasimeasure.intervals.survival", lambda x: x)
        witness = verify_example_axioms(sample_count=5, seed=0).result("cover-bound").witnesses[0]
        roles = [role for role, _ in witness.sets]
        assert len(roles) >= 2 and roles == ["X", *(f"S{i}" for i in range(1, len(roles)))]
        (target,) = dict(witness.sets)["X"].components
        pieces = [piece for _, shape in witness.sets[1:] for piece in shape.components]
        assert len(pieces) == len(roles) - 1
        assert issubset(dict(witness.sets)["X"], dict(witness.sets)["S1"])
        assert all(earlier.right < later.left for earlier, later in zip(pieces, pieces[1:]))
        assert witness.lhs == target.left - target.right
        assert witness.rhs == sum(piece.left - piece.right for piece in pieces)
        assert witness.relation == "le" and witness.lhs > witness.rhs

    def test_sub_rounding_tolerance_reports_witnesses(self):
        # The identities are analytically exact, so only rounding error
        # remains; a tolerance below one ulp must surface it as failures
        # whose witnesses carry both float sides.
        report = verify_example_axioms(sample_count=200, seed=0, tol=1e-18)
        if report.passed:
            pytest.skip("floating identities exact on this platform")
        witness = report.failures()[0].witnesses[0]
        assert isinstance(witness.lhs, float) and isinstance(witness.rhs, float)
        assert abs(witness.lhs - witness.rhs) > 1e-18
        assert witness.render()


def exp_eval_exact(shape):
    """The value of a family shape as its coefficient map ``{p: c_p}`` of Σ c_p·e^{-p}.

    Each component from l to r adds e^{-l} - e^{-r}, with e^{-inf} = 0, and
    ``Fraction(float)`` makes each endpoint an exact rational.  Exponentials of
    distinct rationals are linearly independent over Q (Lindemann-Weierstrass),
    so two such sums are equal as reals iff their coefficient maps are equal.
    """
    terms = Counter()
    for c in shape.components:
        terms[Fraction(c.left)] += 1
        if c.right != math.inf:
            terms[Fraction(c.right)] -= 1
    return {p: k for p, k in terms.items() if k}


def exact_sum(maps):
    """The coefficient map of a sum of coefficient maps, without zero terms."""
    total = Counter()
    for terms in maps:
        total.update(terms)
    return {p: c for p, c in total.items() if c}


def exactly_at_most(small, large):
    """A sufficient exact test of Σ small ≤ Σ large on coefficient maps.

    Over the endpoints p_1 < ... < p_m of the difference, Abel summation gives
    Σ S_k·(e^{-p_k} - e^{-p_{k+1}}) with e^{-p_{m+1}} = 0 and S_k the sum of the
    first k coefficients; every bracket is positive, so S_k >= 0 suffices.
    """
    difference_map = exact_sum([large, {p: -c for p, c in small.items()}])
    partial = 0
    for p in sorted(difference_map):
        partial += difference_map[p]
        if partial < 0:
            return False
    return True


def reference_verify_example_axioms(sample_count=1000, seed=0, tol=1e-12):
    """The example suite as it was before it dropped the checks that pass by construction.

    Same draws, declared checks and notes as ``verify_example_axioms``; it also
    computes the "nested" and "disjoint" splits, the envelope checks and the
    cover-exists test, so its report pins that dropping them changes nothing.
    """
    rb = ReportBuilder("exponential")
    rb.declare("endpoints", "splitting", "meet-envelope", "diff-envelope", "cover-bound")
    rb.note(f"samples={sample_count} seed={seed} tol={tol!r}")
    rng = random.Random(seed)

    def check_split(name, x, y):
        meet = intersect(x, y)
        diff = difference(x, y)
        lhs = exp_eval(x)
        rhs = exp_eval(meet) + exp_eval(diff)
        if abs(lhs - rhs) > tol:
            rb.fail("splitting", Witness(
                (("X", x), ("Y", y), ("meet", meet), ("difference", diff)),
                lhs, rhs, "eq", note=name,
            ))

    for _ in range(sample_count):
        u, a, b, v = sorted(rng.uniform(0.0, 4.0) for _ in range(4))
        x = IntervalSet.of(Interval.closed(u, v))
        y = IntervalSet.of(Interval.closed(a, b))

        check_split("overlapping", x, y)
        check_split("nested", y, x)
        lo = IntervalSet.of(Interval.closed(u, a))
        hi = IntervalSet.of(Interval.closed(b, v))
        check_split("disjoint", lo, hi)

        meet = intersect(x, y)
        if not meet.is_empty():
            closure = IntervalSet.of(Interval.closed(meet.components[0].left, meet.components[0].right))
            if abs(exp_eval(meet) - exp_eval(closure)) > tol:
                rb.fail("meet-envelope", Witness(
                    (("meet", meet), ("W", closure)), exp_eval(meet), exp_eval(closure), "eq"))
        for kind in (Interval.closed_open, Interval.open_closed):
            if a < b:
                half = IntervalSet.of(kind(a, b))
                closure = IntervalSet.of(Interval.closed(a, b))
                if abs(exp_eval(half) - exp_eval(closure)) > tol:
                    rb.fail("meet-envelope", Witness(
                        (("member", half), ("W", closure)), exp_eval(half), exp_eval(closure), "eq"))
        diff = difference(x, y)
        if not diff.is_empty():
            closures = [Interval.closed(c.left, c.right) for c in diff.components]
            total = sum(exp_eval(IntervalSet.of(c)) for c in closures)
            if abs(exp_eval(diff) - total) > tol:
                rb.fail("diff-envelope", Witness(
                    (("difference", diff), ("Z", IntervalSet.of(*closures))),
                    exp_eval(diff), total, "eq",
                    note="component closures do not reproduce the value",
                ))

        target = IntervalSet.of(Interval.closed(a, b))
        pieces = [Interval.closed(u, v)]
        cursor = v
        for _ in range(rng.randrange(3)):
            gap = rng.uniform(0.1, 1.0)
            width = rng.uniform(0.1, 1.0)
            pieces.append(Interval.closed(cursor + gap, cursor + gap + width))
            cursor += gap + width
        if not any(issubset(target, IntervalSet.of(p)) for p in pieces):
            rb.fail("cover-bound", Witness(
                (("X", target),), exp_eval(target), None, "exists",
                note="no single disjoint cover member contains the connected target",
            ))
        bound = sum(exp_eval(IntervalSet.of(p)) for p in pieces)
        if exp_eval(target) > bound + tol:
            rb.fail("cover-bound", Witness(
                (("X", target),) + tuple((f"S{n+1}", IntervalSet.of(p)) for n, p in enumerate(pieces)),
                exp_eval(target), bound, "le",
            ))

    return rb.build()


def example_suite_checks(sample_count, seed):
    """The checks ``reference_verify_example_axioms`` makes after the endpoints, replayed from its seed.

    Yields ``(check, lhs, rhs)`` where each side is a list of shapes whose
    values add up to it: "cover-bound" claims lhs <= rhs, every other check
    lhs == rhs.  The draws match the suite's one for one.
    """
    rng = random.Random(seed)
    for _ in range(sample_count):
        u, a, b, v = sorted(rng.uniform(0.0, 4.0) for _ in range(4))
        x, y = closed(u, v), closed(a, b)
        for p, q in ((x, y), (y, x), (closed(u, a), closed(b, v))):
            yield "splitting", [p], [intersect(p, q), difference(p, q)]
        meet = intersect(x, y)
        if not meet.is_empty():
            yield "meet-envelope", [meet], [closed(meet.components[0].left, meet.components[0].right)]
        if a < b:
            for kind in (Interval.closed_open, Interval.open_closed):
                yield "meet-envelope", [IntervalSet.of(kind(a, b))], [closed(a, b)]
        diff = difference(x, y)
        if not diff.is_empty():
            yield "diff-envelope", [diff], [closed(c.left, c.right) for c in diff.components]
        pieces = [closed(u, v)]
        cursor = v
        for _ in range(rng.randrange(3)):
            gap, width = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
            pieces.append(closed(cursor + gap, cursor + gap + width))
            cursor += gap + width
        yield "cover-bound", [closed(a, b)], pieces


def test_example_identities_hold_exactly_and_floats_stay_far_below_tol():
    assert exp_eval_exact(IntervalSet.empty()) == {} and exp_eval_exact(HALF_LINE) == {0: 1}
    worst = 0.0
    for check, lhs, rhs in example_suite_checks(1000, 0):
        exact_lhs = exact_sum(map(exp_eval_exact, lhs))
        exact_rhs = exact_sum(map(exp_eval_exact, rhs))
        if check == "cover-bound":
            assert exactly_at_most(exact_lhs, exact_rhs), (lhs, rhs)
        else:
            assert exact_lhs == exact_rhs, (check, lhs, rhs)
            worst = max(worst, abs(sum(map(exp_eval, lhs)) - sum(map(exp_eval, rhs))))
    assert 0 < worst < TOL / 1000


def test_replay_draws_the_example_suite_samples():
    # Every sample makes the same draws, so agreeing on the first 200 samples'
    # floats, down to the discrepancies above 1e-16, means agreeing on all.
    above = defaultdict(list)
    for check, lhs, rhs in example_suite_checks(200, 0):
        float_lhs, float_rhs = sum(map(exp_eval, lhs)), sum(map(exp_eval, rhs))
        if check != "cover-bound" and abs(float_lhs - float_rhs) > 1e-16:
            above[check].append((float_lhs, float_rhs))
    suite = verify_example_axioms(sample_count=200, seed=0, tol=1e-16)
    assert above and above == {r.name: [(w.lhs, w.rhs) for w in r.witnesses] for r in suite.failures()}


@pytest.mark.parametrize("tol", [1e-12, 1e-16, 1e-17, 1e-300, 5e-324, 1.0])
def test_suite_reports_what_the_reference_reports(tol):
    # Only the "overlapping" split and the cover-bound value can differ from
    # the reference; small tolerances make the split's last-ulp gaps witnesses.
    for seed in range(6):
        expected = reference_verify_example_axioms(40, seed, tol)
        assert repr(verify_example_axioms(40, seed, tol)) == repr(expected)
    if tol == 1e-17:
        for seed in (0, 7):
            expected = reference_verify_example_axioms(500, seed, tol)
            assert not expected.passed
            assert repr(verify_example_axioms(500, seed, tol)) == repr(expected)


def test_suite_builds_shapes_only_for_witnesses(monkeypatch):
    # Every IntervalSet the suite builds goes through one _atom_masks call
    # (IntervalSet.of, intersect, difference), and each names one witness set.
    calls = Counter()

    def counting_atom_masks(*shapes):
        calls["_atom_masks"] += 1
        return _atom_masks(*shapes)

    monkeypatch.setattr("quasimeasure.intervals._atom_masks", counting_atom_masks)
    assert verify_example_axioms(sample_count=200, seed=0).passed
    assert calls["_atom_masks"] == 0
    report = verify_example_axioms(sample_count=200, seed=0, tol=1e-17)
    witnesses = [w for r in report.failures() for w in r.witnesses]
    assert witnesses and calls["_atom_masks"] == sum(len(w.sets) for w in witnesses)


class GridRandom(random.Random):
    """Endpoints drawn from a small grid, so that u == a, a == b and b == v occur."""

    GRID = (0.0, 0.5, 1.0, math.nextafter(1.0, 4.0), 2.5, 4.0)

    def uniform(self, a, b):
        if (a, b) == (0.0, 4.0):
            return self.choice(self.GRID)
        return super().uniform(a, b)


@settings(max_examples=100, derandomize=True)
@given(st.integers(0, 2**32), st.integers(1, 60), st.sampled_from([5e-324, 1e-17, 1e-16, 1e-12]))
def test_suite_matches_the_reference_on_tied_endpoints(seed, count, tol):
    # Tied endpoints give the one-piece and empty differences, which uniform
    # draws never reach; both suites draw through the same patched Random.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("quasimeasure.intervals.random.Random", GridRandom)
        suite = verify_example_axioms(count, seed, tol)
        expected = reference_verify_example_axioms(count, seed, tol)
    assert repr(suite) == repr(expected)
    for got, want in zip(suite.results, expected.results):
        assert [(w.lhs.hex(), w.rhs.hex()) for w in got.witnesses] == [
            (w.lhs.hex(), w.rhs.hex()) for w in want.witnesses]


class TestOuterInterval:
    def test_prefers_exact_fit(self):
        pool = [Interval.closed(0.0, 1.0), Interval.closed(0.0, 2.0)]
        result = outer_interval(closed(0.0, 1.0), pool)
        assert result.chosen == (0,)
        assert abs(result.cost - (1 - math.exp(-1))) <= TOL

    def test_empty_target(self):
        result = outer_interval(IntervalSet.empty(), [Interval.closed(0.0, 1.0)])
        assert result.chosen == () and result.cost == 0.0

    def test_empty_target_values_are_floats(self):
        assert type(survival_weight(IntervalSet())) is float
        for pool in ([], [Interval.closed(0.0, 1.0)]):
            result = outer_interval(IntervalSet(), pool)
            assert (result.cost, result.analytic) == (0.0, 0.0)
            assert type(result.cost) is float and type(result.analytic) is float

    def test_two_piece_cover_beats_one_big_interval(self):
        pool = [Interval.closed(0.0, 1.0), Interval.closed(2.0, 3.0), Interval.closed(0.0, 3.0)]
        target = IntervalSet.of(Interval.closed_open(0.0, 1.0), Interval.open_closed(2.0, 3.0))
        result = outer_interval(target, pool)
        assert result.chosen == (0, 1)
        expected = (1 - math.exp(-1)) + (math.exp(-2) - math.exp(-3))
        assert abs(result.cost - expected) <= TOL
        assert result.cost < 1 - math.exp(-3)

    def test_analytic_agreement_with_component_closures(self):
        rng = random.Random(21)
        for _ in range(40):
            u, a, b, v = sorted(rng.uniform(0, 4) for _ in range(4))
            if u == a or b == v:
                continue
            target = IntervalSet.of(Interval.closed_open(u, a), Interval.open_closed(b, v))
            pool = [Interval.closed(u, a), Interval.closed(b, v), Interval.closed(u, v)]
            result = outer_interval(target, pool)
            chosen = exact_sum(exp_eval_exact(IntervalSet.of(pool[i])) for i in result.chosen)
            assert chosen == exp_eval_exact(target), (target, result.chosen)
            assert result.analytic == survival_weight(target)

    def test_equal_weight_members_tie_on_the_lowest_indices(self):
        # (1,3] and [1,3] weigh the same, so {0, 1} and {1, 2} tie on cost and
        # size.  [1,3] also covers the point 1, so {1, 2} is found first; the
        # tie must still be compared for the lower indices {0, 1} to win.
        pool = [Interval.open_closed(1.0, 3.0), Interval.closed(0.0, 1.0), Interval.closed(1.0, 3.0)]
        assert pool[0].weight() == pool[2].weight()
        target = IntervalSet.of(Interval.closed(0.0, 1.0), Interval.closed(2.0, 3.0))
        result = outer_interval(target, pool)
        assert result.chosen == (0, 1)
        assert result.cost == pool[0].weight() + pool[1].weight()

    def test_infeasible_pool_is_an_error(self):
        with pytest.raises(ValueError, match="cover"):
            outer_interval(closed(0.0, 3.0), [Interval.closed(0.0, 1.0)])

    def test_pool_with_a_gap_leaves_the_target_uncoverable(self):
        # (1, 2) lies in no pool member, so the cover search itself refuses.
        pool = [Interval.closed(0.0, 1.0), Interval.closed(2.0, 3.0)]
        with pytest.raises(ValueError, match="target not coverable by the available members"):
            outer_interval(closed(0.0, 3.0), pool)

    def test_open_endpoint_leaves_a_point_uncovered(self):
        # [0,1] is not covered by [0,1): the right endpoint is missing,
        # and endpoint flags are exact, not fuzzy.
        with pytest.raises(ValueError, match="cover"):
            outer_interval(closed(0.0, 1.0), [Interval.closed_open(0.0, 1.0)])
        result = outer_interval(
            IntervalSet.of(Interval.closed_open(0.0, 1.0)),
            [Interval.closed_open(0.0, 1.0)],
        )
        assert result.chosen == (0,)
        assert abs(result.cost - (1 - math.exp(-1))) <= TOL

    def test_half_line_pool_member_always_feasible(self):
        result = outer_interval(closed(0.0, 3.0), [Interval(0.0, math.inf, True, False)])
        assert result.chosen == (0,)
        assert result.cost == 1.0


def all_candidates_cover(entries, target, lowest_only=False):
    """The (cost, indices) of the least (cost, size, indices) cover of ``target``, unpruned.

    Each residual tries every entry that meets it, or with ``lowest_only``
    only those that hold its lowest element; a cost is the entry's weight
    plus the cost of the best cover of what it leaves, summed along the path.
    """
    memo = {0: (0.0, ())}

    def best(residual):
        if residual not in memo:
            branch = residual & -residual if lowest_only else residual
            options = []
            for idx, bits, weight in entries:
                if bits & branch:
                    cost, chosen = best(residual & ~bits)
                    chosen = tuple(sorted((*chosen, idx)))
                    options.append((weight + cost, len(chosen), chosen))
            cost, _, chosen = min(options)
            memo[residual] = cost, chosen
        return memo[residual]

    return best(target)


def benchmark_interval_queries(seed=0):
    """The (target, pool) of the 96 interval queries of perfbench's cover-queries workload.

    Its random stream first draws half the ground set for each of 256 coats
    (n = 16, 17, 18 in turn), then 20-member pools on [0, 6] and targets.
    """
    rng = random.Random(seed)
    for j in range(256):
        n = 16 + j % 3
        rng.sample(range(n), n // 2)
    for _ in range(96):
        pool = [HALF_LINE.components[0]]
        while len(pool) < 20:
            a, b = sorted(rng.uniform(0.0, 6.0) for _ in range(2))
            if a < b:
                pool.append(Interval.closed(a, b))
        u, a, b, v = sorted(rng.uniform(0.0, 6.0) for _ in range(4))
        if rng.random() < 0.5 or u == a or b == v:
            target = IntervalSet.of(Interval.closed(a, b))
        else:
            target = IntervalSet.of(Interval.closed_open(u, a), Interval.open_closed(b, v))
        yield target, pool


def test_interval_costs_are_those_of_the_all_candidates_search(monkeypatch):
    # Float costs depend on the order they are summed in, so interval pools
    # keep trying every entry that meets the residual.  On queries 22, 23 and
    # 71 branching on the lowest element alone finds the same intervals at a
    # cost 1 ulp away, so those pin the rule.
    searches = []

    class RecordingSolver(CoverSolver):
        def __init__(self, entries, zero):
            super().__init__(entries, zero)
            self.entries = entries

        def solve(self, target_bits):
            searches.append((self.entries, target_bits))
            return super().solve(target_bits)

    monkeypatch.setattr("quasimeasure.intervals.CoverSolver", RecordingSolver)
    moved = []
    for j, (target, pool) in enumerate(benchmark_interval_queries()):
        result = outer_interval(target, pool)
        entries, target_bits = searches[-1]
        assert (result.cost, result.chosen) == all_candidates_cover(entries, target_bits), j
        lowest = all_candidates_cover(entries, target_bits, lowest_only=True)
        assert lowest[1] == result.chosen and math.isclose(lowest[0], result.cost, rel_tol=1e-15)
        if lowest[0] != result.cost:
            moved.append(j)
    assert moved == [22, 23, 71]


def test_outer_interval_hands_the_solver_the_pointwise_atom_masks(monkeypatch):
    searches = []

    class RecordingSolver(CoverSolver):
        def __init__(self, entries, zero):
            super().__init__(entries, zero)
            self.entries = entries

        def solve(self, target_bits):
            searches.append((self.entries, target_bits))
            return super().solve(target_bits)

    monkeypatch.setattr("quasimeasure.intervals.CoverSolver", RecordingSolver)
    for target, pool in benchmark_interval_queries():
        outer_interval(target, pool)
        points = shape_points(target.components, pool)
        entries = [(i, oracle_mask((p,), points), p.weight()) for i, p in enumerate(pool)]
        assert searches[-1] == (entries, oracle_mask(target.components, points))
    assert len(searches) == 96


def test_search_work_on_the_benchmark_interval_queries_is_pinned():
    # A count of memo entries, not a time: a change that adds search work fails
    # here.  Without the bound on the rest's cheapest holder the count is 9,765.
    memo_entries = 0
    for target, pool in benchmark_interval_queries():
        points = shape_points(target.components, pool)
        solver = CoverSolver([(i, oracle_mask((p,), points), p.weight()) for i, p in enumerate(pool)], 0.0)
        solver.solve(oracle_mask(target.components, points))
        memo_entries += len(solver._memo)
    assert memo_entries == 5926


def test_benchmark_interval_queries_answer_like_the_entry_order_reference():
    # The cheapest-first search must leave every float cost bit-identical.
    for target, pool in benchmark_interval_queries():
        points = shape_points(target.components, pool)
        entries = [(i, oracle_mask((p,), points), p.weight()) for i, p in enumerate(pool)]
        target_bits = oracle_mask(target.components, points)
        got = CoverSolver(entries, 0.0).solve(target_bits)
        want = ReferenceCoverSolver(entries, 0.0).solve(target_bits)
        assert got == want and got[0].hex() == want[0].hex(), target
        result = outer_interval(target, pool)
        assert (result.cost, result.chosen) == got
