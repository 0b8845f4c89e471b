import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcusps.bieberbach import (
    AffineMap,
    BieberbachGroup,
    catalog,
    catalog_names,
    holonomy,
    theta_average,
)
from flatcusps.errors import (
    DimensionMismatch,
    HolonomyBound,
    NotPositiveDefinite,
    ValidationError,
)
from flatcusps.exactlin import Matrix, SymmetricForm
from flatcusps.density import sample_targets
from flatcusps.serialize import parse_real_form
from flatcusps.shapes import (
    ShapeDescriptor,
    _entries_as_floats,
    _limit_denominator,
    is_arithmetic_shape,
    rationalize,
    shape_distance,
)

from oracles import brute_best_rational, ref_is_arithmetic_shape

HALF = F(1, 2)


def dyadic(rows):
    """The exact form of symmetric rows of doubles, one ``Fraction`` per entry."""
    return SymmetricForm([[F(x) for x in row] for row in rows])


def swapped_klein():
    """A Klein-bottle group whose holonomy contains the coordinate swap."""
    swap = Matrix([[0, 1], [1, 0]])
    return BieberbachGroup(
        [AffineMap.translation_by([1, 0]), AffineMap(swap, [HALF, 0])],
        name="swapped-klein",
    )


class TestRealForm:
    """A decimal target as ``parse_real_form`` reads it: checked, then the
    exact form of its doubles."""

    def test_symmetry_enforced(self):
        message = r"target.matrix: entries \(0,1\) and \(1,0\) are not symmetric"
        with pytest.raises(ValidationError, match=message):
            parse_real_form({"matrix": [[1.0, 0.5], [0.25, 1.0]]})

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_entries_rejected(self, bad):
        message = "target.matrix: entries must be finite numbers"
        with pytest.raises(ValidationError, match=message):
            parse_real_form({"matrix": [[bad, 0.0], [0.0, 1.0]]})

    def test_exact_roundtrip_is_dyadic(self):
        form = parse_real_form({"matrix": [[0.5, 0.25], [0.25, 0.75]]})
        assert form == SymmetricForm([[HALF, F(1, 4)], [F(1, 4), F(3, 4)]])

    def test_square_matrix_required(self):
        message = "target.matrix: a real form needs a square matrix"
        with pytest.raises(ValidationError, match=message):
            parse_real_form({"matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]})

    def test_upper_triangle_mirrored(self):
        # within the relative tolerance 1e-9 the lower triangle is replaced
        form = parse_real_form({"matrix": [[2.0, 0.5], [0.5 + 1e-12, 1.0]]})
        assert form == SymmetricForm([[2, HALF], [HALF, 1]])
        wide = parse_real_form({"matrix": [[1.0, 1e12], [1e12 + 999.0, 1.0]]})
        assert wide.matrix[1, 0] == wide.matrix[0, 1] == 10**12

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=4))
    def test_every_double_read_exactly(self, data, n):
        # the integer rows from as_integer_ratio against one Fraction per
        # entry, on doubles of every magnitude, subnormals and -0.0 included
        doubles = st.floats(allow_nan=False, allow_infinity=False)
        upper = [[data.draw(doubles) for _ in range(n)] for _ in range(n)]
        rows = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        assert parse_real_form({"matrix": rows}) == dyadic(rows)


class TestExactDefinitenessGate:
    """A decimal target is positive definite exactly when its dyadic value is."""

    def test_definite_target_accepted(self):
        theta = holonomy(catalog("torus-2"))
        target = dyadic([[2.0, 1.0], [1.0, 2.0]])
        assert rationalize(target, theta, 10).form == SymmetricForm([[2, 1], [1, 2]])
        assert shape_distance(target, target) == 0.0

    @pytest.mark.parametrize(
        "entries",
        [[[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]],
        ids=["indefinite", "singular"],
    )
    def test_non_definite_target_rejected(self, entries):
        theta = holonomy(catalog("torus-2"))
        target = dyadic(entries)
        with pytest.raises(NotPositiveDefinite):
            rationalize(target, theta, 1000)
        with pytest.raises(NotPositiveDefinite):
            shape_distance(target, SymmetricForm.identity(2))

    def test_wrong_size_target_rejected(self):
        theta = holonomy(catalog("torus-2"))
        message = "form dimension 3 does not match group dimension 2"
        with pytest.raises(DimensionMismatch, match=message):
            rationalize(dyadic([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), theta, 10)

    def test_tiny_pivot_decided_exactly(self):
        # the exact form is positive definite, however small its pivot
        theta = holonomy(catalog("torus-2"))
        target = dyadic([[1e-12, 0.0], [0.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            rationalize(target, theta, 10)  # rounding sends 1e-12 to 0
        shape = rationalize(target, theta, 10**13)
        assert shape.form == SymmetricForm.diagonal([F(1, 10**12), 1])
        assert shape_distance(target, shape.form) < 1e-12


def limited(x, bound):
    """:func:`_limit_denominator` on a fraction, as a fraction."""
    return F(*_limit_denominator(x.numerator, x.denominator, bound))


class TestBestRationalApprox:
    def test_one_over_pi(self):
        x = F(1 / math.pi)
        assert limited(x, 1000) == F(113, 355)

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.fractions(min_value=-3, max_value=3, max_denominator=10**6),
        bound=st.integers(min_value=1, max_value=120),
    )
    def test_matches_brute_force(self, x, bound):
        ours = limited(x, bound)
        assert ours.denominator <= bound
        _, best_error = brute_best_rational(x, bound)
        assert abs(x - ours) == best_error


def farey_midpoints(bound, low=-2, high=2):
    """Midpoints of consecutive fractions in ``[low, high]`` with denominator
    at most ``bound``: targets equally close to two candidates."""
    farey = sorted(
        {F(p, q) for q in range(1, bound + 1) for p in range(low * q, high * q + 1)}
    )
    return [(a + b) / 2 for a, b in zip(farey, farey[1:])]


class TestBestRationalApproxIsLimitDenominator:
    @settings(max_examples=300, deadline=None)
    @given(
        x=st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9),
        bound=st.one_of(st.integers(1, 20), st.integers(1, 10**7)),
    )
    def test_matches(self, x, bound):
        assert limited(x, bound) == x.limit_denominator(bound)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), bound=st.integers(1, 50))
    def test_midpoint_between_two_candidates(self, data, bound):
        small = st.fractions(min_value=-5, max_value=5, max_denominator=bound)
        x = (data.draw(small) + data.draw(small)) / 2
        assert limited(x, bound) == x.limit_denominator(bound)

    @pytest.mark.parametrize("bound", range(1, 13))
    def test_exact_ties(self, bound):
        # equally close to both neighbours; the convergent wins, as in
        # limit_denominator
        for x in farey_midpoints(bound):
            assert limited(x, bound) == x.limit_denominator(bound), x
            assert limited(-x, bound) == (-x).limit_denominator(bound), x

    def test_bound_one(self):
        for x in (F(1, 2), F(-1, 2), F(3, 2), F(-5, 2), F(1, 3), F(-2, 3), F(7)):
            assert limited(x, 1) == x.limit_denominator(1), x
        assert limited(F(1, 2), 1) == 0
        assert limited(F(-1, 2), 1) == -1

    def test_denominator_within_bound_is_returned(self):
        for x in (F(-7, 9), F(5, 9), F(0), F(-3)):
            assert limited(x, 9) == x


def reference_rationalize(form, theta, bound):
    """Round every entry of an invariant form with ``limit_denominator``
    and average again, one ``Fraction`` at a time."""
    rounded = [[x.limit_denominator(bound) for x in row] for row in form.matrix.entries]
    return theta_average(SymmetricForm(rounded), theta)


class TestRationalizeOnIntegerRows:
    # entries over a shared denominator that are not in lowest terms there
    def test_unreduced_entries(self):
        theta = holonomy(catalog("torus-2"))
        form = SymmetricForm([[F(1, 2), F(1, 3)], [F(1, 3), F(5, 7)]])
        assert form.matrix.den == 42 and form.matrix.num[0][0] == 21
        for bound in (1, 2, 3, 10, 41, 42):
            try:
                expected = reference_rationalize(form, theta, bound)
            except NotPositiveDefinite:
                with pytest.raises(NotPositiveDefinite):
                    rationalize(form, theta, bound)
            else:
                assert rationalize(form, theta, bound).form == expected, bound

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        name=st.sampled_from(["torus-3", "klein", "third-turn", "sixth-turn", "hantzsche-wendt"]),
        bound=st.sampled_from([1, 2, 6, 10, 1000, 10**6]),
    )
    def test_matches_entrywise_limit_denominator(self, data, name, bound):
        group = catalog(name)
        theta = holonomy(group)
        n = group.dim
        entries = st.fractions(min_value=-2, max_value=2, max_denominator=12)
        rows = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
        a = Matrix(data.draw(rows))
        form = theta_average(SymmetricForm(a.transpose() * a + Matrix.identity(n)), theta)
        try:
            expected = reference_rationalize(form, theta, bound)
        except NotPositiveDefinite:
            with pytest.raises(NotPositiveDefinite):
                rationalize(form, theta, bound)
        else:
            assert rationalize(form, theta, bound).form == expected


class TestRationalize:
    def test_rational_target_reproduced(self):
        theta = holonomy(catalog("torus-2"))
        target = dyadic([[1.0, 0.25], [0.25, 1.0]])
        shape = rationalize(target, theta, 100)
        assert shape.form == SymmetricForm([[1, F(1, 4)], [F(1, 4), 1]])
        assert shape.group == catalog("torus-2")

    def test_irrational_entries_approximated(self):
        theta = holonomy(catalog("torus-2"))
        target = dyadic([[1.0, 1 / math.pi], [1 / math.pi, 2.0]])
        shape = rationalize(target, theta, 1000)
        off = shape.form.matrix[0, 1]
        assert off == F(113, 355)
        assert abs(float(off) - 1 / math.pi) < 1e-3
        for i in range(2):
            for j in range(2):
                assert shape.form.matrix[i, j].denominator <= 1000

    def test_averaging_kills_off_diagonal(self):
        group = catalog("klein")
        theta = holonomy(group)
        target = dyadic([[2.0, 1.0], [1.0, 3.0]])
        for bound in (10, 1000):
            shape = rationalize(target, theta, bound)
            assert shape.form == SymmetricForm([[2, 0], [0, 3]])

    def test_error_bound_before_reaveraging(self):
        theta = holonomy(catalog("torus-2"))
        rng = random.Random(3)
        for _ in range(20):
            a = [[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)]
            gram = [
                [sum(a[k][i] * a[k][j] for k in range(2)) + (1.0 if i == j else 0.0)
                 for j in range(2)]
                for i in range(2)
            ]
            target = dyadic(gram)
            bound = 10 ** rng.randint(1, 4)
            shape = rationalize(target, theta, bound)
            for i in range(2):
                for j in range(2):
                    assert abs(float(shape.form.matrix[i, j]) - gram[i][j]) <= 1.0 / bound

    def test_monotone_envelope(self):
        theta = holonomy(catalog("torus-2"))
        rng = random.Random(5)
        bounds = [10, 100, 1000, 10**4]
        for _ in range(100):
            a = [[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)]
            gram = [
                [sum(a[k][i] * a[k][j] for k in range(2)) + (1.0 if i == j else 0.0)
                 for j in range(2)]
                for i in range(2)
            ]
            target = dyadic(gram)
            reference = theta_average(target, theta)
            errors = [
                shape_distance(rationalize(target, theta, b).form, reference)
                for b in bounds
            ]
            assert all(b <= a for a, b in zip(errors, errors[1:]))
            assert errors[-1] < 1e-3

    def test_idempotent_for_signed_permutation_holonomy(self):
        # sign-flip holonomies keep averaged denominators within the bound,
        # so re-approximating a shape at the same bound is a fixed point
        for name in ("torus-2", "klein", "hantzsche-wendt"):
            group = catalog(name)
            theta = holonomy(group)
            n = group.dim
            target = dyadic(
                [[2.0 if i == j else 0.3125 for j in range(n)] for i in range(n)]
            )
            once = rationalize(target, theta, 50)
            twice = rationalize(once.form, theta, 50)
            assert once.form == twice.form

    def test_rounding_can_destroy_definiteness(self):
        theta = holonomy(catalog("torus-2"))
        # eigenvalues 1 +- 0.999: rounding the off-diagonal up to 1 at bound 1
        target = dyadic([[1.0, 0.999], [0.999, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            rationalize(target, theta, 1)

    def test_indefinite_target_rejected(self):
        theta = holonomy(catalog("torus-2"))
        with pytest.raises(NotPositiveDefinite):
            rationalize(dyadic([[1.0, 2.0], [2.0, 1.0]]), theta, 10)


class TestShapeDistance:
    def test_zero_on_equal_and_scaled(self):
        form = SymmetricForm([[2, 1], [1, 3]])
        assert shape_distance(form, form) == 0.0
        assert shape_distance(form, SymmetricForm(7 * form.matrix)) <= 1e-15

    def test_known_value(self):
        d = shape_distance(SymmetricForm.identity(2), SymmetricForm.diagonal([1, 2]))
        assert d == pytest.approx(0.3203644860139344, rel=1e-12)

    def test_symmetry(self):
        a = SymmetricForm([[2, 1], [1, 3]])
        b = SymmetricForm.diagonal([1, 4])
        assert shape_distance(a, b) == pytest.approx(shape_distance(b, a), abs=0)

    def test_scale_invariance_tolerance(self):
        rng = random.Random(9)
        for _ in range(25):
            m = Matrix([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)] for _ in range(2)])
            a = SymmetricForm(m.transpose() * m + Matrix.identity(2))
            b = SymmetricForm.diagonal([rng.randint(1, 5), rng.randint(1, 5)])
            alpha = F(rng.randint(1, 9), rng.randint(1, 9))
            beta = F(rng.randint(1, 9), rng.randint(1, 9))
            scaled = shape_distance(
                SymmetricForm(alpha * a.matrix), SymmetricForm(beta * b.matrix)
            )
            assert abs(scaled - shape_distance(a, b)) <= 1e-12

    def test_mixed_arguments(self):
        # the decimal 0.1 is read as its double, which is not 1/10; the two
        # forms differ exactly but have the same doubles
        exact = SymmetricForm([[1, F(1, 10)], [F(1, 10), 1]])
        decimal = parse_real_form({"matrix": [[1.0, 0.1], [0.1, 1.0]]})
        assert decimal != exact
        assert shape_distance(exact, decimal) == 0.0

    def test_requires_definiteness(self):
        with pytest.raises(NotPositiveDefinite):
            shape_distance(SymmetricForm.diagonal([1, -1]), SymmetricForm.identity(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            shape_distance(SymmetricForm.identity(2), SymmetricForm.identity(3))

    def test_sums_left_to_right(self):
        # Python 3.12's sum() compensates rounding; on this pair that moves
        # the last digit, which the density CSV would then show. The
        # distance must be the left-to-right one on every Python.
        a = dyadic([[1.211, 0.676], [0.676, 1.008]])
        b = dyadic([[0.387, -0.571], [-0.571, 1.288]])

        def left_to_right(values):
            total = 0.0
            for x in values:
                total += x
            return total

        def reference(total):
            ea, eb = _entries_as_floats(a)[1], _entries_as_floats(b)[1]
            na = math.sqrt(total([x * x for row in ea for x in row]))
            nb = math.sqrt(total([x * x for row in eb for x in row]))
            pairs = [(x, y) for ra, rb in zip(ea, eb) for x, y in zip(ra, rb)]
            return math.sqrt(total([(x / na - y / nb) ** 2 for x, y in pairs]))

        # the pair tells the two summations apart
        assert reference(math.fsum) != reference(left_to_right)
        assert shape_distance(a, b) == reference(left_to_right) == 1.1452906513463617


def _bits(rows):
    return [[x.hex() for x in row] for row in rows]


def _assert_fraction_bits(form):
    dim, floats = _entries_as_floats(form)
    assert dim == form.dim
    assert _bits(floats) == _bits([[float(x) for x in row] for row in form.matrix.entries])


# (2^53 - 1) 2^971 is the largest double; (2^54 - 1) 2^970 is halfway to 2^1024
_NEAR_MAX = (2**54 - 1) * 2**970


class TestFloatView:
    """The doubles are read as ``x / den`` off the integer rows.

    ``int / int`` is correctly rounded, so every one is
    ``float(Fraction(x, den))`` bit for bit, however large ``den`` or ``x``.
    """

    def test_seed_8_targets(self):
        group = catalog("torus-2")
        theta = holonomy(group)
        for target in sample_targets(group, 10, 8):
            _assert_fraction_bits(target)
            # a target is the exact value of the sampler's doubles, so the
            # float view gives those doubles back
            assert dyadic(_entries_as_floats(target)[1]) == target
            for bound in (10**3, 10**6):
                _assert_fraction_bits(rationalize(target, theta, bound).form)

    @pytest.mark.parametrize(
        "diagonal",
        [
            [F(_NEAR_MAX - 1), F(1, 3)],
            [F(_NEAR_MAX - 1, 3**40), F(2**1023 + 1, 7**30)],
            [F(2, 3 * 2**1074), F(1, 3 * 2**1074), F(5, 2**53 + 1)],
            [F(2**1023 - 1, 2**60 + 1), F(1, 2**53 + 1), F(3, 2**70 - 1)],
        ],
        ids=["near-max", "near-max-over-huge-den", "subnormal", "den-above-2^53"],
    )
    def test_extreme_entries(self, diagonal):
        n = len(diagonal)
        off = min(diagonal) / (2 * n)
        _assert_fraction_bits(
            SymmetricForm([[d if i == j else off for j in range(n)] for i, d in enumerate(diagonal)])
        )

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=4),
    )
    def test_wide_denominators_and_magnitudes(self, data, n):
        diagonal = [
            F(data.draw(st.integers(1, 2**64)), data.draw(st.integers(1, 2**120)))
            * F(2) ** data.draw(st.integers(-1130, 900))
            for _ in range(n)
        ]
        off = min(diagonal) / (2 * n) / data.draw(st.integers(1, 2**60))
        _assert_fraction_bits(
            SymmetricForm([[d if i == j else off for j in range(n)] for i, d in enumerate(diagonal)])
        )


class TestIsArithmeticShape:
    def test_rationalize_output_always_passes(self):
        rng = random.Random(13)
        for name in ("torus-2", "klein", "third-turn"):
            group = catalog(name)
            theta = holonomy(group)
            n = group.dim
            for _ in range(5):
                a = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
                gram = [
                    [sum(a[k][i] * a[k][j] for k in range(n)) + (1.0 if i == j else 0.0)
                     for j in range(n)]
                    for i in range(n)
                ]
                shape = rationalize(dyadic(gram), theta, 1000)
                assert is_arithmetic_shape(shape)

    def test_swap_holonomy_rejects_asymmetric_diagonal(self):
        group = swapped_klein()
        shape = ShapeDescriptor(group, SymmetricForm.diagonal([1, 2]))
        assert not is_arithmetic_shape(shape)

    def test_identity_form_with_integer_orthogonal_holonomy(self):
        for name in ("klein", "hantzsche-wendt", "first-amphicosm"):
            group = catalog(name)
            shape = ShapeDescriptor(group, SymmetricForm.identity(group.dim))
            assert is_arithmetic_shape(shape)

    def test_indefinite_rejected(self):
        group = catalog("torus-2")
        shape = ShapeDescriptor(group, SymmetricForm.diagonal([1, -1]))
        assert not is_arithmetic_shape(shape)

    @pytest.mark.parametrize("name", catalog_names())
    def test_agrees_with_oracle_on_catalog(self, name):
        # a form no holonomy of order above 1 preserves, and its average
        group = catalog(name)
        theta = holonomy(group)
        n = group.dim
        raw = SymmetricForm(
            [[i + 1 + 2 * n if i == j else F(1, i + j + 2) for j in range(n)] for i in range(n)]
        )
        for form in (raw, theta_average(raw, theta), SymmetricForm.identity(n)):
            shape = ShapeDescriptor(group, form)
            assert is_arithmetic_shape(shape) is ref_is_arithmetic_shape(shape, theta)
        assert is_arithmetic_shape(ShapeDescriptor(group, raw)) is (theta.order == 1)

    def test_agrees_with_oracle_on_swapped_klein(self):
        group = swapped_klein()
        theta = holonomy(group)
        raw = SymmetricForm.diagonal([1, 2])
        for form in (raw, theta_average(raw, theta), SymmetricForm.diagonal([1, -1])):
            shape = ShapeDescriptor(group, form)
            assert is_arithmetic_shape(shape) is ref_is_arithmetic_shape(shape, theta)

    def test_infinite_order_rotation_is_decided_without_the_holonomy(self):
        # the rotation by the angle with cosine 3/5 preserves the identity
        # form but has infinite order: the shape test, which reads only the
        # generators, passes it, and holonomy() rejects the group quickly,
        # so every caller that needs theta rejects it first
        rotation = AffineMap(Matrix([[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]]), [0, 0])
        group = BieberbachGroup(
            [rotation, AffineMap.translation_by([1, 0]), AffineMap.translation_by([0, 1])]
        )
        assert is_arithmetic_shape(ShapeDescriptor(group, SymmetricForm.identity(2)))
        start = time.perf_counter()
        with pytest.raises(HolonomyBound):
            holonomy(group)
        assert time.perf_counter() - start < 2
