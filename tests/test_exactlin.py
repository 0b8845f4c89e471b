import copy
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flatcusps
from flatcusps import exactlin
from flatcusps.bieberbach import (
    AffineMap,
    BieberbachGroup,
    _klein_generators,
    catalog,
    catalog_names,
    holonomy,
    theta_average,
)
from flatcusps.density import DensityRow, ExperimentConfig
from flatcusps.errors import DimensionMismatch, NotNilpotent
from flatcusps.exactlin import (
    Frozen,
    IntPolynomial,
    Matrix,
    SymmetricForm,
    char_poly,
    has_integer_solution,
    integer_row_hermite,
    is_positive_definite,
    is_unipotent,
    ldl_signature,
    nilpotent_exp,
    preserves_form,
    unipotent_polynomial,
)
from flatcusps.lorentz import LorentzModel, embed_group, verify_embedding
from flatcusps.selberg import (
    MatrixGroupInput,
    ResidueEvidence,
    SelbergCertificate,
    good_prime,
    torsion_polynomials,
)
from flatcusps.shapes import ShapeDescriptor

from oracles import (
    from_columns,
    heger_has_integer_solution,
    lattice_basis,
    ref_char_poly,
    ref_det,
    ref_difference,
    ref_identity,
    ref_inverse,
    ref_ldl_signature,
    ref_product,
    ref_scaled,
    ref_sum,
    ref_transpose,
    trace,
    transpose,
    zeros,
)

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)
wide_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=10**6)


def square_matrices(n, elements=small_fractions):
    return st.lists(
        st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(Matrix)


def _random_invertible(rng, n):
    while True:
        m = Matrix(
            [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        )
        if m.det() != 0:
            return m


class TestMatrix:
    def test_product_and_inverse(self):
        m = Matrix([[1, 2], [3, 4]])
        assert (m * m.inverse()).is_identity()
        assert m.det() == -2

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError):
            Matrix([[1, 1], [1, 1]]).inverse()

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Matrix([[1, 2]]) * Matrix([[1, 2]])

    def test_transpose_pow_trace(self):
        m = Matrix([[0, 1], [2, 3]])
        assert transpose(m) == Matrix([[0, 2], [1, 3]])
        assert m**0 == Matrix.identity(2)
        assert m**2 == m * m
        assert trace(m) == 3

    def test_negative_power_uses_inverse(self):
        m = Matrix([[1, 1], [0, 1]])
        assert m**-2 == Matrix([[1, -2], [0, 1]])

    def test_hashable_and_immutable(self):
        m = Matrix([[1, 0], [0, 1]])
        assert hash(m) == hash(Matrix.identity(2))
        with pytest.raises(AttributeError):
            m.rows = 3

    def test_block_diag(self):
        b = Matrix.block_diag(Matrix([[2]]), Matrix.identity(2))
        assert b == Matrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]])


# entries of the kinds the kernel must handle: integers, rationals whose
# denominators reach 10^6, so that the shared denominator is huge, and
# integers of which about three in four are 0, so that the product's zero
# skip runs on most entries
KERNEL_ENTRIES = {
    "integers": st.integers(min_value=-30, max_value=30),
    "denominators": wide_fractions,
    "sparse": st.tuples(st.integers(0, 3), st.integers(-30, 30)).map(
        lambda pair: pair[1] if pair[0] == 3 else 0
    ),
}
kernel_sizes = st.integers(min_value=1, max_value=8)


def _rows(data, kind, rows, cols):
    drawn = data.draw(
        st.lists(
            st.lists(KERNEL_ENTRIES[kind], min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return [[F(x) for x in row] for row in drawn]


def assert_canonical(m):
    flat = [x for row in m.num for x in row]
    assert type(m.den) is int and all(type(x) is int for x in flat)
    assert m.den > 0 and math.gcd(m.den, *flat) == 1
    assert len(m.num) == m.rows and all(len(row) == m.cols for row in m.num)


def assert_matches(result, expected):
    """Canonical, and equal to the Fraction oracle entry by entry."""
    assert_canonical(result)
    assert [list(row) for row in result.entries] == expected


@pytest.mark.parametrize("kind", sorted(KERNEL_ENTRIES))
class TestKernelAgainstFractionOracle:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), shape=st.tuples(kernel_sizes, kernel_sizes, kernel_sizes))
    def test_product(self, kind, data, shape):
        r, k, c = shape
        a, b = _rows(data, kind, r, k), _rows(data, kind, k, c)
        assert_matches(Matrix(a) * Matrix(b), ref_product(a, b))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), shape=st.tuples(kernel_sizes, kernel_sizes))
    def test_sum_difference_scalar_transpose(self, kind, data, shape):
        a, b = _rows(data, kind, *shape), _rows(data, kind, *shape)
        scalar = F(data.draw(KERNEL_ENTRIES[kind]))
        assert_matches(Matrix(a) + Matrix(b), ref_sum(a, b))
        assert_matches(Matrix(a) - Matrix(b), ref_difference(a, b))
        assert_matches(Matrix(a) * scalar, ref_scaled(scalar, a))
        assert_matches(scalar * Matrix(a), ref_scaled(scalar, a))
        assert_matches(-Matrix(a), ref_scaled(F(-1), a))
        assert_matches(transpose(Matrix(a)), ref_transpose(a))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), shape=st.tuples(kernel_sizes, kernel_sizes, kernel_sizes))
    def test_negation(self, kind, data, shape):
        # negation builds its rows directly, so check it on the canonical
        # results of other operations too, and that it undoes itself
        r, k, c = shape
        a, b = _rows(data, kind, r, k), _rows(data, kind, k, c)
        for m, expected in ((Matrix(a), a), (Matrix(a) * Matrix(b), ref_product(a, b))):
            negated = -m
            assert_matches(negated, ref_scaled(F(-1), expected))
            assert -negated == m and hash(-negated) == hash(m)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=kernel_sizes)
    def test_det_inverse_power(self, kind, data, n):
        a = _rows(data, kind, n, n)
        m = Matrix(a)
        assert m.det() == ref_det(a)
        expected = ref_inverse(a)
        if expected is None:
            with pytest.raises(ValueError, match="singular"):
                m.inverse()
        else:
            assert_matches(m.inverse(), expected)
            assert_matches(m**-1, expected)
        power = ref_identity(n)
        for k in range(4):
            assert_matches(m**k, power)
            power = ref_product(power, a)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), n=kernel_sizes)
    def test_char_poly(self, kind, data, n):
        a = _rows(data, kind, n, n)
        assert list(char_poly(Matrix(a)).coeffs) == ref_char_poly(a)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=kernel_sizes)
    def test_signature(self, kind, data, n):
        a = _rows(data, kind, n, n)
        symmetric = ref_sum(a, ref_transpose(a))
        # zero out a random set of rows and columns for degenerate forms
        for i in data.draw(st.sets(st.integers(0, n - 1))):
            for j in range(n):
                symmetric[i][j] = symmetric[j][i] = F(0)
        assert ldl_signature(SymmetricForm(symmetric)) == ref_ldl_signature(symmetric)


def _signed_permutation(rng, n):
    perm = rng.sample(range(n), n)
    return [[F(rng.choice((-1, 1))) if j == perm[i] else F(0) for j in range(n)] for i in range(n)]


class TestZeroSkippingProduct:
    """The product skips zero entries on both sides: the shapes where that
    matters most, each against the ``Fraction`` oracle."""

    @staticmethod
    def check(a, b):
        assert_matches(Matrix(a) * Matrix(b), ref_product(a, b))

    @pytest.mark.parametrize("r, k, c", [(1, 1, 1), (2, 3, 4), (4, 3, 2), (1, 5, 1), (5, 1, 5)])
    def test_zero_matrix_on_either_side(self, r, k, c):
        rng = random.Random(r * 100 + k * 10 + c)
        a = [[F(rng.randint(-9, 9)) for _ in range(k)] for _ in range(r)]
        b = [[F(rng.randint(-9, 9)) for _ in range(c)] for _ in range(k)]
        self.check([[F(0)] * k for _ in range(r)], b)
        self.check(a, [[F(0)] * c for _ in range(k)])

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_zero_row_and_zero_column_on_either_side(self, n):
        rng = random.Random(n)
        for i in range(n):
            a = [[F(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
            b = [[F(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
            row_zeroed = [[F(0)] * n if r == i else row for r, row in enumerate(a)]
            column_zeroed = [[F(0) if c == i else x for c, x in enumerate(row)] for row in b]
            for left, right in (
                (row_zeroed, b), (a, row_zeroed), (column_zeroed, a), (b, column_zeroed)
            ):
                self.check(left, right)

    def test_one_by_one(self):
        for x, y in itertools.product((0, 1, -1, 7, F(-3, 4)), repeat=2):
            self.check([[F(x)]], [[F(y)]])

    @pytest.mark.parametrize("r, k, c", [(1, 4, 1), (4, 1, 4), (2, 7, 3), (6, 2, 5), (3, 8, 1)])
    def test_non_square(self, r, k, c):
        rng = random.Random(r * 100 + k * 10 + c)
        draw = lambda: F(rng.choice((0, 0, rng.randint(-20, 20), F(rng.randint(-20, 20), 7))))
        a = [[draw() for _ in range(k)] for _ in range(r)]
        b = [[draw() for _ in range(c)] for _ in range(k)]
        self.check(a, b)

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_signed_permutations(self, n):
        # one nonzero entry per row and column: the holonomy closure's operands
        rng = random.Random(n)
        for _ in range(5):
            p, s = _signed_permutation(rng, n), _signed_permutation(rng, n)
            dense = [[F(rng.randint(-30, 30)) for _ in range(n)] for _ in range(n)]
            for a, b in ((p, s), (p, dense), (dense, p)):
                self.check(a, b)
            # a signed permutation has order dividing 2 lcm(cycle lengths)
            m = Matrix(p)
            order = next(k for k in range(1, 2 * math.factorial(n) + 1) if (m**k).is_identity())
            assert_matches(m**order, ref_identity(n))
            assert m ** (order - 1) == m.inverse()

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_huge_entries_among_zeros(self, n):
        rng = random.Random(n)
        huge = lambda: F(rng.choice((0, 0, 0, -1, 1)) * (10**30 + rng.randint(-10**6, 10**6)))
        for den in (1, 10**30 - 1):
            a = [[huge() / den for _ in range(n)] for _ in range(n)]
            b = [[huge() for _ in range(n)] for _ in range(n)]
            self.check(a, b)
            self.check(b, a)
            power = ref_identity(n)
            for k in range(3):
                assert_matches(Matrix(b) ** k, power)
                power = ref_product(power, b)

    def test_prepared_rows_are_reused(self):
        # the verifier lists each letter's nonzero entries once and reuses
        # them for every left factor
        rng = random.Random(0)
        g = [[rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(4)] for _ in range(4)]
        prepared = exactlin._nonzeros(g)
        assert prepared == tuple([(j, x) for j, x in enumerate(row) if x] for row in g)
        as_fractions = lambda rows: [[F(x) for x in row] for row in rows]
        for _ in range(20):
            w = [[rng.choice((0, rng.randint(-50, 50))) for _ in range(4)] for _ in range(3)]
            expected = ref_product(as_fractions(w), as_fractions(g))
            assert as_fractions(exactlin._sparse_product(w, prepared, 4)) == expected


class TestForwardDeterminant:
    """``Matrix.det`` eliminates forward only, and ``Matrix.inverse`` stops
    at the first column with no pivot; the Fraction oracle pivots on its
    own. Rows with leading zeros force row moves, and rows that combine
    earlier ones make the matrix singular."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=8))
    def test_singular_and_swapped(self, data, n):
        rows = []
        for _ in range(n):
            if rows and data.draw(st.booleans()):
                weights = data.draw(
                    st.lists(small_fractions, min_size=len(rows), max_size=len(rows))
                )
                rows.append([sum(w * row[j] for w, row in zip(weights, rows)) for j in range(n)])
            else:
                zeros = data.draw(st.integers(min_value=0, max_value=n - 1))
                tail = data.draw(st.lists(small_fractions, min_size=n - zeros, max_size=n - zeros))
                rows.append([F(0)] * zeros + tail)
        a = [rows[i] for i in data.draw(st.permutations(range(n)))]
        assert Matrix(a).det() == ref_det(a)
        expected = ref_inverse(a)
        if expected is None:
            with pytest.raises(ValueError, match="matrix is singular"):
                Matrix(a).inverse()
        else:
            assert_matches(Matrix(a).inverse(), expected)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_weighted_permutations(self, n):
        # det = sign(perm) * product of the weights, whichever rows move
        weights = [F(k + 2, 2 * k + 1) for k in range(n)]
        for perm in itertools.permutations(range(n)):
            a = [[weights[i] if j == perm[i] else F(0) for j in range(n)] for i in range(n)]
            expected = ref_det(a)
            assert abs(expected) == math.prod(weights)
            assert Matrix(a).det() == expected, perm


class TestCanonicalForm:
    def test_equal_values_have_equal_pairs_and_hashes(self):
        a, b = Matrix([["2/4"]]), Matrix([["1/2"]])
        assert a == b and hash(a) == hash(b)
        assert (a.num, a.den) == (((1,),), 2)
        for zero in (Matrix([[F(1, 3)]]) - Matrix([[F(1, 3)]]), Matrix([[F(1, 3)]]) * 0):
            assert (zero.num, zero.den) == (((0,),), 1)
        with pytest.raises(AttributeError):
            a.entries = ((F(1),),)

    def test_integer_rows_are_reduced(self):
        m = Matrix.from_integer_rows(((2, 4), (6, 8)), 6)
        assert (m.num, m.den) == (((1, 2), (3, 4)), 3)
        assert m.entries == ((F(1, 3), F(2, 3)), (F(1), F(4, 3)))
        for num, den in ((((1,),), 0), (((1,),), -1), ((), 1), (((),), 1)):
            with pytest.raises(ValueError):
                Matrix.from_integer_rows(num, den)
        with pytest.raises(ValueError):
            Matrix.identity(0)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=kernel_sizes, kind=st.sampled_from(sorted(KERNEL_ENTRIES)))
    def test_product_with_inverse_is_the_identity(self, data, n, kind):
        m = Matrix(_rows(data, kind, n, n))
        if m.det() == 0:
            return
        identity = Matrix.identity(n)
        for product in (m * m.inverse(), m.inverse() * m):
            assert product == identity and hash(product) == hash(identity)
            assert (product.num, product.den) == (identity.num, 1)


class TestKernelPrimitives:
    """``is_identity`` and ``from_integer_rows`` against the entrywise
    definition and the ``Fraction`` constructor."""

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        den=st.sampled_from([1, 1, 2, 3]),
    )
    def test_is_identity_is_entrywise(self, data, rows, cols, den):
        # identity-shaped integer rows with a few entries changed, over a
        # denominator that may make a num that looks like the identity
        num = [[int(i == j) for j in range(cols)] for i in range(rows)]
        cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), st.integers(-2, 2))
        for i, j, x in data.draw(st.lists(cells, max_size=2)):
            num[i][j] = x
        m = Matrix.from_integer_rows(tuple(map(tuple, num)), den)
        expected = rows == cols and all(
            m[i, j] == (i == j) for i in range(rows) for j in range(cols)
        )
        assert m.is_identity() == expected
        assert m.is_identity() == (rows == cols and m == Matrix(ref_identity(rows)))

    def test_is_identity_edge_cases(self):
        for n in range(1, 7):
            assert Matrix.identity(n).is_identity()
            assert Matrix.identity(n) == Matrix([[int(i == j) for j in range(n)] for i in range(n)])
            # the identity's rows over 2 and 3 are 1/2 I and 1/3 I
            for den in (2, 3):
                assert not Matrix.from_integer_rows(Matrix.identity(n).num, den).is_identity()
        assert not Matrix.from_integer_rows(((1, 0, 0), (0, 1, 0)), 1).is_identity()
        assert not Matrix.from_integer_rows(((1, 0), (0, 1), (0, 0)), 1).is_identity()
        assert Matrix.from_integer_rows(((2, 0), (0, 2)), 2).is_identity()

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
        den=st.integers(1, 12),
    )
    def test_integer_rows_match_the_fraction_constructor(self, data, rows, cols, den):
        row = st.lists(st.integers(-12, 12), min_size=cols, max_size=cols).map(tuple)
        num = tuple(data.draw(st.lists(row, min_size=rows, max_size=rows)))
        m = Matrix.from_integer_rows(num, den)
        ref = Matrix([[F(x, den) for x in r] for r in num])
        assert (m.rows, m.cols, m.num, m.den) == (ref.rows, ref.cols, ref.num, ref.den)
        assert m == ref and hash(m) == hash(ref)
        assert pickle.dumps(m) == pickle.dumps(ref)
        for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert type(clone) is Matrix
            assert clone == ref and hash(clone) == hash(ref)
        with pytest.raises(AttributeError, match="Matrix is immutable"):
            m.den = 1


class TestSignature:
    def test_diagonal_examples(self):
        assert ldl_signature(SymmetricForm.diagonal([1, 1, -1])) == (2, 1, 0)
        assert ldl_signature(SymmetricForm.identity(4)) == (4, 0, 0)
        model_block = SymmetricForm.identity(2).direct_sum(SymmetricForm.diagonal([1, -1]))
        assert ldl_signature(model_block) == (3, 1, 0)

    def test_zero_diagonal_needs_symmetric_fixup(self):
        hyperbolic = SymmetricForm([[0, 1], [1, 0]])
        assert ldl_signature(hyperbolic) == (1, 1, 0)

    def test_degenerate(self):
        assert ldl_signature(SymmetricForm([[1, 1], [1, 1]])) == (1, 0, 1)
        assert ldl_signature(SymmetricForm([[0, 0], [0, 0]])) == (0, 0, 2)

    def test_positive_definite(self):
        assert is_positive_definite(SymmetricForm([[2, 1], [1, 3]]))
        assert not is_positive_definite(SymmetricForm.diagonal([1, -1]))
        assert not is_positive_definite(SymmetricForm([[1, 1], [1, 1]]))

    @pytest.mark.parametrize(
        "gram",
        [
            [[0, 1], [1, 0]],
            [[0, 0], [0, 1]],
            [[1, 0], [0, 0]],
            [[1, 1], [1, 1]],
            # leading minors 1, 0, -1: elimination must stop at the 0 pivot
            [[1, 1, 0], [1, 1, 1], [0, 1, 1]],
        ],
        ids=["hyperbolic", "diag-0-1", "diag-1-0", "all-ones", "second-minor-zero"],
    )
    def test_zero_or_negative_leading_minor_is_not_definite(self, gram):
        form = SymmetricForm(gram)
        assert ref_ldl_signature(form.matrix.entries) != (form.dim, 0, 0)
        assert is_positive_definite.__wrapped__(form) is False

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=8),
        kind=st.sampled_from(["definite", "singular", "indefinite", "symmetric"]),
        elements=st.sampled_from([st.integers(min_value=-3, max_value=3), small_fractions]),
    )
    def test_leading_minors_agree_with_the_inertia_oracle(self, data, n, kind, elements):
        # Sylvester's criterion against symmetric elimination in Fractions
        a = data.draw(square_matrices(n, elements))
        if kind == "symmetric":
            gram = a + transpose(a)
        else:
            signs = [1] * n
            if kind == "singular":
                # a^T a with a zeroed row of a has rank below n
                a = Matrix([[0] * n] + [list(row) for row in a.entries[1:]])
            elif kind == "indefinite":
                signs[data.draw(st.integers(min_value=0, max_value=n - 1))] = -1
            gram = transpose(a) * Matrix.diagonal(signs) * a
            if kind == "definite":
                gram = gram + Matrix.identity(n)
        form = SymmetricForm(gram)
        expected = ref_ldl_signature(gram.entries) == (n, 0, 0)
        assert is_positive_definite.__wrapped__(form) is expected
        assert is_positive_definite(form) is expected

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=5),
        kind=st.sampled_from(["definite", "semidefinite", "indefinite"]),
    )
    def test_positive_definite_is_memoized_by_value(self, data, n, kind):
        a = data.draw(square_matrices(n))
        if kind == "indefinite":
            gram = a + transpose(a)
        else:
            # a^T a is semidefinite; a zeroed row makes it singular
            if kind == "semidefinite":
                a = Matrix([[0] * n] + [list(row) for row in a.entries[1:]])
            gram = transpose(a) * a
            if kind == "definite":
                gram = gram + Matrix.identity(n)
        form = SymmetricForm(gram.entries)
        expected = ref_ldl_signature(gram.entries) == (n, 0, 0)
        assert is_positive_definite(form) is expected
        # a second call, and an equal form built from scaled integer rows,
        # are both answered from the cache
        f = data.draw(st.integers(min_value=2, max_value=9))
        rows = tuple(tuple(f * x for x in row) for row in form.matrix.num)
        rebuilt = SymmetricForm(Matrix.from_integer_rows(rows, f * form.matrix.den))
        assert rebuilt == form and rebuilt.matrix.num is not form.matrix.num
        hits = is_positive_definite.cache_info().hits
        assert is_positive_definite(form) is expected
        assert is_positive_definite(rebuilt) is expected
        assert is_positive_definite.cache_info().hits == hits + 2

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=4))
    def test_sylvester_invariance(self, data, n):
        entries = data.draw(
            st.lists(st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n)
        )
        m = Matrix(entries)
        form = SymmetricForm(m + transpose(m))
        seed = data.draw(st.integers(min_value=0, max_value=10**6))
        s = _random_invertible(random.Random(seed), n)
        congruent = SymmetricForm(transpose(s) * form.matrix * s)
        assert ldl_signature(congruent) == ldl_signature(form)


class TestNilpotentExp:
    def test_zero_matrix(self):
        assert nilpotent_exp(zeros(3, 3)) == Matrix.identity(3)

    def test_two_step(self):
        assert nilpotent_exp(Matrix([[0, 1], [0, 0]])) == Matrix([[1, 1], [0, 1]])

    def test_three_step_example(self):
        m = Matrix([[0, 1, -1], [-1, 0, 0], [-1, 0, 0]])
        assert (m**3).is_zero() and not (m**2).is_zero()
        e = nilpotent_exp(m)
        assert e == Matrix([[1, 1, -1], [-1, F(1, 2), F(1, 2)], [-1, F(-1, 2), F(3, 2)]])
        # the exponential preserves the diag(1,1,-1) form
        b = Matrix.diagonal([1, 1, -1])
        assert transpose(e) * b * e == b

    def test_not_nilpotent(self):
        with pytest.raises(NotNilpotent):
            nilpotent_exp(Matrix.identity(2))

    @settings(max_examples=40, deadline=None)
    @given(
        entries=st.lists(small_fractions, min_size=3, max_size=3),
        scale=small_fractions,
    )
    def test_inverse_and_commuting_sum(self, entries, scale):
        a, b, c = entries
        m = Matrix([[0, a, b], [0, 0, c], [0, 0, 0]])
        # a polynomial in m commutes with m and is nilpotent
        other = scale * m + m * m
        assert nilpotent_exp(m) * nilpotent_exp(-m) == Matrix.identity(3)
        assert nilpotent_exp(m + other) == nilpotent_exp(m) * nilpotent_exp(other)


class TestCharPoly:
    def test_examples(self):
        assert char_poly(Matrix([[1, 1], [0, 1]])) == IntPolynomial([1, -2, 1])
        assert char_poly(-Matrix.identity(2)) == IntPolynomial([1, 2, 1])
        assert char_poly(Matrix([[0, -1], [1, 0]])) == IntPolynomial([1, 0, 1])

    def test_monic_and_integral(self):
        p = char_poly(Matrix([[2, 3], [5, 7]]))
        assert p.coeffs[-1] == 1 and all(type(c) is int for c in p.coeffs)
        assert p == IntPolynomial([-1, -9, 1])  # det 14 - 15, trace 9

    def test_fractional_entries(self):
        p = char_poly(Matrix([[F(1, 2), 0], [0, F(1, 3)]]))
        assert p == IntPolynomial([F(1, 6), F(-5, 6), 1])

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=3))
    def test_similarity_invariance(self, data, n):
        m = data.draw(square_matrices(n))
        seed = data.draw(st.integers(min_value=0, max_value=10**6))
        s = _random_invertible(random.Random(seed), n)
        assert char_poly(s.inverse() * m * s) == char_poly(m)

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=6),
        elements=st.sampled_from([small_fractions, wide_fractions]),
    )
    def test_matches_sympy(self, data, n, elements):
        import sympy

        m = data.draw(square_matrices(n, elements))

        sym = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                            for row in m.entries])
        t = sympy.Symbol("t")
        expected = sympy.Poly(sym.charpoly(t).as_expr(), t).all_coeffs()
        ours = list(reversed([F(str(c)) for c in expected]))
        assert char_poly(m) == IntPolynomial(ours)


class TestIsUnipotent:
    def test_examples(self):
        assert is_unipotent(Matrix.identity(1))
        assert not is_unipotent(Matrix([[F(1, 2)]]))
        assert is_unipotent(Matrix([[1, 1], [0, 1]]))
        assert not is_unipotent(-Matrix.identity(2))
        # (m - I)^4 = 0 but (m - I)^2 != 0 at size 5: a second squaring decides
        shift = Matrix([[int(j == i + 1) for j in range(5)] for i in range(5)])
        assert is_unipotent(Matrix.identity(5) + shift)
        assert not is_unipotent(Matrix.identity(5) + shift + transpose(shift))

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            is_unipotent(Matrix([[1, 0]]))

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=6),
        kind=st.sampled_from(["conjugate", "perturbed", "arbitrary"]),
    )
    def test_agrees_with_char_poly(self, data, n, kind):
        # conjugates of upper unitriangular matrices are unipotent; one
        # changed entry mostly breaks that, and arbitrary matrices rarely have it
        if kind == "arbitrary":
            m = data.draw(square_matrices(n))
        else:
            upper = [[data.draw(small_fractions) if j > i else int(i == j) for j in range(n)]
                     for i in range(n)]
            s = _random_invertible(random.Random(data.draw(st.integers(0, 10**6))), n)
            m = s.inverse() * Matrix(upper) * s
            if kind == "perturbed":
                i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
                delta = data.draw(small_fractions.filter(bool))
                rows = [list(row) for row in m.entries]
                rows[i][j] += delta
                m = Matrix(rows)
        assert is_unipotent(m) == (char_poly(m) == unipotent_polynomial(n))


# Holonomies with an element other than I, from dimension 2 on.
_HOLONOMIES = [t for t in (holonomy(catalog(name)) for name in catalog_names()) if t.order > 1]


def _isometry(data, n):
    """An isometry of size n and the Gram matrix it preserves.

    A catalog holonomy element of dimension d <= n keeps its averaged form;
    beside it a signed permutation keeps the identity of size n - d; a
    rational change of basis S then moves the pair to ``S^-1 A S`` and
    ``S^T G S``.
    """
    fits = [t for t in _HOLONOMIES if t.dim <= n]
    blocks, forms = [], []
    if fits:
        theta = data.draw(st.sampled_from(fits))
        blocks.append(data.draw(st.sampled_from(theta.elements)))
        b = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=theta.dim,
                                        max_size=theta.dim), min_size=theta.dim,
                               max_size=theta.dim))
        spd = (transpose(Matrix(b)) * Matrix(b) + Matrix.identity(theta.dim)).num
        forms.append(theta_average(SymmetricForm(spd), theta).matrix)
    rest = n - sum(block.rows for block in blocks)
    if rest:
        order = data.draw(st.permutations(range(rest)))
        signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=rest, max_size=rest))
        blocks.append(Matrix([[signs[i] * (j == order[i]) for j in range(rest)]
                              for i in range(rest)]))
        forms.append(Matrix.identity(rest))
    s = _random_invertible(random.Random(data.draw(st.integers(0, 10**6))), n)
    a = s.inverse() * Matrix.block_diag(*blocks) * s
    return a, transpose(s) * Matrix.block_diag(*forms) * s


class TestPreservesForm:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n=kernel_sizes,
        kind=st.sampled_from(["rational", "isometry", "perturbed"]),
    )
    def test_matches_fraction_identity(self, data, n, kind):
        if kind == "rational":
            a = data.draw(square_matrices(n))
            if a.den == 1:
                a = a + Matrix.diagonal([F(1, 2)] * n)
            assert a.den > 1
            b = data.draw(square_matrices(n, wide_fractions))
            gram = b + transpose(b)
        else:
            a, gram = _isometry(data, n)
            if kind == "perturbed":
                i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
                rows = [list(row) for row in a.entries]
                rows[i][j] += data.draw(small_fractions.filter(bool))
                a = Matrix(rows)
        ar, gr = [list(row) for row in a.entries], [list(row) for row in gram.entries]
        expected = ref_product(ref_product(ref_transpose(ar), gr), ar) == gr
        assert preserves_form(a, gram) == expected
        if kind == "isometry":
            assert expected

    def test_identity_and_examples(self):
        gram = Matrix([[2, 1], [1, 2]])
        assert preserves_form(Matrix.identity(2), gram)
        assert preserves_form(Matrix([[0, 1], [1, 0]]), gram)
        assert preserves_form(-Matrix.identity(2), gram)
        assert not preserves_form(Matrix([[1, 0], [0, -1]]), gram)
        assert not preserves_form(Matrix.identity(2) * F(1, 2), gram)

    @pytest.mark.parametrize(
        "a, gram",
        [
            (Matrix.identity(2), Matrix.identity(3)),
            (Matrix([[1, 0], [0, -1]]), Matrix.identity(3)),
            (Matrix.identity(3), Matrix.identity(2)),
            (Matrix([[1, 0]]), Matrix.identity(2)),
            (Matrix.identity(2), Matrix([[1, 0, 0], [0, 1, 0]])),
        ],
        ids=["identity-smaller", "reflection-smaller", "larger", "non-square-a", "non-square-gram"],
    )
    def test_shape_mismatch_raises(self, a, gram):
        with pytest.raises(DimensionMismatch):
            preserves_form(a, gram)


class TestPolynomial:
    def test_arithmetic(self):
        p = IntPolynomial([-1, 1])  # t - 1
        assert p * p == IntPolynomial([1, -2, 1])
        assert (p * p * p).degree == 3
        assert str(IntPolynomial([1, -2, 1])) == "t^2 - 2*t + 1"

    def test_reduce_mod(self):
        p = IntPolynomial([1, -2, 1])
        assert p.reduce_mod(5) == (1, 3, 1)
        with pytest.raises(ValueError):
            IntPolynomial([F(1, 5)]).reduce_mod(5)

    def test_trailing_zeros_trimmed(self):
        assert IntPolynomial([1, 2, 0, 0]).degree == 1
        assert IntPolynomial([0, 0]).is_zero()


class TestIntegerLattice:
    def test_hermite_spans_same_lattice(self):
        rows = [[2, 0], [0, 2], [1, 1]]
        h = integer_row_hermite(rows)
        assert len(h) == 2
        # (1,1) and (0,2) generate the same index-2 sublattice
        dets = h[0][0] * h[1][1] - h[0][1] * h[1][0]
        assert abs(dets) == 2

    def test_lattice_basis_rational(self):
        basis = lattice_basis([(F(1), F(0)), (F(0), F(1)), (F(1, 2), F(1, 2))], 2)
        assert len(basis) == 2
        m = from_columns(basis)
        assert abs(m.det()) == F(1, 2)

    def test_lattice_basis_rank_deficient(self):
        assert len(lattice_basis([(F(1), F(0)), (F(2), F(0))], 2)) == 1

    def test_integer_solvability(self):
        assert has_integer_solution([[2]], [4])
        assert not has_integer_solution([[2]], [3])
        assert has_integer_solution([[2, 0], [0, 3]], [4, 6])
        assert not has_integer_solution([[2, 0], [0, 3]], [4, 7])
        assert has_integer_solution([], [])
        # inconsistent zero row
        assert not has_integer_solution([[0, 0]], [1])
        # 2x + 4y = 6 solvable, = 5 not
        assert has_integer_solution([[2, 4]], [6])
        assert not has_integer_solution([[2, 4]], [5])

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2), min_size=2, max_size=2),
        x=st.lists(st.integers(-5, 5), min_size=2, max_size=2),
    )
    def test_solvability_complete_on_constructed_systems(self, a, x):
        b = [sum(r[j] * x[j] for j in range(2)) for r in a]
        assert has_integer_solution(a, b)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_solvability_matches_heger_oracle(self, data):
        rows = data.draw(st.integers(1, 4))
        cols = data.draw(st.integers(1, 4))
        a = data.draw(
            st.lists(
                st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
        if data.draw(st.booleans()):
            b = data.draw(st.lists(st.integers(-12, 12), min_size=rows, max_size=rows))
        else:
            # a member of the column lattice, perhaps nudged off it
            x = data.draw(st.lists(st.integers(-5, 5), min_size=cols, max_size=cols))
            b = [sum(r[j] * x[j] for j in range(cols)) for r in a]
            b[data.draw(st.integers(0, rows - 1))] += data.draw(st.integers(-1, 1))
        assert has_integer_solution(a, b) == heger_has_integer_solution(a, b)


def _klein_shape():
    group = catalog("klein")
    return ShapeDescriptor(group, SymmetricForm.diagonal([2, 3]))


def _certificate():
    return good_prime(MatrixGroupInput(2, [-Matrix.identity(2)]))


def _residue_evidence():
    # built directly: good_prime shares one evidence tuple per (degree, prime)
    poly = torsion_polynomials(2)[0]
    return ResidueEvidence(poly, poly.reduce_mod(3), unipotent_polynomial(2).reduce_mod(3))


# one instance of every immutable value type, by class name
FROZEN_INSTANCES = {
    "Matrix": lambda: Matrix.identity(2),
    "SymmetricForm": lambda: SymmetricForm.identity(2),
    "IntPolynomial": lambda: IntPolynomial([1, 1]),
    "AffineMap": lambda: AffineMap.translation_by([1, 0]),
    # catalog keeps one checked group per name, so build the value anew
    "BieberbachGroup": lambda: BieberbachGroup(_klein_generators(), name="klein"),
    "HolonomyGroup": lambda: holonomy(catalog("klein")),
    "ShapeDescriptor": _klein_shape,
    "LorentzModel": lambda: LorentzModel(SymmetricForm.identity(2)),
    "LorentzEmbedding": lambda: embed_group(catalog("klein"), _klein_shape()),
    "GeneratorChecks": lambda: verify_embedding(
        embed_group(catalog("klein"), _klein_shape())
    ).per_generator[0],
    "VerificationReport": lambda: verify_embedding(
        embed_group(catalog("klein"), _klein_shape())
    ),
    "MatrixGroupInput": lambda: MatrixGroupInput(2, [-Matrix.identity(2)]),
    "ResidueEvidence": _residue_evidence,
    "SelbergCertificate": _certificate,
    "ExperimentConfig": lambda: ExperimentConfig(catalog("klein"), 1, [10], 1),
    "DensityRow": lambda: DensityRow(0, 10, 0.25, True, 5),
}

# slots the two own equalities ignore: a matrix's shape follows from its
# rows, one group has many names, and a group's hash is cached
IGNORED_SLOTS = {"Matrix": {"rows", "cols"}, "BieberbachGroup": {"name", "_hash"}}


def _frozen_types():
    found, todo = set(), [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("flatcusps.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


class TestFrozen:
    @pytest.mark.parametrize("name", sorted(FROZEN_INSTANCES))
    def test_assignment_and_deletion_raise(self, name):
        obj = FROZEN_INSTANCES[name]()
        assert type(obj).__name__ == name and isinstance(obj, Frozen)
        slot = type(obj).__slots__[0]
        before = getattr(obj, slot)
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            setattr(obj, slot, None)
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            delattr(obj, slot)
        with pytest.raises(TypeError):
            Frozen.__init__(obj)
        assert getattr(obj, slot) is before

    @pytest.mark.parametrize("name", sorted(FROZEN_INSTANCES))
    def test_copy_and_pickle_round_trip(self, name):
        obj = FROZEN_INSTANCES[name]()
        pickled = pickle.dumps(obj)
        for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickled)):
            assert type(clone) is type(obj)
            assert pickle.dumps(clone) == pickled
            with pytest.raises(AttributeError, match=f"{name} is immutable"):
                setattr(clone, type(obj).__slots__[0], None)

    @pytest.mark.parametrize("name", sorted(FROZEN_INSTANCES))
    def test_independent_builds_compare_equal(self, name):
        a, b = FROZEN_INSTANCES[name](), FROZEN_INSTANCES[name]()
        assert a is not b
        assert a == b and not a != b

    @pytest.mark.parametrize("name", sorted(FROZEN_INSTANCES))
    def test_independent_builds_hash_equal(self, name):
        a, b = FROZEN_INSTANCES[name](), FROZEN_INSTANCES[name]()
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("name", sorted(FROZEN_INSTANCES))
    def test_changed_slot_compares_unequal(self, name):
        obj = FROZEN_INSTANCES[name]()
        restore, (cls, values) = obj.__reduce__()
        for i, slot in enumerate(cls.__slots__):
            changed = restore(cls, values[:i] + (object(),) + values[i + 1 :])
            if slot in IGNORED_SLOTS.get(name, ()):
                assert changed == obj, slot
            else:
                assert changed != obj and not changed == obj, slot

    def test_subclass_must_declare_its_own_slots(self):
        # an inherited __slots__ would give the subclass a __dict__, and
        # Frozen.__init__ would set the parent's slots
        with pytest.raises(TypeError, match="Loose must declare its own __slots__"):

            class Loose(Frozen):
                pass

        with pytest.raises(TypeError, match="Widened must declare its own __slots__"):

            class Widened(SymmetricForm):
                pass

    def test_other_types_never_compare_equal(self):
        matrix = Matrix.identity(2)
        assert matrix != SymmetricForm(matrix)
        assert SymmetricForm(matrix) != (2, matrix)
        assert IntPolynomial([1, 1]) != (1, 1)

    def test_pipeline_outputs_compare_by_value(self):
        embedding = embed_group(catalog("klein"), _klein_shape())
        assert verify_embedding(embedding) == verify_embedding(embedding)
        group_input = MatrixGroupInput(2, [-Matrix.identity(2)])
        assert good_prime(group_input) == good_prime(group_input)
        assert hash(good_prime(group_input)) == hash(good_prime(group_input))
        bad = good_prime(group_input).bad_primes
        assert isinstance(bad, tuple) and bad
        assert [p for p, _ in bad] == sorted(p for p, _ in bad)
        assert SelbergCertificate(2, 5, (), dict(reversed(bad)), ()).bad_primes == bad

    def test_only_matrix_and_bieberbach_group_own_equality(self):
        types = _frozen_types()
        assert {t.__name__ for t in types} == set(FROZEN_INSTANCES)
        own = {
            t.__name__ for t in types if "__eq__" in vars(t) or "__hash__" in vars(t)
        }
        assert own == {"Matrix", "BieberbachGroup"}

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # both modules are slow to import, and every command pays the
        # package import
        script = (
            "import sys, flatcusps; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
        )
        src = str(Path(flatcusps.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "[]"
