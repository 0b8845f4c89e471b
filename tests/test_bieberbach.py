import copy
import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcusps import bieberbach
from flatcusps.bieberbach import (
    AffineMap,
    BieberbachGroup,
    HolonomyGroup,
    catalog,
    catalog_names,
    compose,
    holonomy,
    is_torsion_free,
    theta_average,
    translation_lattice,
)
from flatcusps.errors import (
    DimensionMismatch,
    HolonomyBound,
    InvariantViolation,
    NotPositiveDefinite,
    RankDeficient,
    UnknownName,
    ValidationError,
)
from flatcusps.exactlin import Matrix, SymmetricForm, is_positive_definite
from flatcusps.shapes import rationalize

from flatcusps.serialize import group_to_dict, parse_group

from oracles import (
    apply,
    brute_force_box_size,
    brute_force_is_torsion_free,
    element_order,
    ghw,
    ref_holonomy_witnesses,
    ref_inverse,
    ref_is_torsion_free,
    ref_product,
    ref_theta_average,
    ref_translation_lattice,
)

HALF = F(1, 2)


def klein_group():
    return BieberbachGroup(
        [
            AffineMap(Matrix.identity(2), [0, 1]),
            AffineMap(Matrix.diagonal([1, -1]), [HALF, 0]),
        ],
        name="klein",
    )


def reflection_group():
    """The lattice Z^2 with a reflection through the origin: it has torsion."""
    return BieberbachGroup(
        [
            AffineMap.translation_by([1, 0]),
            AffineMap.translation_by([0, 1]),
            AffineMap(Matrix.diagonal([1, -1]), [0, 0]),
        ]
    )


def fractional_quarter_turn():
    """The quarter-turn manifold in a basis where its rotation has entries 1/2 and 2."""
    return BieberbachGroup(
        [
            AffineMap.translation_by([HALF, HALF, 0]),
            AffineMap.translation_by([0, 1, 0]),
            AffineMap(Matrix([[0, -HALF, 0], [2, 0, 0], [0, 0, 1]]), [0, 0, F(1, 4)]),
        ]
    )


class TestAffineMap:
    def test_compose_translations(self):
        a = AffineMap.translation_by([1, 0])
        b = AffineMap.translation_by([0, 1])
        assert compose(a, b) == AffineMap.translation_by([1, 1])

    def test_klein_relation(self):
        b = AffineMap(Matrix.diagonal([1, -1]), [HALF, 0])
        assert compose(b, b) == AffineMap.translation_by([1, 0])

    def test_inverse(self):
        a = AffineMap(Matrix([[0, -1], [1, 0]]), [F(1, 3), 2])
        assert compose(a, a.inverse()).is_identity()
        assert compose(a.inverse(), a).is_identity()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compose(AffineMap.identity(2), AffineMap.identity(3))

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            AffineMap(Matrix([[1, 1], [1, 1]]), [0, 0])

    def test_apply_and_pow(self):
        a = AffineMap(Matrix.diagonal([1, -1]), [HALF, 0])
        assert apply(a, [0, 1]) == (HALF, F(-1))
        assert (a**2).translation == (F(1), F(0))
        assert (a**-1) == a.inverse()


# linear parts with small denominators; shifts whose denominators reach 10^12
linear_entries = st.fractions(min_value=-3, max_value=3, max_denominator=6)
shift_entries = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12)


nonzero_entries = linear_entries.filter(bool)


def invertible_linear(data, n):
    """Rows of ``P L U``: a permutation, a unit lower and an invertible upper
    triangular matrix, each drawn."""
    def entry(i, j):
        if i == j:
            return data.draw(nonzero_entries)
        return data.draw(linear_entries) if i < j else F(0)

    lower = [[entry(j, i) if j < i else F(i == j) for j in range(n)] for i in range(n)]
    upper = [[entry(i, j) for j in range(n)] for i in range(n)]
    order = data.draw(st.permutations(range(n)))
    product = ref_product(lower, upper)
    return [product[i] for i in order]


def affine_maps(data, n):
    """A drawn map together with its linear rows and translation as ``Fraction``s."""
    rows = invertible_linear(data, n)
    shift = data.draw(st.lists(shift_entries, min_size=n, max_size=n))
    return AffineMap(Matrix(rows), shift), rows, shift


def ref_apply(rows, shift, point):
    """``A x + t`` one ``Fraction`` at a time."""
    return [sum((a * x for a, x in zip(row, point)), F(0)) + t for row, t in zip(rows, shift)]


def assert_canonical_map(g, rows, shift):
    """Integer numerators over a positive denominator with no common factor,
    equal to the ``Fraction`` data entry by entry."""
    assert type(g.den) is int and all(type(x) is int for x in g.num)
    assert g.den > 0 and math.gcd(g.den, *g.num) == 1
    assert [list(r) for r in g.linear.entries] == [[F(x) for x in r] for r in rows]
    assert list(g.translation) == [F(x) for x in shift]


dims = st.integers(min_value=1, max_value=4)


class TestAffineMapRows:
    """The integer-row storage against ``Fraction`` references."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=dims)
    def test_every_map_is_canonical(self, data, n):
        g, rows, shift = affine_maps(data, n)
        assert_canonical_map(g, rows, shift)
        # the same map from ints, strings and unreduced data
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert_canonical_map(AffineMap(rows, [str(x) for x in shift]), rows, shift)
        assert_canonical_map(AffineMap.translation_by(shift), identity, shift)
        assert_canonical_map(AffineMap.identity(n), identity, [0] * n)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=dims)
    def test_equality_and_hash_follow_the_fractions(self, data, n):
        g, rows, shift = affine_maps(data, n)
        same = AffineMap([[str(x) for x in row] for row in rows], [str(x) for x in shift])
        assert same == g and hash(same) == hash(g)
        # a change of one translation entry or one linear entry is seen
        i = data.draw(st.integers(min_value=0, max_value=n - 1))
        bump = data.draw(st.sampled_from([F(1), F(1, 10**12), -F(1, 3)]))
        moved = AffineMap(rows, [x + bump * (k == i) for k, x in enumerate(shift)])
        assert (moved == g) is False and moved != g
        other, other_rows, other_shift = affine_maps(data, n)
        expected = other_rows == rows and [F(x) for x in other_shift] == [F(x) for x in shift]
        assert (other == g) == expected
        if expected:
            assert hash(other) == hash(g)
        assert len({g, same, moved}) == 2

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=dims)
    def test_compose_and_inverse_match_fractions(self, data, n):
        a, a_rows, a_shift = affine_maps(data, n)
        b, b_rows, b_shift = affine_maps(data, n)
        ab = compose(a, b)
        expected_rows = ref_product(a_rows, b_rows)
        assert_canonical_map(ab, expected_rows, ref_apply(a_rows, a_shift, b_shift))
        assert ab.linear.det() != 0
        inverse_rows = ref_inverse(a_rows)
        assert_canonical_map(
            a.inverse(), inverse_rows, [-x for x in ref_apply(inverse_rows, [0] * n, a_shift)]
        )
        assert compose(a, a.inverse()).is_identity() and compose(a.inverse(), a).is_identity()
        assert a * b == ab and a**-2 == compose(a.inverse(), a.inverse())

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=dims)
    def test_copy_and_pickle_round_trip(self, data, n):
        g, rows, shift = affine_maps(data, n)
        for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert twin == g and hash(twin) == hash(g)
            assert (twin.linear, twin.num, twin.den) == (g.linear, g.num, g.den)
            assert_canonical_map(twin, rows, shift)
            with pytest.raises(AttributeError):
                twin.den = 1

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=2, max_value=4))
    def test_singular_linear_part_refused(self, data, n):
        # the last row is a rational combination of the others
        rows = invertible_linear(data, n)[: n - 1]
        weights = data.draw(st.lists(linear_entries, min_size=n - 1, max_size=n - 1))
        rows.append([sum((w * row[j] for w, row in zip(weights, rows)), F(0)) for j in range(n)])
        shift = data.draw(st.lists(shift_entries, min_size=n, max_size=n))
        assert Matrix(rows).det() == 0
        for linear in (Matrix(rows), rows, [[str(x) for x in row] for row in rows]):
            with pytest.raises(ValueError, match="singular"):
                AffineMap(linear, shift)
        data_in = group_to_dict(BieberbachGroup([AffineMap.identity(n)]))
        data_in["generators"][0]["linear"] = [[str(x) for x in row] for row in rows]
        with pytest.raises(ValidationError, match="singular"):
            parse_group(data_in)


class TestHolonomy:
    def test_torus_trivial(self):
        theta = holonomy(catalog("torus-2"))
        assert theta.order == 1
        assert theta.elements[0].is_identity()

    def test_klein_order_two(self):
        theta = holonomy(klein_group())
        assert theta.order == 2
        assert Matrix.diagonal([1, -1]) in theta.elements
        witness = theta.witnesses[theta.elements.index(Matrix.diagonal([1, -1]))]
        assert witness.linear == Matrix.diagonal([1, -1])

    def test_infinite_linear_part_hits_bound(self):
        shear = BieberbachGroup([AffineMap(Matrix([[1, 1], [0, 1]]), [0, 0])])
        with pytest.raises(HolonomyBound, match="max_order"):
            holonomy(shear, max_order=64)

    def test_witnesses_project_correctly(self):
        theta = holonomy(catalog("hantzsche-wendt"))
        assert theta.order == 4
        for h, w in zip(theta.elements, theta.witnesses):
            assert w.linear == h

    def test_element_order(self):
        theta = holonomy(catalog("sixth-turn"))
        orders = sorted(element_order(theta, h) for h in theta.elements)
        assert orders == [1, 2, 3, 3, 6, 6]

    @pytest.mark.parametrize("name", catalog_names())
    def test_elements_follow_reordered_witnesses(self, name):
        # elements are derived from the witnesses, so a reordering cannot
        # mispair them and every downstream answer stays the same
        group = catalog(name)
        witnesses = holonomy(group).witnesses
        theta = HolonomyGroup(group, reversed(witnesses))
        assert theta.elements == tuple(w.linear for w in reversed(witnesses))
        assert theta.elements == tuple(w.linear for w in theta.witnesses)
        basis, reference = translation_lattice(group, theta), translation_lattice(group)
        # the same lattice: each basis is an integral combination of the other
        assert (reference.inverse() * basis).is_integral()
        assert (basis.inverse() * reference).is_integral()
        assert is_torsion_free(group, theta, reference) is True


class TestTranslationLattice:
    def test_torus_identity_basis(self):
        assert translation_lattice(catalog("torus-2")) == Matrix.identity(2)

    def test_klein(self):
        lattice = translation_lattice(klein_group())
        assert abs(lattice.det()) == 1
        assert lattice.is_integral()

    def test_scaled_torus(self):
        group = BieberbachGroup(
            [AffineMap.translation_by([2, 0]), AffineMap.translation_by([0, 2])]
        )
        assert translation_lattice(group) == Matrix.diagonal([2, 2])

    def test_two_generator_hantzsche_wendt_recovers_full_lattice(self):
        # the group is generated without any explicit translation, yet the
        # coset-transversal products recover all of Z^3
        lattice = translation_lattice(catalog("hantzsche-wendt"))
        assert abs(lattice.det()) == 1

    def test_rank_deficient_rejected(self):
        group = BieberbachGroup([AffineMap.translation_by([1, 0])])
        with pytest.raises(RankDeficient):
            translation_lattice(group)

    def test_generator_powers_lie_in_lattice(self):
        # the Schreier products alone generate the lattice, so the pure
        # translations g ** |holonomy| must already be lattice vectors
        groups = [catalog(name) for name in catalog_names()]
        groups += [conjugated for _, conjugated in conjugated_presentations()]
        for group in groups:
            theta = holonomy(group)
            to_coordinates = translation_lattice(group, theta).inverse()
            for gen in group.generators:
                power = gen ** theta.order
                assert power.is_translation()
                coordinates = to_coordinates.matvec(power.translation)
                assert all(x.denominator == 1 for x in coordinates)


class TestTranslationLatticeOracle:
    """The integer Schreier rows against the ``Fraction`` construction."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog(self, name):
        group = catalog(name)
        lattice = translation_lattice(group)
        expected = ref_translation_lattice(group, holonomy(group))
        assert (lattice.num, lattice.den) == (expected.num, expected.den)

    def test_rational_conjugates(self):
        for _, conjugated in conjugated_presentations():
            lattice = translation_lattice(conjugated)
            expected = ref_translation_lattice(conjugated, holonomy(conjugated))
            assert (lattice.num, lattice.den) == (expected.num, expected.den)

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        name=st.sampled_from(["klein", "half-turn", "sixth-turn", "hantzsche-wendt"]),
    )
    def test_large_denominator_conjugates(self, data, name):
        group = catalog(name)
        n = group.dim
        conjugator = AffineMap(
            invertible_linear(data, n), data.draw(st.lists(shift_entries, min_size=n, max_size=n))
        )
        inverse = conjugator.inverse()
        conjugated = BieberbachGroup([conjugator * g * inverse for g in group.generators])
        lattice = translation_lattice(conjugated)
        expected = ref_translation_lattice(conjugated, holonomy(conjugated))
        assert (lattice.num, lattice.den) == (expected.num, expected.den)
        assert is_torsion_free(conjugated)


class TestTorsion:
    def test_klein_torsion_free(self):
        assert is_torsion_free(klein_group())

    def test_reflection_at_origin(self):
        assert not is_torsion_free(reflection_group())

    def test_torus(self):
        assert is_torsion_free(catalog("torus-3"))

    def test_point_reflection_with_offset(self):
        # I - (-I) is invertible, so any coset over -I contains torsion
        group = BieberbachGroup(
            [
                AffineMap.translation_by([1, 0]),
                AffineMap.translation_by([0, 1]),
                AffineMap(-Matrix.identity(2), [HALF, HALF]),
            ]
        )
        assert not is_torsion_free(group)

    def test_torsion_hidden_in_non_generator_coset(self):
        # the quarter-turn with a half shift: the generator coset is clean
        # but its square lands on an integral translation
        quarter = Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        group = BieberbachGroup(
            [
                AffineMap(quarter, [0, 0, HALF]),
                AffineMap.translation_by([1, 0, 0]),
                AffineMap.translation_by([0, 1, 0]),
                AffineMap.translation_by([0, 0, 1]),
            ]
        )
        assert not is_torsion_free(group)


class TestFractionalLattice:
    def test_swap_klein_with_half_integer_lattice(self):
        # a Klein bottle in skew coordinates: the lattice basis carries
        # 1/2 entries, so the torsion decision scales rows before the
        # integer solvability step
        swap = Matrix([[0, 1], [1, 0]])
        group = BieberbachGroup(
            [AffineMap.translation_by([1, 0]), AffineMap(swap, [HALF, 0])]
        )
        lattice = translation_lattice(group)
        assert abs(lattice.det()) == HALF
        assert is_torsion_free(group)
        assert brute_force_is_torsion_free(group)

    def test_swap_with_symmetric_shift_has_torsion(self):
        swap = Matrix([[0, 1], [1, 0]])
        group = BieberbachGroup(
            [
                AffineMap.translation_by([1, 0]),
                AffineMap.translation_by([0, 1]),
                AffineMap(swap, [HALF, HALF]),
            ]
        )
        assert not is_torsion_free(group)
        assert not brute_force_is_torsion_free(group)

    def test_lattice_finer_than_the_witness_translation(self):
        # over the lattice Z x Z/2 the reflection's witness (1, 0) has
        # denominator 1 and the lattice 2, so the two are brought over one
        # denominator; the reflection times T(-1, 0) fixes the first axis
        group = BieberbachGroup(
            [
                AffineMap.translation_by([1, 0]),
                AffineMap.translation_by([0, HALF]),
                AffineMap(Matrix.diagonal([1, -1]), [1, 0]),
            ]
        )
        assert translation_lattice(group) == Matrix([[1, 0], [0, HALF]])
        assert not is_torsion_free(group)
        assert not brute_force_is_torsion_free(group)


class TestThetaAverage:
    def test_trivial_theta(self):
        theta = holonomy(catalog("torus-2"))
        form = SymmetricForm([[2, 1], [1, 3]])
        assert theta_average(form, theta) == form

    def test_klein_average(self):
        theta = holonomy(klein_group())
        averaged = theta_average(SymmetricForm([[2, 1], [1, 3]]), theta)
        assert averaged == SymmetricForm([[2, 0], [0, 3]])

    def test_rotation_average(self):
        group = BieberbachGroup(
            [
                AffineMap.translation_by([1, 0]),
                AffineMap.translation_by([0, 1]),
                AffineMap(Matrix([[0, -1], [1, 0]]), [HALF, HALF]),
            ]
        )
        theta = holonomy(group)
        assert theta.order == 4
        averaged = theta_average(SymmetricForm([[2, 1], [1, 3]]), theta)
        assert averaged == SymmetricForm([[F(5, 2), 0], [0, F(5, 2)]])

    def test_invariance_idempotence_definiteness(self):
        rng = random.Random(7)
        for name in ("klein", "hantzsche-wendt", "third-turn", "sixth-turn"):
            group = catalog(name)
            theta = holonomy(group)
            n = group.dim
            for _ in range(10):
                raw = Matrix(
                    [
                        [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                        for _ in range(n)
                    ]
                )
                form = SymmetricForm(raw.transpose() * raw + Matrix.identity(n))
                averaged = theta_average(form, theta)
                gram = averaged.matrix
                for g in theta.elements:
                    assert g.transpose() * gram * g == gram
                assert theta_average(averaged, theta) == averaged
                assert is_positive_definite(averaged)

    @pytest.mark.parametrize("name", catalog_names() + ["fractional-quarter-turn"])
    def test_matches_fraction_average(self, name):
        # the integer sum over lcm(den g)^2 against a Fraction sum; only the
        # quarter-turn written in a non-lattice basis has elements with den > 1
        group = fractional_quarter_turn() if name == "fractional-quarter-turn" else catalog(name)
        theta = holonomy(group)
        if name == "fractional-quarter-turn":
            assert theta.order == 4 and max(g.den for g in theta.elements) == 2
        rng = random.Random(11)
        n = group.dim
        elements = [[list(row) for row in g.entries] for g in theta.elements]
        for _ in range(5):
            raw = Matrix(
                [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
            )
            form = SymmetricForm(raw.transpose() * raw + Matrix.identity(n))
            averaged = theta_average(form, theta).matrix
            expected = ref_theta_average([list(row) for row in form.matrix.entries], elements)
            assert [list(row) for row in averaged.entries] == expected
            assert math.gcd(averaged.den, *(x for row in averaged.num for x in row)) == 1
        with pytest.raises(NotPositiveDefinite):
            theta_average(SymmetricForm.diagonal([1] * (n - 1) + [-1]), theta)

    @pytest.mark.parametrize("name", [n for n in catalog_names() if n.startswith("torus-")])
    def test_trivial_holonomy_returns_its_input(self, name):
        # the average over {I} is the form itself, once it is checked;
        # test_matches_fraction_average compares it with the oracle
        theta = holonomy(catalog(name))
        n = theta.dim
        assert theta.order == 1
        raw = Matrix([[F(i - 2 * j, j + 1) for j in range(n)] for i in range(n)])
        form = SymmetricForm(raw.transpose() * raw + Matrix.identity(n))
        assert theta_average(form, theta) is form
        for entries in ([1] * (n - 1) + [0], [1] * (n - 1) + [-1]):
            with pytest.raises(NotPositiveDefinite):
                theta_average(SymmetricForm.diagonal(entries), theta)

    def test_rejects_indefinite(self):
        theta = holonomy(klein_group())
        with pytest.raises(NotPositiveDefinite):
            theta_average(SymmetricForm.diagonal([1, -1]), theta)

    def test_dimension_mismatch(self):
        theta = holonomy(klein_group())
        with pytest.raises(DimensionMismatch):
            theta_average(SymmetricForm.identity(3), theta)


class TestCatalog:
    def test_names(self):
        names = catalog_names()
        assert "torus-3" in names and "klein" in names and "hantzsche-wendt" in names
        three_dim = [n for n in names if catalog(n).dim == 3 and n != "torus-3"]
        assert len(three_dim) >= 4

    def test_torus3_standard_generators(self):
        group = catalog("torus-3")
        assert group.dim == 3
        assert all(g.is_translation() for g in group.generators)
        assert translation_lattice(group) == Matrix.identity(3)

    def test_klein_matches_presentation(self):
        assert catalog("klein") == klein_group()

    def test_hantzsche_wendt_holonomy(self):
        theta = holonomy(catalog("hantzsche-wendt"))
        assert theta.order == 4
        assert all(h * h == Matrix.identity(3) for h in theta.elements)

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            catalog("moebius")

    def test_every_entry_verified(self):
        for name in catalog_names():
            group = catalog(name)
            theta = holonomy(group)
            lattice = translation_lattice(group, theta)
            assert lattice.rows == group.dim
            assert is_torsion_free(group, theta, lattice)


def conjugated_presentations():
    """(catalog group, conjugate by a random rational affine map) pairs."""
    rng = random.Random(11)
    for name in ("klein", "half-turn", "hantzsche-wendt"):
        group = catalog(name)
        n = group.dim
        for _ in range(3):
            while True:
                linear = Matrix(
                    [
                        [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
                        for _ in range(n)
                    ]
                )
                if linear.det() != 0:
                    break
            conjugator = AffineMap(
                linear, [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
            )
            inverse = conjugator.inverse()
            yield group, BieberbachGroup(
                [compose(compose(conjugator, g), inverse) for g in group.generators]
            )


class TestHolonomyWitnessesOracle:
    """The closure over the generators whose linear part is not I against
    the closure over every generator: the same witnesses, in the same order."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog(self, name):
        group = catalog(name)
        assert holonomy(group).witnesses == ref_holonomy_witnesses(group)

    def test_rational_conjugates(self):
        for _, conjugated in conjugated_presentations():
            assert holonomy(conjugated).witnesses == ref_holonomy_witnesses(conjugated)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_ghw(self, n):
        group = ghw(n)
        witnesses = holonomy(group).witnesses
        assert len(witnesses) == 2 ** (n - 1)
        assert witnesses == ref_holonomy_witnesses(group)

    def test_translations_do_not_move_the_closure(self, monkeypatch):
        group = ghw(5)
        right_factors = []
        product = Matrix.__mul__

        def recorded(a, b):
            right_factors.append(b)
            return product(a, b)

        bieberbach._holonomy_witnesses.cache_clear()
        monkeypatch.setattr(Matrix, "__mul__", recorded)
        assert holonomy(group).order == 16
        assert right_factors and not any(m.is_identity() for m in right_factors)

    @pytest.mark.parametrize(
        "group", [catalog(name) for name in catalog_names()] + [ghw(5), ghw(7)],
        ids=lambda group: group.name,
    )
    def test_translations_do_not_move_the_lattice(self, group, monkeypatch):
        # a generator whose linear part is I has its witness as representative:
        # the lattice forms one product per witness and moving generator
        theta = holonomy(group)
        right_factors = []
        product = Matrix.__mul__

        def recorded(a, b):
            right_factors.append(b)
            return product(a, b)

        bieberbach.translation_lattice.cache_clear()
        monkeypatch.setattr(Matrix, "__mul__", recorded)
        lattice = translation_lattice(group, theta)
        monkeypatch.undo()
        moving = sum(not g.linear.is_identity() for g in group.generators)
        assert sum(m.is_identity() for m in right_factors) == 0
        assert len(right_factors) == moving * len(theta.witnesses)
        expected = ref_translation_lattice(group, theta)
        assert (lattice.num, lattice.den) == (expected.num, expected.den)


class TestConjugationInvariance:
    def test_holonomy_and_torsion_preserved(self):
        for group, conjugated in conjugated_presentations():
            assert holonomy(conjugated).order == holonomy(group).order
            assert is_torsion_free(conjugated) == is_torsion_free(group)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), which=st.sampled_from(["klein", "reflection", "shifted reflection"]))
    def test_torsion_survives_rational_conjugation(self, data, which):
        # a conjugate's lattice and witnesses get unrelated denominators,
        # so the torsion test must bring them over one denominator right
        shifted = BieberbachGroup(
            [
                AffineMap.translation_by([1, 0]),
                AffineMap.translation_by([0, 1]),
                AffineMap(Matrix.diagonal([1, -1]), [1, 0]),
            ]
        )
        group = {"klein": klein_group(), "reflection": reflection_group()}.get(which, shifted)
        conjugator = AffineMap(
            invertible_linear(data, 2), data.draw(st.lists(shift_entries, min_size=2, max_size=2))
        )
        inverse = conjugator.inverse()
        conjugated = BieberbachGroup([conjugator * g * inverse for g in group.generators])
        assert is_torsion_free(conjugated) == (which == "klein")


class TestBruteForceOracleAgreement:
    def test_catalog_agrees(self):
        for name in catalog_names():
            group = catalog(name)
            assert brute_force_is_torsion_free(group) == is_torsion_free(group)

    def test_torsioned_variant_agrees(self):
        group = BieberbachGroup(
            [
                AffineMap.translation_by([1, 0]),
                AffineMap.translation_by([0, 1]),
                AffineMap(Matrix.diagonal([1, -1]), [1, 0]),
            ]
        )
        assert not is_torsion_free(group)
        assert not brute_force_is_torsion_free(group)


    @pytest.mark.parametrize(
        "generators",
        [
            # over the lattice (1/5)Z x Z a torsion element has translation
            # (0, y), four basis steps from the witness's (4/5, 3/5)
            [
                AffineMap.translation_by([1, 0]),
                AffineMap.translation_by([0, 1]),
                AffineMap(Matrix.diagonal([1, -1]), [F(4, 5), F(3, 5)]),
            ],
            # -swap over the lattice with basis (1/6, -1), (0, 1/6)
            [
                AffineMap.translation_by([1, 0]),
                AffineMap.translation_by([0, 1]),
                AffineMap(-Matrix([[0, 1], [1, 0]]), [F(1, 3), F(5, 6)]),
                AffineMap.translation_by([F(5, 6), 0]),
            ],
        ],
        ids=["reflection-over-fifths", "swap-over-sixths"],
    )
    def test_torsion_far_from_the_witness(self, generators):
        # the box is sized from the lattice and the witness, not fixed
        group = BieberbachGroup(generators)
        assert not is_torsion_free(group)
        assert not ref_is_torsion_free(group)
        assert not brute_force_is_torsion_free(group)


# integer 2 x 2 turns of orders 3, 4 and 6
TURN_BLOCKS = ([[0, -1], [1, -1]], [[0, -1], [1, 0]], [[0, -1], [1, 1]])


def random_crystallographic_group(data, max_dim=3):
    """Unit translations and one or two drawn generators: a signed
    permutation, times a turn block on the first two axes half the time,
    with a translation in (1/k)Z^n for k <= 6; then, half the time, the
    group conjugated by a rational affine map. Returns the group and
    whether it was conjugated. Mixed turns and permutations may generate an
    infinite holonomy."""
    n = data.draw(st.integers(min_value=1, max_value=max_dim))
    generators = [AffineMap.translation_by([int(i == j) for j in range(n)]) for i in range(n)]
    for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
        perm = data.draw(st.permutations(range(n)))
        signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        linear = Matrix([[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)])
        if n >= 2 and data.draw(st.booleans()):
            turn = Matrix(data.draw(st.sampled_from(TURN_BLOCKS)))
            linear = (Matrix.block_diag(turn, Matrix.identity(n - 2)) if n > 2 else turn) * linear
        k = data.draw(st.integers(min_value=1, max_value=6))
        shift = data.draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
        generators.append(AffineMap(linear, [F(x, k) for x in shift]))
    group = BieberbachGroup(generators)
    if not data.draw(st.booleans()):
        return group, False
    conjugator = AffineMap(
        invertible_linear(data, n), data.draw(st.lists(shift_entries, min_size=n, max_size=n))
    )
    inverse = conjugator.inverse()
    return BieberbachGroup([conjugator * g * inverse for g in generators]), True


class TestNormCriterion:
    """``is_torsion_free`` decides each coset by the norm of its cyclic
    subgroup; the oracles decide it by fixed points and by enumeration."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_agrees_with_fixed_point_oracle(self, data):
        group, _ = random_crystallographic_group(data)
        try:
            theta = holonomy(group, max_order=48)  # the largest point group in dimension 3
        except HolonomyBound:
            return
        verdict = is_torsion_free(group, theta)
        assert verdict == ref_is_torsion_free(group, theta)
        # the brute force's box meets every coset that holds torsion, on
        # every lattice and after any conjugation, but a conjugate's box can
        # hold 10^20 offsets; up to 10^4 it checks about 85% of the examples
        # for well under a second in all
        if brute_force_box_size(group) <= 10**4:
            assert verdict == brute_force_is_torsion_free(group)

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_agrees_with_fixed_point_oracle(self, name):
        # the catalog group, and the group enlarged by the linear part of a
        # generator with nontrivial holonomy, which fixes the origin
        group = catalog(name)
        variants = [group] + [
            BieberbachGroup(group.generators + (AffineMap(g.linear, [0] * group.dim),))
            for g in group.generators
            if not g.is_translation()
        ]
        for variant in variants:
            theta = holonomy(variant)
            verdict = is_torsion_free(variant, theta)
            assert verdict == ref_is_torsion_free(variant, theta)
            assert verdict == (variant is group)

    def test_element_of_infinite_order_raises(self):
        # a shear has the fixed points (x, 0) but no finite order
        shear = AffineMap(Matrix([[1, 1], [0, 1]]), [0, 0])
        group = BieberbachGroup([shear])
        theta = HolonomyGroup(group, [AffineMap.identity(2), shear])
        assert not ref_is_torsion_free(group, theta, Matrix.identity(2))
        with pytest.raises(InvariantViolation, match="no finite order"):
            is_torsion_free(group, theta, Matrix.identity(2))


def clear_group_caches():
    for cached in (bieberbach._holonomy_witnesses, translation_lattice, is_torsion_free):
        cached.cache_clear()
        assert cached.cache_info().currsize == 0


class TestMemoization:
    def test_equal_groups_keep_their_own_names(self):
        first = BieberbachGroup(klein_group().generators, name="first")
        second = BieberbachGroup(klein_group().generators, name="second")
        assert first == second
        theta_first, theta_second = holonomy(first), holonomy(second)
        # one closure, shared, around each caller's own group
        assert theta_second.witnesses is theta_first.witnesses
        assert theta_first.group is first and theta_first.group.name == "first"
        assert theta_second.group is second and theta_second.group.name == "second"
        for theta, name in ((theta_first, "first"), (theta_second, "second")):
            shape = rationalize(SymmetricForm.diagonal([2, 3]), theta, 10)
            assert shape.group.name == name

    def test_hash_is_name_blind_and_survives_copy_and_pickle(self):
        first = BieberbachGroup(klein_group().generators, name="first")
        second = BieberbachGroup(klein_group().generators, name="second")
        assert hash(first) == hash(second) == hash(BieberbachGroup(first.generators))
        assert hash(first) == hash((first.dim, first.generators))
        for clone in (copy.copy(first), copy.deepcopy(first), pickle.loads(pickle.dumps(first))):
            assert clone == first and hash(clone) == hash(first)
            assert clone.name == "first"
            assert {clone: 1}[second] == 1

    def test_smaller_cap_after_success_still_raises(self):
        group = catalog("sixth-turn")
        assert holonomy(group).order == 6
        with pytest.raises(HolonomyBound, match="max_order=5"):
            holonomy(group, max_order=5)
        with pytest.raises(ValueError, match="at least 1"):
            holonomy(group, max_order=0)
        assert holonomy(group, max_order=6).order == 6
        with pytest.raises(HolonomyBound):
            holonomy(group, max_order=5)

    def test_mismatched_theta_or_lattice_is_computed_on(self):
        # the answers the unmemoized functions give for these arguments
        group = klein_group()
        assert translation_lattice(group) == Matrix.identity(2)
        assert is_torsion_free(group)
        # the reflection's witness without its half shift is not in the group
        wrong_theta = HolonomyGroup(
            group, [AffineMap.identity(2), AffineMap(Matrix.diagonal([1, -1]), [0, 0])]
        )
        assert translation_lattice(group, wrong_theta) == Matrix.diagonal([HALF, 1])
        assert not is_torsion_free(group, wrong_theta)
        assert not is_torsion_free(group, lattice=Matrix.diagonal([HALF, 1]))
        trivial = holonomy(catalog("torus-2"))
        assert not is_torsion_free(reflection_group())
        assert is_torsion_free(reflection_group(), trivial, Matrix.identity(2))
        assert translation_lattice(group) == Matrix.identity(2)
        assert is_torsion_free(group)

    def test_recomputation_after_cache_clear_is_equal(self):
        def results():
            out = []
            for name in catalog_names():
                group = catalog(name)
                theta = holonomy(group)
                lattice = translation_lattice(group, theta)
                out.append((theta, lattice, is_torsion_free(group, theta, lattice)))
            return out

        clear_group_caches()
        before = results()
        clear_group_caches()
        after = results()
        assert after == before
        for (theta, lattice, _), (theta_again, lattice_again, _) in zip(before, after):
            assert theta_again.witnesses is not theta.witnesses
            assert lattice_again is not lattice

    def test_catalog_still_rejects_torsion_after_good_entries(self, monkeypatch):
        for name in catalog_names():
            catalog(name)
        torsion = reflection_group()
        assert not is_torsion_free(torsion)  # a cached verdict of torsion
        monkeypatch.setitem(bieberbach._CATALOG, "klein", (lambda: torsion.generators, ()))
        for _ in range(2):
            with pytest.raises(InvariantViolation, match="'klein' failed the torsion oracle"):
                catalog("klein")
        monkeypatch.undo()
        assert catalog("klein") == klein_group()
