import copy
import functools
import itertools
import json
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
from flatcusps import lorentz
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
    InvariantViolation,
    NotFormIsometry,
    NotPositiveDefinite,
)
from flatcusps.exactlin import (
    Matrix,
    SymmetricForm,
    char_poly,
    ldl_signature,
    nilpotent_exp,
    unipotent_polynomial,
)
from flatcusps.lorentz import (
    LorentzEmbedding,
    LorentzModel,
    embed_affine,
    embed_group,
    embed_translation,
    integralize,
    verify_embedding,
)
from flatcusps.serialize import embedding_to_dict, report_to_dict
from flatcusps.shapes import ShapeDescriptor
from oracles import (
    assembled_denominators,
    evaluate,
    hyperbolic_conjugator,
    lift,
    linear_image,
    outer_pairing,
    product_embed_affine,
    ref_decodes,
    ref_prime_factors,
    ref_verify_embedding,
    translation_log,
    transpose,
    unreduced_image_rows,
    zeros,
)
from test_conjugates import CONJUGATORS, NAMES as CONJUGATE_NAMES, conjugate

HALF = F(1, 2)

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)
positive_fractions = st.fractions(min_value=F(1, 5), max_value=4, max_denominator=5)

# Integralization scales of every catalog group, for the holonomy averages
# of the identity and of diag(2, ..., n+1).
CATALOG_SCALES = {
    "torus-1": (2, 1),
    "torus-2": (2, 2),
    "torus-3": (2, 2),
    "torus-4": (2, 2),
    "torus-5": (2, 2),
    "torus-6": (2, 2),
    "klein": (4, 2),
    "half-turn": (4, 2),
    "third-turn": (6, 3),
    "quarter-turn": (8, 4),
    "sixth-turn": (12, 6),
    "hantzsche-wendt": (2, 4),
    "first-amphicosm": (4, 2),
    "second-amphicosm": (2, 2),
}


def random_vector(rng, n):
    return [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]


@functools.lru_cache(maxsize=None)
def catalog_with_holonomy(name):
    group = catalog(name)
    return group, holonomy(group)


def scaled_embedding(name, factors):
    """Images ``T(f t) R(A)`` of the generators ``(A, t)``, one factor each,
    built as products at the holonomy average of the identity."""
    group, theta = catalog_with_holonomy(name)
    model = LorentzModel(theta_average(SymmetricForm.identity(group.dim), theta))
    images = [
        product_embed_affine(AffineMap(g.linear, [f * x for x in g.translation]), model)
        for g, f in zip(group.generators, factors)
    ]
    return LorentzEmbedding(model, group, images)


class TestModelForm:
    def test_identity_base(self):
        model = LorentzModel(SymmetricForm.identity(2))
        assert model.model_form == SymmetricForm.diagonal([1, 1, 1, -1])
        assert model.v_inf == (F(0), F(0), F(1), F(1))
        assert model.v_0 == (F(0), F(0), F(1), F(-1))

    def test_smallest_case(self):
        model = LorentzModel(SymmetricForm([[1]]))
        assert model.model_form == SymmetricForm.diagonal([1, 1, -1])

    def test_diagonal_base_signature(self):
        model = LorentzModel(SymmetricForm.diagonal([2, 3]))
        assert model.model_form == SymmetricForm.diagonal([2, 3, 1, -1])
        assert ldl_signature(model.model_form) == (3, 1, 0)

    def test_null_vectors(self):
        model = LorentzModel(SymmetricForm([[2, 1], [1, 3]]))
        b = model.model_form
        assert evaluate(b, model.v_inf, model.v_inf) == 0
        assert evaluate(b, model.v_0, model.v_0) == 0
        assert evaluate(b, model.v_inf, model.v_0) == 2

    @pytest.mark.parametrize("name", catalog_names())
    def test_null_vectors_on_catalog(self, name):
        # the full (n+2)-dimensional model form at two invariant base forms
        group, theta = catalog_with_holonomy(name)
        n = group.dim
        for base in (SymmetricForm.identity(n), SymmetricForm.diagonal(range(2, n + 2))):
            model = LorentzModel(theta_average(base, theta))
            b = model.model_form
            assert evaluate(b, model.v_inf, model.v_inf) == 0
            assert evaluate(b, model.v_0, model.v_0) == 0
            assert evaluate(b, model.v_inf, model.v_0) != 0

    @pytest.mark.parametrize("name", catalog_names())
    def test_derived_data_match_explicit_constructions(self, name):
        # only n and the base form are stored; the rest is derived on read
        group, theta = catalog_with_holonomy(name)
        n = group.dim
        base = theta_average(SymmetricForm.diagonal(range(2, n + 2)), theta)
        model = LorentzModel(base)
        assert LorentzModel.__slots__ == ("n", "base_form")
        assert (model.n, model.base_form, model.ambient_dim) == (n, base, n + 2)
        gram = Matrix.block_diag(base.matrix, Matrix.diagonal([1, -1]))
        assert model.model_form == SymmetricForm(gram)
        assert model.v_inf == (F(0),) * n + (F(1), F(1))
        assert model.v_0 == (F(0),) * n + (F(1), F(-1))
        payload = embedding_to_dict(embed_group(group, ShapeDescriptor(group, base)))
        assert list(payload) == ["dim", "base_form", "model_form", "v_inf", "v_0", "group", "images"]
        assert payload["model_form"] == [[str(x) for x in row] for row in gram.entries]
        assert payload["v_inf"] == ["0"] * n + ["1", "1"]
        assert payload["v_0"] == ["0"] * n + ["1", "-1"]

    def test_copy_pickle_and_equality(self):
        base = SymmetricForm([[2, 1], [1, 3]])
        model = LorentzModel(base)
        rebuilt = LorentzModel(SymmetricForm(Matrix.from_integer_rows(((4, 2), (2, 6)), 2)))
        clones = (copy.copy(model), copy.deepcopy(model), pickle.loads(pickle.dumps(model)))
        for clone in clones + (rebuilt,):
            assert clone == model and hash(clone) == hash(model)
            assert clone.model_form == model.model_form
            assert (clone.v_inf, clone.v_0) == (model.v_inf, model.v_0)
        assert LorentzModel(SymmetricForm([[2, 1], [1, 4]])) != model

    def test_rejects_indefinite_base(self):
        # indefinite, degenerate, and negative definite bases
        for entries in ([1, -1], [1, 0], [-1, -1]):
            with pytest.raises(NotPositiveDefinite, match="base form must be positive definite"):
                LorentzModel(SymmetricForm.diagonal(entries))

    def test_lift_appends_null_coordinates(self):
        model = LorentzModel(SymmetricForm.identity(2))
        assert lift(model, [1, F(2, 3)]) == (F(1), F(2, 3), F(0), F(0))
        with pytest.raises(DimensionMismatch):
            lift(model, [1, 2, 3])


class TestOuterPairing:
    def test_elementary_matrix(self):
        form = SymmetricForm.identity(3)
        e1 = (1, 0, 0)
        e2 = (0, 1, 0)
        assert outer_pairing(e1, e2, form) == Matrix(
            [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
        )

    def test_lorentz_weighted(self):
        form = SymmetricForm.diagonal([1, 1, -1])
        result = outer_pairing((1, 0, 0), (0, 1, 1), form)
        assert result == Matrix([[0, 1, -1], [0, 0, 0], [0, 0, 0]])

    def test_defining_property(self):
        rng = random.Random(2)
        form = SymmetricForm([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
        for _ in range(10):
            x = random_vector(rng, 3)
            y = random_vector(rng, 3)
            z = random_vector(rng, 3)
            applied = outer_pairing(x, y, form).matvec(z)
            expected = tuple(evaluate(form, z, y) * xi for xi in map(F, x))
            assert applied == expected

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            outer_pairing((1, 0), (1, 0, 0), SymmetricForm.identity(3))


class TestEmbedTranslation:
    def test_zero_vector(self):
        model = LorentzModel(SymmetricForm.identity(2))
        assert embed_translation([0, 0], model) == Matrix.identity(4)

    def test_one_dimensional_example(self):
        model = LorentzModel(SymmetricForm([[1]]))
        expected = Matrix([[1, 1, -1], [-1, HALF, HALF], [-1, -HALF, F(3, 2)]])
        assert embed_translation([1], model) == expected

    def test_entry_types_give_one_image(self):
        model = LorentzModel(SymmetricForm([[2, 1], [1, 3]]))
        image = embed_translation([F(3, 4), F(-2, 3)], model)
        assert embed_translation(["3/4", "-2/3"], model) == image
        assert embed_translation([3, 0], model) == embed_translation([F(3), F(0)], model)
        with pytest.raises(TypeError):
            embed_translation([0.75, 0], model)

    @pytest.mark.parametrize("v", [[], [1], [1, 2, 3]])
    def test_wrong_length_rejected(self, v):
        # the length is checked before the vector becomes a translation, so
        # the message names the vector, not an affine map
        model = LorentzModel(SymmetricForm.identity(2))
        with pytest.raises(DimensionMismatch) as raised:
            embed_translation(v, model)
        assert str(raised.value) == f"expected a vector of length 2, got {len(v)}"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=6))
    def test_closed_form_matches_exponential(self, data, n):
        square = st.lists(st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n)
        m = Matrix(data.draw(square))
        shift = Matrix.diagonal(data.draw(st.lists(positive_fractions, min_size=n, max_size=n)))
        model = LorentzModel(SymmetricForm(transpose(m) * m + shift))
        v = data.draw(st.lists(small_fractions, min_size=n, max_size=n))
        assert embed_translation(v, model) == nilpotent_exp(translation_log(v, model))

    def test_preserves_form_and_fixes_vinf(self):
        rng = random.Random(4)
        model = LorentzModel(SymmetricForm([[2, 1], [1, 3]]))
        gram = model.model_form.matrix
        for _ in range(20):
            e = embed_translation(random_vector(rng, 2), model)
            assert transpose(e) * gram * e == gram
            assert e.matvec(model.v_inf) == model.v_inf

    def test_additive_and_inverse(self):
        rng = random.Random(5)
        model = LorentzModel(SymmetricForm.diagonal([2, 3]))
        for _ in range(20):
            v = random_vector(rng, 2)
            w = random_vector(rng, 2)
            vw = [a + b for a, b in zip(v, w)]
            assert embed_translation(v, model) * embed_translation(w, model) == embed_translation(vw, model)
            assert embed_translation(v, model).inverse() == embed_translation([-a for a in v], model)

    def test_log_nilpotency_pattern(self):
        model = LorentzModel(SymmetricForm.identity(2))
        zero_log = translation_log([0, 0], model)
        assert zero_log.is_zero()
        log = translation_log([F(1, 3), 2], model)
        assert not (log * log).is_zero()
        assert (log * log * log).is_zero()

    def test_null_cone_preserved_but_v0_moves(self):
        model = LorentzModel(SymmetricForm.identity(2))
        e = embed_translation([1, 0], model)
        image_v0 = e.matvec(model.v_0)
        assert image_v0 != model.v_0
        assert evaluate(model.model_form, image_v0, image_v0) == 0


class TestEmbedAffine:
    def test_identity_map(self):
        model = LorentzModel(SymmetricForm.identity(2))
        assert embed_affine(AffineMap.identity(2), model) == Matrix.identity(4)

    def test_klein_generator_factorization(self):
        model = LorentzModel(SymmetricForm.diagonal([2, 3]))
        g = AffineMap(Matrix.diagonal([1, -1]), [HALF, 0])
        manual = embed_translation([HALF, 0], model) * Matrix.block_diag(
            Matrix.diagonal([1, -1]), Matrix.identity(2)
        )
        image = embed_affine(g, model)
        assert image == manual
        gram = model.model_form.matrix
        assert transpose(image) * gram * image == gram
        assert image.matvec(model.v_inf) == model.v_inf

    def test_pure_rotation_is_block_diagonal(self):
        model = LorentzModel(SymmetricForm.identity(2))
        rotation = Matrix([[0, -1], [1, 0]])
        image = embed_affine(AffineMap(rotation, [0, 0]), model)
        assert image == Matrix.block_diag(rotation, Matrix.identity(2))

    def test_non_isometry_rejected(self):
        model = LorentzModel(SymmetricForm.identity(2))
        with pytest.raises(NotFormIsometry):
            embed_affine(AffineMap(Matrix.diagonal([1, 2]), [0, 0]), model)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_wrong_dimension_rejected(self, dim):
        model = LorentzModel(SymmetricForm.identity(2))
        with pytest.raises(DimensionMismatch) as raised:
            embed_affine(AffineMap.translation_by([1] * dim), model)
        assert str(raised.value) == f"affine map dimension {dim} does not match model dimension 2"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), name=st.sampled_from(catalog_names()))
    def test_closed_form_matches_product(self, data, name):
        group, theta = catalog_with_holonomy(name)
        n = group.dim
        square = st.lists(st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n)
        m = Matrix(data.draw(square))
        shift = Matrix.diagonal(data.draw(st.lists(positive_fractions, min_size=n, max_size=n)))
        model = LorentzModel(theta_average(SymmetricForm(transpose(m) * m + shift), theta))
        for a in theta.elements:
            g = AffineMap(a, data.draw(st.lists(small_fractions, min_size=n, max_size=n)))
            assert embed_affine(g, model) == product_embed_affine(g, model)

    def test_equivariance_identity(self):
        model = LorentzModel(SymmetricForm.diagonal([2, 3]))
        a = Matrix.diagonal([1, -1])
        r = linear_image(a, model)
        rng = random.Random(6)
        for _ in range(10):
            w = random_vector(rng, 2)
            lhs = r * embed_translation(w, model) * r.inverse()
            assert lhs == embed_translation(a.matvec(w), model)


class TestEmbedGroup:
    def test_torus2_identity_shape(self):
        group = catalog("torus-2")
        embedding = embed_group(group, ShapeDescriptor(group, SymmetricForm.identity(2)))
        assert len(embedding.images) == 2
        unipotent = unipotent_polynomial(4)
        for image in embedding.images:
            assert image.matvec(embedding.model.v_inf) == embedding.model.v_inf
            assert char_poly(image) == unipotent

    def test_torus1_matches_translation_example(self):
        group = catalog("torus-1")
        embedding = embed_group(group, ShapeDescriptor(group, SymmetricForm([[1]])))
        assert embedding.images[0] == Matrix(
            [[1, 1, -1], [-1, HALF, HALF], [-1, -HALF, F(3, 2)]]
        )

    def test_klein_mixed_images(self):
        group = catalog("klein")
        shape = ShapeDescriptor(group, SymmetricForm.diagonal([2, 3]))
        embedding = embed_group(group, shape)
        report = verify_embedding(embedding)
        assert report.overall
        checks = report.per_generator
        assert checks[0].unipotent_translation is True
        assert checks[1].unipotent_translation is None

    def test_wrong_group_rejected(self):
        shape = ShapeDescriptor(catalog("torus-2"), SymmetricForm.identity(2))
        with pytest.raises(DimensionMismatch):
            embed_group(catalog("klein"), shape)

    def test_non_invariant_shape_rejected(self):
        group = catalog("klein")
        shape = ShapeDescriptor(group, SymmetricForm([[2, 1], [1, 3]]))
        with pytest.raises(NotFormIsometry):
            embed_group(group, shape)


def _fractional_shape(group, seed):
    """The holonomy average of ``A^T A + I`` for ``A`` with fractional entries."""
    rng = random.Random(seed)
    n = group.dim
    a = Matrix([[F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)])
    form = theta_average(SymmetricForm(transpose(a) * a + Matrix.identity(n)), holonomy(group))
    return ShapeDescriptor(group, form)


class TestCanonicalImages:
    """Rational images are written in lowest terms with no gcd over their
    entries: each equals the reduction of its unreduced closed-form rows."""

    @staticmethod
    def assert_canonical(image, g, model):
        assert image == Matrix.from_integer_rows(*unreduced_image_rows(g, model))
        assert math.gcd(image.den, *(x for row in image.num for x in row)) == 1

    def check(self, group, shape):
        embedding = embed_group(group, shape)
        rng = random.Random(len(group.generators))
        for g, image in zip(group.generators, embedding.images):
            self.assert_canonical(image, g, embedding.model)
            self.assert_canonical(embed_affine(g, embedding.model), g, embedding.model)
            # a fractional shift of the same linear part
            moved = AffineMap(g.linear, random_vector(rng, group.dim))
            self.assert_canonical(embed_affine(moved, embedding.model), moved, embedding.model)
        for _ in range(3):
            v = random_vector(rng, group.dim)
            image = embed_translation(v, embedding.model)
            self.assert_canonical(image, AffineMap.translation_by(v), embedding.model)

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog(self, name):
        group = catalog(name)
        self.check(group, _fractional_shape(group, 1))
        identity = SymmetricForm.identity(group.dim)
        self.check(group, ShapeDescriptor(group, theta_average(identity, holonomy(group))))

    @pytest.mark.parametrize("q", sorted(CONJUGATORS))
    @pytest.mark.parametrize("name", CONJUGATE_NAMES)
    def test_conjugate_presentations(self, name, q):
        # fractional linear parts, shifts and form entries
        group, _ = conjugate(catalog(name), q, "1/5")
        self.check(group, _fractional_shape(group, 2))


class TestIntegralize:
    def test_linear_part_off_the_form_refused(self):
        # the images decode as products, but diag(1, -1) does not preserve
        # the base form, so no embedding of the group has these images
        group = catalog("klein")
        model = LorentzModel(SymmetricForm([[2, 1], [1, 3]]))
        images = [product_embed_affine(g, model) for g in group.generators]
        with pytest.raises(NotFormIsometry):
            integralize(LorentzEmbedding(model, group, images))

    def test_already_integral_unchanged(self):
        # with base 2I the quadratic tail B(v,v)/2 is already integral
        group = catalog("torus-2")
        embedding = embed_group(group, ShapeDescriptor(group, SymmetricForm.diagonal([2, 2])))
        assert all(m.is_integral() for m in embedding.images)
        result, scale = integralize(embedding)
        assert scale == 1
        assert result is embedding

    def test_identity_base_needs_scale_two(self):
        group = catalog("torus-2")
        embedding = embed_group(group, ShapeDescriptor(group, SymmetricForm.identity(2)))
        result, scale = integralize(embedding)
        assert scale == 2
        assert all(m.is_integral() for m in result.images)

    def test_half_parameter_needs_four_with_odd_base(self):
        group = BieberbachGroup([AffineMap([[1]], [HALF])])
        embedding = embed_group(group, ShapeDescriptor(group, SymmetricForm([[1]])))
        result, scale = integralize(embedding)
        assert scale == 4
        assert all(m.is_integral() for m in result.images)

    def test_half_parameter_needs_two_with_even_base(self):
        group = BieberbachGroup([AffineMap([[1]], [HALF])])
        embedding = embed_group(group, ShapeDescriptor(group, SymmetricForm([[2]])))
        result, scale = integralize(embedding)
        assert scale == 2
        assert result.images[0] == Matrix([[1, 1, -1], [-2, 0, 1], [-2, -1, 2]])

    def test_covector_denominator_sets_scale(self):
        # w = 3 and h = 1 are integral, but k = B_K w = 2/3 is not.
        group = BieberbachGroup([AffineMap([[1]], [3])])
        embedding = embed_group(group, ShapeDescriptor(group, SymmetricForm([[F(2, 9)]])))
        result, scale = integralize(embedding)
        assert scale == 3
        assert result.images[0] == Matrix([[1, 9, -9], [-2, -8, 9], [-2, -9, 10]])

    def test_klein_catalog_scale_two(self):
        group = catalog("klein")
        embedding = embed_group(group, ShapeDescriptor(group, SymmetricForm.diagonal([2, 3])))
        result, scale = integralize(embedding)
        assert scale == 2
        assert all(m.is_integral() for m in result.images)
        assert verify_embedding(result).overall

    def test_conjugator_preserves_form(self):
        model = LorentzModel(SymmetricForm.diagonal([2, 3]))
        gram = model.model_form.matrix
        for c in (1, 2, 3, 5):
            a = hyperbolic_conjugator(model, c)
            assert transpose(a) * gram * a == gram
            assert a.matvec(model.v_inf) == tuple(c * x for x in model.v_inf)

    def test_relations_preserved(self):
        # Rescaling translations must agree with conjugation by the
        # hyperbolic element (an automorphism, so relations survive), at the
        # smallest scale that clears denominators.
        for name in catalog_names():
            group = catalog(name)
            theta = holonomy(group)
            n = group.dim
            bases = (SymmetricForm.identity(n), SymmetricForm.diagonal(range(2, n + 2)))
            for base, expected in zip(bases, CATALOG_SCALES[name]):
                shape = ShapeDescriptor(group, theta_average(base, theta))
                embedding = embed_group(group, shape)
                result, scale = integralize(embedding)
                assert scale == expected, name

                def conjugated(c):
                    conjugator = hyperbolic_conjugator(embedding.model, c)
                    inverse = conjugator.inverse()
                    return [conjugator * image * inverse for image in embedding.images]

                assert list(result.images) == conjugated(scale), name
                for smaller in range(1, scale):
                    assert not all(m.is_integral() for m in conjugated(smaller)), name

    def test_integral_embedding_is_a_fixed_point(self):
        # an integral embedding at scale c decodes at the shared scale c, so
        # it comes back unchanged with scale 1
        for name in catalog_names():
            group, theta = catalog_with_holonomy(name)
            n = group.dim
            for base in (SymmetricForm.identity(n), SymmetricForm.diagonal(range(2, n + 2))):
                embedding = embed_group(group, ShapeDescriptor(group, theta_average(base, theta)))
                integral, _ = integralize(embedding)
                again, scale = integralize(integral)
                assert again is integral and scale == 1, name

    @pytest.mark.parametrize("name", catalog_names())
    def test_uniformly_scaled_embedding(self, name):
        # T(3t/2) R(A) is a conjugate of the plain embedding, so integralize
        # conjugates it further by H_c for the scale c it returns
        group = catalog(name)
        embedding = scaled_embedding(name, [F(3, 2)] * len(group.generators))
        result, scale = integralize(embedding)
        conjugator = hyperbolic_conjugator(embedding.model, scale)
        inverse = conjugator.inverse()
        assert list(result.images) == [conjugator * m * inverse for m in embedding.images]
        assert all(m.is_integral() for m in result.images)
        assert verify_embedding(result).overall

    @pytest.mark.parametrize("index, name", list(enumerate(catalog_names())))
    def test_closed_form_matches_assembly(self, index, name):
        # the integralized images are the products T(c c0 t) R(A), for the
        # plain embedding (c0 = 1) and uniformly rescaled ones
        group, theta = catalog_with_holonomy(name)
        n = group.dim
        generators = [(g.linear, g.translation) for g in group.generators]
        for base in (SymmetricForm.identity(n), SymmetricForm.diagonal(range(2, n + 2))):
            model = LorentzModel(theta_average(base, theta))
            for c0 in (1, F(3, 2), (1, 3, 5)[index % 3]):
                images = [
                    product_embed_affine(AffineMap(a, [c0 * x for x in t]), model)
                    for a, t in generators
                ]
                result, c = integralize(LorentzEmbedding(model, group, images))
                assert list(result.images) == [
                    product_embed_affine(AffineMap(a, [c * c0 * x for x in t]), model)
                    for a, t in generators
                ], (name, c0)
                assert all(m.is_integral() for m in result.images)

    def test_undecodable_image_outranks_fractional_linear_part(self):
        # generator 0 has a fractional A and decodes; image 2 is the image of
        # generator 1, so it does not decode. Every image is decoded before
        # any A is tested for integrality, so the decode's error is raised
        model = LorentzModel(SymmetricForm.diagonal([4, 1]))
        images = [product_embed_affine(g, model) for g in FRACTIONAL.generators]
        assert raised(integralize, LorentzEmbedding(model, FRACTIONAL, images))[0] is ValueError
        repeated = LorentzEmbedding(model, FRACTIONAL, [images[0], images[1], images[1]])
        assert raised(integralize, repeated) == (
            InvariantViolation,
            "an image is not the embedding of its generator; "
            "rescaling translations would not be a conjugation",
        )

    def test_negative_shared_scale_rejected(self):
        # T(-t) R(A) decodes at the shared scale -1, which verify_embedding
        # rejects, so integralize rejects it too
        embedding = scaled_embedding("klein", [-1, -1, -1])
        assert not verify_embedding(embedding).overall
        with pytest.raises(InvariantViolation):
            integralize(embedding)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), name=st.sampled_from(catalog_names()))
    def test_scale_is_minimal(self, data, name):
        # The scales that clear every denominator are exactly the multiples
        # of the smallest one. So an integral result at c that turns
        # fractional at c/p, for each prime p of c, proves c minimal.
        group, theta = catalog_with_holonomy(name)
        n = group.dim
        square = st.lists(st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n)
        m = Matrix(data.draw(square))
        shift = Matrix.diagonal(data.draw(st.lists(positive_fractions, min_size=n, max_size=n)))
        form = theta_average(SymmetricForm(transpose(m) * m + shift), theta)
        embedding = embed_group(group, ShapeDescriptor(group, form))
        integral, c = integralize(embedding)
        assert all(image.is_integral() for image in integral.images)
        model = embedding.model
        for p in ref_prime_factors(c):
            smaller = [
                embed_affine(AffineMap(g.linear, [c // p * x for x in g.translation]), model)
                for g in group.generators
            ]
            assert not all(image.is_integral() for image in smaller), (c, p)

    def test_inconsistent_images_rejected(self):
        # Each image is in O(B; Q) and fixes v_inf, but not the image of its
        # own generator, so rescaling translations would not be a conjugation.
        group = catalog("torus-2")
        embedding = embed_group(group, ShapeDescriptor(group, SymmetricForm.identity(2)))
        swapped = LorentzEmbedding(embedding.model, group, embedding.images[::-1])
        with pytest.raises(InvariantViolation):
            integralize(swapped)
        assert issubclass(InvariantViolation, ValueError)

    def test_checks_survive_optimize_flag(self):
        script = """
import json
from fractions import Fraction
from flatcusps import (
    AffineMap, ExperimentConfig, InvariantViolation, LorentzEmbedding, Matrix,
    ShapeDescriptor, SymmetricForm, catalog, embed_affine, embed_group, holonomy, integralize,
    run_experiment, theta_average, verify_embedding,
)
from flatcusps.lorentz import GeneratorChecks

def failures(embedding):
    # the overall verdict and, per generator, the checks that read False
    report = verify_embedding(embedding)
    return [report.overall] + [
        [name for name in GeneratorChecks.__slots__ if getattr(c, name) is False]
        for c in report.per_generator
    ]

group = catalog("klein")
embedding = embed_group(group, ShapeDescriptor(group, SymmetricForm.diagonal([2, 3])))
integral, scale = integralize(embedding)
swapped = LorentzEmbedding(embedding.model, group, embedding.images[::-1])
try:
    integralize(swapped)
    rejected = False
except InvariantViolation:
    rejected = True
# an integral embedding at scale 4 decodes at that shared scale
form = theta_average(SymmetricForm([[3, 1], [1, 2]]), holonomy(group))
four, first = integralize(embed_group(group, ShapeDescriptor(group, form)))
again, second = integralize(four)
[row] = run_experiment(
    ExperimentConfig(group, 1, [10], 8, run_pipeline=True, torus_manifold_mode=True)
)
scaled = LorentzEmbedding(embedding.model, group, [
    embed_affine(AffineMap(g.linear, [f * x for x in g.translation]), embedding.model)
    for g, f in zip(group.generators, [1, 3, 5])
])

torus = catalog("torus-2")
plain = embed_group(torus, ShapeDescriptor(torus, SymmetricForm.identity(2)))
rows = [list(r) for r in plain.images[0].entries]
rows[0][1] += Fraction(1, 7)
corrupted = LorentzEmbedding(plain.model, torus, [Matrix(rows), plain.images[1]])
shift = Matrix([[1 if j == i + 1 else 0 for j in range(4)] for i in range(4)])
jordan = LorentzEmbedding(plain.model, torus, [Matrix.identity(4) + shift, plain.images[1]])
print(json.dumps({
    "debug": __debug__,
    "scale": scale,
    "integral": all(m.is_integral() for m in integral.images),
    "overall": verify_embedding(integral).overall,
    "rejected": rejected,
    "refixed": [first, second, again is four, verify_embedding(four).overall],
    "density_row": [row.pipeline_ok, row.selberg_prime],
    "corrupted": failures(corrupted),
    "jordan": failures(jordan),
    "scaled": failures(scaled),
}))
"""
        src = str(Path(flatcusps.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        )
        assert json.loads(done.stdout) == {
            "debug": False,
            "scale": 2,
            "integral": True,
            "overall": True,
            "rejected": True,
            "refixed": [4, 1, True, True],
            "density_row": [True, 7],
            "corrupted": [False, ["form_preserved", "equivariance"], []],
            # the Jordan image's column n reads scale 0, so no image decodes
            "jordan": [
                False,
                ["form_preserved", "fixes_vinf", "equivariance", "log_cubes_to_zero"],
                ["equivariance"],
            ],
            "scaled": [False, [], ["equivariance"]],
        }


# An order-two linear part with entries 1/2 and 2: it preserves diag(4, 1),
# but no scaling conjugates it into integer matrices.
FRACTIONAL = BieberbachGroup(
    [
        AffineMap(Matrix([[0, HALF], [2, 0]]), [0, 0]),
        AffineMap.translation_by([1, 0]),
        AffineMap.translation_by([0, 1]),
    ]
)


KLEIN = catalog("klein")


def raised(build, *args):
    """The type and message of the error ``build(*args)`` raises."""
    with pytest.raises(Exception) as info:
        build(*args)
    return info.type, str(info.value)


class TestIntegralEmbedding:
    """``_integral_embedding`` is ``integralize(embed_group(group, shape))``
    in closed form: the same embedding, scale and errors."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), name=st.sampled_from(catalog_names()))
    def test_equals_the_composition(self, data, name):
        group, theta = catalog_with_holonomy(name)
        n = group.dim
        row = st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n)
        m = Matrix(data.draw(st.lists(row, min_size=n, max_size=n)))
        form = theta_average(SymmetricForm(transpose(m) * m + Matrix.identity(n)), theta)
        shape = ShapeDescriptor(group, form)
        assert lorentz._integral_embedding(group, shape) == integralize(embed_group(group, shape))

    @pytest.mark.parametrize("name", catalog_names())
    def test_assembles_over_denominator_one(self, name, monkeypatch):
        # c t, c k and c^2 h are divided out before the assembly, so each
        # image is built over denominator 1 with no gcd to take; a form with
        # fractional entries and the average of the identity, which leaves
        # a half in h for every nonzero translation. integralize builds its
        # images the same way, at the shared scale 1 of embed_group output
        # and at 3/2
        group, theta = catalog_with_holonomy(name)
        n = group.dim
        ones = [1] * len(group.generators)
        a = Matrix([[F(1 + (i * j) % 3, 2 + i + j) for j in range(n)] for i in range(n)])
        for form in (
            theta_average(SymmetricForm.identity(n), theta),
            theta_average(SymmetricForm(transpose(a) * a + Matrix.identity(n)), theta),
        ):
            shape = ShapeDescriptor(group, form)
            assert assembled_denominators(monkeypatch, group, shape) == ones
            embedding = embed_group(group, shape)
            assert assembled_denominators(monkeypatch, embedding, build=integralize) == ones
            assert lorentz._integral_embedding(group, shape) == integralize(embedding)
        scaled = scaled_embedding(name, [F(3, 2)] * len(group.generators))
        assert assembled_denominators(monkeypatch, scaled, build=integralize) == ones

    @pytest.mark.parametrize(
        "group, shape",
        [
            # the fractional linear part, on the form it preserves
            (FRACTIONAL, ShapeDescriptor(FRACTIONAL, SymmetricForm.diagonal([4, 1]))),
            # ... and on one it does not: the isometry check comes first
            (FRACTIONAL, ShapeDescriptor(FRACTIONAL, SymmetricForm.identity(2))),
            # a form that the reflection of klein does not preserve
            (KLEIN, ShapeDescriptor(KLEIN, SymmetricForm([[2, 1], [1, 3]]))),
            # a shape built for another group, with a form that is not definite
            (KLEIN, ShapeDescriptor(catalog("torus-2"), SymmetricForm.diagonal([1, -1]))),
            # a form that is not definite and not invariant
            (KLEIN, ShapeDescriptor(KLEIN, SymmetricForm([[1, 2], [2, 1]]))),
        ],
        ids=["fractional", "fractional-off-the-form", "off-the-form", "other-group", "indefinite"],
    )
    def test_raises_as_the_composition(self, group, shape):
        expected = raised(lambda: integralize(embed_group(group, shape)))
        assert raised(lorentz._integral_embedding, group, shape) == expected

    def test_fractional_linear_part_message(self):
        shape = ShapeDescriptor(FRACTIONAL, SymmetricForm.diagonal([4, 1]))
        assert raised(lorentz._integral_embedding, FRACTIONAL, shape) == (
            ValueError,
            "a linear factor has fractional entries; hyperbolic conjugation "
            "cannot integralize this embedding",
        )


class TestVerifyEmbedding:
    def test_torus_all_pass(self):
        group = catalog("torus-2")
        embedding = embed_group(group, ShapeDescriptor(group, SymmetricForm.identity(2)))
        report = verify_embedding(embedding)
        assert report.overall
        for checks in report.per_generator:
            assert checks.form_preserved and checks.fixes_vinf
            assert checks.unipotent_translation is True
            assert checks.equivariance and checks.log_cubes_to_zero
            assert checks.nilpotency_degree == 3

    def test_corrupted_image_detected(self):
        group = catalog("torus-2")
        embedding = embed_group(group, ShapeDescriptor(group, SymmetricForm.identity(2)))
        rows = [list(row) for row in embedding.images[0].entries]
        rows[0][1] += F(1, 7)
        corrupted = LorentzEmbedding(
            embedding.model, group, [Matrix(rows), embedding.images[1]]
        )
        report = verify_embedding(corrupted)
        assert not report.overall
        assert not report.per_generator[0].form_preserved
        assert report.per_generator[1].form_preserved
        # I + N with N the Jordan shift: its log N - N^2/2 does not cube to zero.
        shift = Matrix([[1 if j == i + 1 else 0 for j in range(4)] for i in range(4)])
        jordan = LorentzEmbedding(
            embedding.model, group, [Matrix.identity(4) + shift, embedding.images[1]]
        )
        checks = verify_embedding(jordan).per_generator[0]
        assert not checks.log_cubes_to_zero
        assert checks.nilpotency_degree == 4
        assert not verify_embedding(jordan).overall
        # 2I is not unipotent: its "log" I/2 is not nilpotent at all.
        doubled = LorentzEmbedding(
            embedding.model, group, [Matrix.diagonal([2] * 4), embedding.images[1]]
        )
        checks = verify_embedding(doubled).per_generator[0]
        assert not checks.log_cubes_to_zero
        assert checks.nilpotency_degree is None

    def test_mismatched_dimensions_rejected(self):
        # a 3x3 image in a 4x4 model used to reach verify_embedding, which
        # then raised on its first product instead of recording a failure
        group = catalog("torus-2")
        embedding = embed_group(group, ShapeDescriptor(group, SymmetricForm.identity(2)))
        for wrong in (Matrix.identity(3), zeros(4, 3), Matrix.identity(5)):
            with pytest.raises(DimensionMismatch, match="images must be 4x4"):
                LorentzEmbedding(embedding.model, group, [wrong, embedding.images[1]])
        # a group of another dimension made it raise on its first translation
        torus3 = catalog("torus-3")
        with pytest.raises(DimensionMismatch, match="dimension-3 group in a dimension-2 model"):
            LorentzEmbedding(embedding.model, torus3, embedding.images + embedding.images[:1])

    def test_klein_equivariance(self):
        group = catalog("klein")
        embedding = embed_group(group, ShapeDescriptor(group, SymmetricForm.diagonal([2, 3])))
        report = verify_embedding(embedding)
        assert report.overall
        assert all(c.equivariance for c in report.per_generator)

    def test_zero_translation_degree_one(self):
        group = BieberbachGroup(
            [
                AffineMap.translation_by([1, 0]),
                AffineMap.translation_by([0, 1]),
                AffineMap(Matrix([[0, -1], [1, 0]]), [HALF, HALF]),
            ]
        )
        theta = holonomy(group)
        shape = ShapeDescriptor(group, theta_average(SymmetricForm.identity(2), theta))
        embedding = embed_group(group, shape)
        report = verify_embedding(embedding)
        assert report.overall
        degrees = [c.nilpotency_degree for c in report.per_generator]
        assert degrees[0] == 3 and degrees[1] == 3 and degrees[2] == 3

    @pytest.mark.parametrize("name", ["torus-2", "klein", "hantzsche-wendt"])
    def test_unequal_translation_scales_fail(self, name):
        # Each image lies in O(B; Q) and fixes v_inf, but scaling successive
        # translations by 1, 3, 5 is not a conjugation of the embedding.
        count = len(catalog(name).generators)
        report = verify_embedding(scaled_embedding(name, [1, 3, 5][:count]))
        assert not report.overall
        checks = report.per_generator
        assert all(c.form_preserved and c.fixes_vinf for c in checks)
        assert [c.equivariance for c in checks] == [True] + [False] * (count - 1)

    def test_reversed_images_fail(self):
        group = catalog("torus-2")
        embedding = embed_group(group, ShapeDescriptor(group, SymmetricForm.identity(2)))
        reversed_images = LorentzEmbedding(embedding.model, group, embedding.images[::-1])
        report = verify_embedding(reversed_images)
        assert not report.overall
        assert not any(c.equivariance for c in report.per_generator)

    @pytest.mark.parametrize("name", ["torus-2", "klein", "hantzsche-wendt"])
    @pytest.mark.parametrize("scale", [0, -1])
    def test_non_positive_uniform_scale_fails(self, name, scale):
        count = len(catalog(name).generators)
        report = verify_embedding(scaled_embedding(name, [scale] * count))
        assert not report.overall
        assert not any(c.equivariance for c in report.per_generator)

    @pytest.mark.parametrize("name", ["torus-2", "klein", "hantzsche-wendt"])
    @pytest.mark.parametrize("scale", [F(3, 2), 2])
    def test_positive_uniform_scale_passes(self, name, scale):
        # Conjugation by the hyperbolic element H_c: a similarity.
        count = len(catalog(name).generators)
        assert verify_embedding(scaled_embedding(name, [scale] * count)).overall

    def test_model_signature_always_lorentzian(self):
        for name in ("torus-3", "klein", "hantzsche-wendt", "sixth-turn"):
            group = catalog(name)
            theta = holonomy(group)
            shape = ShapeDescriptor(group, theta_average(SymmetricForm.identity(group.dim), theta))
            embedding = embed_group(group, shape)
            n = group.dim
            assert ldl_signature(embedding.model.model_form) == (n + 1, 1, 0)


def assert_matches_oracle(embedding):
    """``verify_embedding`` equals the full-check oracle, as a value and as
    serialized JSON, and returns the report."""
    report = verify_embedding(embedding)
    expected = ref_verify_embedding(embedding)
    assert report == expected
    assert json.dumps(report_to_dict(report)) == json.dumps(report_to_dict(expected))
    return report


def with_images(embedding, images):
    return LorentzEmbedding(embedding.model, embedding.group, images)


def random_base(data, theta):
    n = theta.group.dim
    square = st.lists(st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n)
    m = Matrix(data.draw(square))
    shift = Matrix.diagonal(data.draw(st.lists(positive_fractions, min_size=n, max_size=n)))
    return theta_average(SymmetricForm(transpose(m) * m + shift), theta)


class TestVerifyAgainstOracle:
    """The decode-first verifier against the full (n+2)-sized checks, on
    images that decode and on every way of failing to."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_negative_and_fine_translations(self, name):
        # Conjugating by y -> s - y keeps every linear part and turns t into
        # s - A s - t: the first nonzero coordinate may be negative and s
        # brings a large denominator, so the shared scale is read off a
        # negative numerator over a large denominator.
        group, theta = catalog_with_holonomy(name)
        n = group.dim
        flip = AffineMap(Matrix.diagonal([-1] * n), [F(k + 1, 10**9 + 7) for k in range(n)])
        conjugated = BieberbachGroup([flip * g * flip.inverse() for g in group.generators])
        assert any(x < 0 for g in conjugated.generators for x in g.translation[:1])
        shape = ShapeDescriptor(conjugated, theta_average(SymmetricForm.identity(n), theta))
        embedding = embed_group(conjugated, shape)
        assert assert_matches_oracle(embedding).overall
        result, scale = integralize(embedding)
        assert assert_matches_oracle(result).overall
        conjugator = hyperbolic_conjugator(embedding.model, scale)
        inverse = conjugator.inverse()
        assert list(result.images) == [conjugator * m * inverse for m in embedding.images]

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_embeddings(self, name):
        group, theta = catalog_with_holonomy(name)
        n = group.dim
        for base in (SymmetricForm.identity(n), SymmetricForm.diagonal(range(2, n + 2))):
            embedding = embed_group(group, ShapeDescriptor(group, theta_average(base, theta)))
            for e in (embedding, integralize(embedding)[0]):
                assert assert_matches_oracle(e).overall
                assert_matches_oracle(with_images(e, e.images[::-1]))
                assert_matches_oracle(with_images(e, [transpose(m) for m in e.images]))

    @pytest.mark.parametrize("name", catalog_names())
    @pytest.mark.parametrize("scaling", [0, -1, F(3, 2), 2, (1, 3, 5)], ids=str)
    def test_scaled_embeddings(self, name, scaling):
        count = len(catalog(name).generators)
        cycle = itertools.cycle(scaling if isinstance(scaling, tuple) else [scaling])
        report = assert_matches_oracle(scaled_embedding(name, list(itertools.islice(cycle, count))))
        # a shared positive scale is a conjugation; 1, 3, 5 is one only for one generator
        assert report.overall == (scaling in (F(3, 2), 2) or scaling == (1, 3, 5) and count == 1)

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        name=st.sampled_from(catalog_names()),
        variant=st.sampled_from(
            [
                "assembled",
                "integral",
                "extended",
                "reversed",
                "transposed",
                "corrupted",
                "scaled",
                "random",
            ]
        ),
    )
    def test_agrees_with_oracle(self, data, name, variant):
        group, theta = catalog_with_holonomy(name)
        embedding = embed_group(group, ShapeDescriptor(group, random_base(data, theta)))
        model, images = embedding.model, list(embedding.images)
        n, count, size = group.dim, len(images), model.ambient_dim
        if variant == "integral":
            images = list(integralize(embedding)[0].images)
        elif variant == "extended":
            # zero translations (nilpotency degree 1) and a linear part that
            # need not preserve the base form, each decoding to its generator
            square = st.lists(st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n)
            linear = data.draw(square.map(Matrix).filter(lambda m: m.det() != 0))
            translation = data.draw(st.lists(small_fractions, min_size=n, max_size=n))
            extra = [AffineMap(a, [0] * n) for a in theta.elements]
            extra.append(AffineMap(linear, translation))
            group = BieberbachGroup(group.generators + tuple(extra))
            images = [product_embed_affine(g, model) for g in group.generators]
        elif variant == "reversed":
            images.reverse()
        elif variant == "transposed":
            images = [transpose(m) for m in images]
        elif variant == "corrupted":
            k = data.draw(st.integers(0, count - 1))
            i, j = data.draw(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)))
            rows = [list(row) for row in images[k].entries]
            rows[i][j] += data.draw(small_fractions.filter(bool))
            images[k] = Matrix(rows)
        elif variant == "scaled":
            factors = data.draw(
                st.one_of(
                    st.lists(small_fractions, min_size=count, max_size=count),
                    small_fractions.map(lambda f: [f] * count),
                )
            )
            images = [
                product_embed_affine(AffineMap(g.linear, [f * x for x in g.translation]), model)
                for g, f in zip(group.generators, factors)
            ]
        elif variant == "random":
            square = st.lists(
                st.lists(small_fractions, min_size=size, max_size=size),
                min_size=size,
                max_size=size,
            )
            images = [Matrix(data.draw(square)) for _ in range(count)]
        report = assert_matches_oracle(LorentzEmbedding(model, group, images))
        if variant in ("assembled", "integral"):
            assert report.overall
        if variant in ("corrupted", "random"):
            assert not report.overall


class TestDecodeInPlace:
    """The entrywise, cross-multiplied decode against the assembled
    product, and every image with one entry moved by one step."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        name=st.sampled_from(catalog_names()),
        c0=st.sampled_from([1, F(3, 2), 3]),
    )
    def test_agrees_with_product(self, data, name, c0):
        # every image against every generator, at the shared scale, at one
        # more, at the shared scale unreduced and at its negative, before
        # and after integralization; each decode scales the table's entry
        group, theta = catalog_with_holonomy(name)
        model = LorentzModel(random_base(data, theta))
        images = [
            product_embed_affine(AffineMap(g.linear, [c0 * x for x in g.translation]), model)
            for g in group.generators
        ]
        embedding = LorentzEmbedding(model, group, images)
        entries = embedding._parts
        for e in (embedding, integralize(embedding)[0]):
            c_num, c_den = lorentz._shared_scale(e)
            scales = ((c_num, c_den), (c_num + c_den, c_den), (2 * c_num, 2 * c_den), (-c_num, c_den))
            for scale in scales:
                for k, g in enumerate(group.generators):
                    for j, image in enumerate(e.images):
                        decodes = lorentz._decodes(image, g, scale, model, entries[k])
                        assert decodes == ref_decodes(image, g, scale, model)
                        if j == k and scale[0] * c_den == c_num * scale[1]:
                            assert decodes

    @pytest.mark.parametrize("name", catalog_names())
    def test_every_shifted_entry_fails(self, name):
        # each of the (n+2)^2 entries of each image moved by +-1/den, on the
        # rational and on the integral images
        group, theta = catalog_with_holonomy(name)
        shape = ShapeDescriptor(group, theta_average(SymmetricForm.identity(group.dim), theta))
        embedding = embed_group(group, shape)
        size = embedding.model.ambient_dim
        for e in (embedding, integralize(embedding)[0]):
            for k, image in enumerate(e.images):
                for i, j, step in itertools.product(range(size), range(size), (1, -1)):
                    rows = [list(row) for row in image.num]
                    rows[i][j] += step
                    shifted = Matrix.from_integer_rows(tuple(map(tuple, rows)), image.den)
                    mutated = with_images(e, e.images[:k] + (shifted,) + e.images[k + 1 :])
                    report = assert_matches_oracle(mutated)
                    assert not report.overall, (k, i, j, step)
                    with pytest.raises(InvariantViolation):
                        integralize(mutated)

    @pytest.mark.parametrize("name", catalog_names())
    def test_shifted_corner_fails(self, name):
        # h moved by +-1/den in all four corner entries at once keeps the
        # corner's shape, so only the value of h itself tells it apart
        group, theta = catalog_with_holonomy(name)
        shape = ShapeDescriptor(group, theta_average(SymmetricForm.identity(group.dim), theta))
        embedding = embed_group(group, shape)
        n = group.dim
        for e in (embedding, integralize(embedding)[0]):
            for k, image in enumerate(e.images):
                for step in (1, -1):
                    rows = [list(row) for row in image.num]
                    for i, j, sign in ((n, n, -1), (n, n + 1, 1), (n + 1, n, -1), (n + 1, n + 1, 1)):
                        rows[i][j] += sign * step
                    shifted = Matrix.from_integer_rows(tuple(map(tuple, rows)), image.den)
                    mutated = with_images(e, e.images[:k] + (shifted,) + e.images[k + 1 :])
                    assert not assert_matches_oracle(mutated).overall
                    with pytest.raises(InvariantViolation):
                        integralize(mutated)

    @pytest.mark.parametrize(
        "linear, rows, den",
        [
            # the blocks are den // den(A) times A's rows, over a den that
            # den(A) does not divide: not A, though every other entry fits
            ([[HALF]], [[0, 0, 0], [0, 1, 0], [0, 0, 1]], 1),
            ([[0, -HALF], [2, 0]], [[0, -1, 0, 0], [4, 0, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]], 3),
        ],
    )
    def test_block_denominator_must_divide(self, linear, rows, den):
        g = AffineMap(linear, [0] * len(linear))
        model = LorentzModel(SymmetricForm.identity(len(linear)))
        image = Matrix.from_integer_rows(tuple(map(tuple, rows)), den)
        assert image.den == den
        entry = lorentz._generator_parts(g, model)
        assert not lorentz._decodes(image, g, (1, 1), model, entry)
        assert not ref_decodes(image, g, (1, 1), model)
        assert lorentz._decodes(product_embed_affine(g, model), g, (1, 1), model, entry)
        embedding = LorentzEmbedding(model, BieberbachGroup([g]), [image])
        assert not assert_matches_oracle(embedding).overall


def public_chain(group, shape):
    """``embed_group``, ``verify_embedding``, ``integralize`` and
    ``verify_embedding`` again, as the command line's ``embed --integralize
    --report`` runs them: the two embeddings, the two reports and the scale."""
    embedding = embed_group(group, shape)
    first = verify_embedding(embedding)
    integral, c = integralize(embedding)
    return embedding, first, integral, c, verify_embedding(integral)


def chain_shapes(name):
    """The group and two invariant shapes: the average of the identity and
    that of a form with fractional entries."""
    group, theta = catalog_with_holonomy(name)
    n = group.dim
    a = Matrix([[F(1 + (i * j) % 3, 2 + i + j) for j in range(n)] for i in range(n)])
    forms = (SymmetricForm.identity(n), SymmetricForm(transpose(a) * a + Matrix.identity(n)))
    return group, [ShapeDescriptor(group, theta_average(form, theta)) for form in forms]


class TestPartsTable:
    """The table of each generator's closed-form parts that an embedding
    carries: built once per embedding, handed from leg to leg, and never a
    source of a verdict on an image."""

    @staticmethod
    def count_calls(monkeypatch, *names):
        calls = {name: 0 for name in names}
        for name in names:
            original = getattr(lorentz, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(lorentz, name, counted)
        return calls

    @pytest.mark.parametrize("name", catalog_names())
    def test_public_chain_builds_it_once(self, name, monkeypatch):
        # one table and one isometry test per generator where each of the
        # four legs used to run its own; the integral embedding carries the
        # very table of the rational one
        calls = self.count_calls(monkeypatch, "_parts_table", "preserves_form")
        group, shapes = chain_shapes(name)
        for shape in shapes:
            calls.update(dict.fromkeys(calls, 0))
            embedding, _, integral, _, second = public_chain(group, shape)
            assert second.overall
            assert calls == {"_parts_table": 1, "preserves_form": len(group.generators)}
            assert integral._parts is embedding._parts

    @pytest.mark.parametrize("name", catalog_names())
    def test_warm_table_does_not_pass_a_bumped_image(self, name, monkeypatch):
        # entry (0, 0) of every image moved by one, as oracles.bump_conjugate
        # moves it, is judged on the image, though the bumped embedding
        # carries the table that built the true images; the constructor
        # builds that table, and neither leg builds one of its own
        calls = self.count_calls(monkeypatch, "_parts_table")
        group, shapes = chain_shapes(name)
        for shape in shapes:
            embedding, _, integral, _, _ = public_chain(group, shape)
            for e in (embedding, integral):
                calls["_parts_table"] = 0
                bump = Matrix.diagonal([1] + [0] * (e.model.ambient_dim - 1))
                bumped = with_images(e, [m + bump for m in e.images])
                report = verify_embedding(bumped)
                assert not any(checks.equivariance for checks in report.per_generator)
                with pytest.raises(InvariantViolation):
                    integralize(bumped)
                assert calls == {"_parts_table": 1}
                assert bumped._parts == e._parts
                assert report == ref_verify_embedding(bumped)

    @pytest.mark.parametrize("name", catalog_names())
    def test_warm_and_cold_agree(self, name):
        # two builds of the chain, and of the density row's shortcut, are
        # equal, tables included
        group, shapes = chain_shapes(name)
        for shape in shapes:
            first = public_chain(group, shape)
            second = public_chain(group, shape)
            integral = lorentz._integral_embedding(group, shape)
            assert first == second
            assert integral == lorentz._integral_embedding(group, shape) == first[2:4]

    @pytest.mark.parametrize("name", catalog_names())
    def test_builders_match_the_constructor(self, name):
        # each builder's output against the constructor's on the same images:
        # equal, with equal hashes and tables, before and after pickling
        group, shapes = chain_shapes(name)
        for shape in shapes:
            embedding = embed_group(group, shape)
            integral, _ = integralize(embedding)
            for e in (embedding, integral, lorentz._integral_embedding(group, shape)[0]):
                twin = LorentzEmbedding(e.model, e.group, e.images)
                assert e == twin and hash(e) == hash(twin)
                assert e._parts == twin._parts
                for clone in (pickle.loads(pickle.dumps(e)), pickle.loads(pickle.dumps(twin))):
                    assert clone == e == twin and clone._parts == e._parts


def conjugate_suite_shapes():
    """Every presentation of the conjugate suite with its fractional shape."""
    for name in CONJUGATE_NAMES:
        for q in sorted(CONJUGATORS):
            for shift in ("0", "1/5"):
                group, _ = conjugate(catalog(name), q, shift)
                yield group, _fractional_shape(group, 2)


class TestClosedFormParts:
    """Each generator's flat record of parts against the generic products:
    ``k^T A`` as a product with every ``A``, translations included, over
    ``k``'s denominator times ``den A``, and the isometry verdict as
    ``A^T B_K A == B_K`` on rational matrices."""

    @staticmethod
    def check(group, shape):
        model = LorentzModel(shape.form)
        base = model.base_form.matrix
        for g in group.generators:
            ka_num, ka_den, h_num, h_den, isometry = lorentz._generator_parts(g, model)
            a = g.linear
            k_den = base.den * g.den  # the denominator of k = B_K t
            assert ka_den == k_den * a.den
            k = Matrix([g.translation]) * base
            assert [F(x, ka_den) for x in ka_num] == list((k * a).entries[0])
            assert F(h_num, h_den) == (k * transpose(Matrix([g.translation])))[0, 0] / 2
            assert isometry == (transpose(a) * base * a == base)

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog(self, name):
        group, shapes = chain_shapes(name)
        for shape in shapes + [_fractional_shape(group, 1)]:
            self.check(group, shape)

    def test_conjugate_suite(self):
        for group, shape in conjugate_suite_shapes():
            self.check(group, shape)

    def test_linear_part_off_the_form(self):
        # the quarter turn of axes 0 and 1 does not preserve diag(1, 2, 3)
        group = catalog("quarter-turn")
        self.check(group, ShapeDescriptor(group, SymmetricForm.diagonal([1, 2, 3])))


class TestDecodedVerdicts:
    """An image that decodes gets one of the shared checks values, keyed by
    the isometry verdict, ``A = I`` and ``t != 0``; one that does not gets
    its own full report. Both equal the full-check oracle."""

    DECODED = tuple(lorentz._DECODED.values())

    def shared(self, checks):
        return any(checks is c for c in self.DECODED)

    def test_eight_distinct_values(self):
        assert len(set(self.DECODED)) == 8
        for (isometry, translation, moving), checks in lorentz._DECODED.items():
            assert checks.form_preserved is isometry
            assert checks.unipotent_translation is (True if translation else None)
            assert checks.nilpotency_degree == (3 if moving else 1)
            assert checks.fixes_vinf and checks.equivariance and checks.log_cubes_to_zero

    @pytest.mark.parametrize("name", catalog_names())
    def test_decoded_images_share_them(self, name):
        group, shapes = chain_shapes(name)
        for shape in shapes:
            embedding, first, integral, _, second = public_chain(group, shape)
            for e, report in ((embedding, first), (integral, second)):
                assert all(self.shared(checks) for checks in report.per_generator)
                assert report == ref_verify_embedding(e)
                # a bumped image still gets its own full report
                bump = Matrix.diagonal([1] + [0] * (e.model.ambient_dim - 1))
                bumped = with_images(e, [m + bump for m in e.images])
                bumped_report = verify_embedding(bumped)
                assert not any(self.shared(checks) for checks in bumped_report.per_generator)
                assert bumped_report == ref_verify_embedding(bumped)

    @pytest.mark.parametrize("name", catalog_names())
    def test_overall_is_the_conjunction(self, name):
        # verify_embedding forms overall in its own loop, not through the
        # report's constructor: it must be the conjunction of passed() on
        # images that decode, on bumped images, which do not, and on a mix
        group, shapes = chain_shapes(name)
        for shape in shapes:
            embedding, _, integral, _, _ = public_chain(group, shape)
            for e in (embedding, integral):
                bump = Matrix.diagonal([1] + [0] * (e.model.ambient_dim - 1))
                bumped = [m + bump for m in e.images]
                verdicts = []
                for images in (e.images, bumped, bumped[:1] + list(e.images[1:])):
                    report = verify_embedding(with_images(e, images))
                    assert report.overall is all(c.passed() for c in report.per_generator)
                    verdicts.append(report.overall)
                assert verdicts == [True, False, False]

    def test_conjugate_suite(self):
        for group, shape in conjugate_suite_shapes():
            embedding = embed_group(group, shape)
            report = verify_embedding(embedding)
            assert all(self.shared(checks) for checks in report.per_generator)
            assert report == ref_verify_embedding(embedding)

    def test_zero_translation_and_identity(self):
        # t = 0 decodes with nilpotency degree 1, and the identity is a
        # translation
        model = LorentzModel(SymmetricForm.diagonal([2, 3]))
        group = BieberbachGroup([AffineMap.translation_by([0, 0]), AffineMap.translation_by([1, 0])])
        embedding = LorentzEmbedding(model, group, [embed_affine(g, model) for g in group.generators])
        report = verify_embedding(embedding)
        assert report.per_generator[0] is lorentz._DECODED[True, True, False]
        assert report.per_generator[1] is lorentz._DECODED[True, True, True]
        assert report == ref_verify_embedding(embedding)

    def test_off_form_image_decodes_unpreserved(self):
        # the quarter turn's image is the product for a linear part that
        # does not preserve diag(1, 2, 3): it decodes, and the form is not
        # preserved
        group = catalog("quarter-turn")
        model = LorentzModel(SymmetricForm.diagonal([1, 2, 3]))
        images = [product_embed_affine(g, model) for g in group.generators]
        embedding = LorentzEmbedding(model, group, images)
        report = verify_embedding(embedding)
        assert all(self.shared(checks) for checks in report.per_generator)
        assert [c.form_preserved for c in report.per_generator] == [
            g.linear.is_identity() for g in group.generators
        ]
        # decoded, but not every image passes: overall reads the verdicts
        assert report.overall is all(c.passed() for c in report.per_generator) is False
        assert report == ref_verify_embedding(embedding)
