from fractions import Fraction as F

import pytest

from flatcusps.bieberbach import AffineMap, BieberbachGroup, catalog, holonomy, theta_average
from flatcusps.errors import ValidationError
from flatcusps.exactlin import SymmetricForm
from flatcusps.lorentz import embed_group, integralize, verify_embedding
from flatcusps.serialize import (
    build_matrix_group_input,
    certificate_to_dict,
    embedding_to_dict,
    form_to_dict,
    group_to_dict,
    parse_form,
    parse_group,
    parse_rational,
    parse_real_form,
    report_to_dict,
    shape_to_dict,
)
from flatcusps.selberg import good_prime
from flatcusps.shapes import ShapeDescriptor

from oracles import parse_shape


def parse_number(value, path):
    """``value`` as the one entry of a target ``{"matrix": [[value]]}``,
    read by ``parse_real_form``; ``path`` is that entry's path."""
    root, _, rest = path.partition(".")
    assert rest == "matrix[0][0]"
    return parse_real_form({"matrix": [[value]]}, root).matrix[0, 0]


class TestRationals:
    def test_accepted_forms(self):
        assert parse_rational("3/4", "x") == F(3, 4)
        assert parse_rational("-2", "x") == F(-2)
        assert parse_rational(5, "x") == F(5)

    def test_rejected_forms(self):
        with pytest.raises(ValidationError) as info:
            parse_rational(0.5, "generators[0].translation[1]")
        assert "generators[0].translation[1]" in str(info.value)
        with pytest.raises(ValidationError):
            parse_rational("1/0", "x")
        with pytest.raises(ValidationError):
            parse_rational("abc", "x")
        with pytest.raises(ValidationError):
            parse_rational(True, "x")

    @pytest.mark.parametrize("parse", [parse_rational, parse_number])
    @pytest.mark.parametrize("text", ["1e4301", "-2.5E-4301", "1e999999999", "1e" + "9" * 5000])
    def test_exponent_beyond_the_bound_rejected(self, parse, text):
        # Fraction would build 10**|exponent| first, which for a long
        # exponent runs for minutes
        with pytest.raises(ValidationError, match="decimal exponent exceeds 4300") as info:
            parse(text, "target.matrix[0][0]")
        assert info.value.path == "target.matrix[0][0]"

    def test_exponent_at_the_bound_accepted(self):
        assert parse_rational("0.001e4300", "x") == 10**4297
        assert parse_rational(" 2.5E-4299 ", "x") == F(5, 2 * 10**4299)
        # a target entry is exact too, within the same digit bound
        assert parse_number("1e-4299", "target.matrix[0][0]") == F(1, 10**4299)
        assert parse_number("1_0e1_0", "target.matrix[0][0]") == 10**11
        with pytest.raises(ValidationError, match="more than 4300 digits"):
            parse_number("1e-4300", "target.matrix[0][0]")

    @pytest.mark.parametrize("text", ["1e4300", "-1e4300", "1e-4300", "3E-4300"])
    def test_digits_beyond_the_print_limit_rejected(self, text):
        # 10**4300 has 4,301 digits, one more than CPython converts to a string
        with pytest.raises(ValidationError, match="more than 4300 digits") as info:
            parse_rational(text, "form.matrix[0][0]")
        assert info.value.path == "form.matrix[0][0]"

    def test_digits_at_the_print_limit_accepted(self):
        value = parse_rational("1e4299", "x")
        assert value == 10**4299
        assert len(str(value)) == 4300
        assert parse_rational("-" + "9" * 4300, "x") == -(10**4300 - 1)
        assert parse_rational(10**4300 - 1, "x") == 10**4300 - 1
        with pytest.raises(ValidationError, match="more than 4300 digits"):
            parse_rational(10**4300, "x")


class TestGroupRoundtrip:
    def test_catalog_groups_roundtrip(self):
        for name in ("torus-2", "klein", "hantzsche-wendt"):
            group = catalog(name)
            data = group_to_dict(group)
            assert parse_group(data) == group

    def test_error_paths(self):
        with pytest.raises(ValidationError) as info:
            parse_group({"dim": 2, "generators": [{"linear": [["1", "0"]], "translation": ["0", "0"]}]})
        assert "generators[0].linear" in str(info.value)
        with pytest.raises(ValidationError) as info:
            parse_group({"dim": 2})
        assert "generators" in str(info.value)
        with pytest.raises(ValidationError) as info:
            parse_group({"generators": []})
        assert "dim" in str(info.value)

    def test_singular_linear_part(self):
        data = {
            "dim": 2,
            "generators": [
                {"linear": [["1", "1"], ["1", "1"]], "translation": ["0", "0"]}
            ],
        }
        with pytest.raises(ValidationError) as info:
            parse_group(data)
        assert "singular" in str(info.value)


class TestFormsAndShapes:
    def test_form_roundtrip(self):
        form = SymmetricForm([[2, F(1, 2)], [F(1, 2), 3]])
        assert parse_form(form_to_dict(form)) == form

    def test_form_requires_symmetry(self):
        with pytest.raises(ValidationError):
            parse_form({"dim": 2, "matrix": [["1", "2"], ["0", "1"]]})

    def test_shape_roundtrip(self):
        group = catalog("klein")
        shape = ShapeDescriptor(group, SymmetricForm.diagonal([2, 3]))
        assert parse_shape(shape_to_dict(shape)) == shape

    def test_real_form_accepts_decimals_and_strings(self):
        real = parse_real_form({"matrix": [[1.5, "1/4"], [0.25, 2]]})
        assert real == SymmetricForm([[F(3, 2), F(1, 4)], [F(1, 4), 2]])

    def test_real_form_symmetry_checked(self):
        with pytest.raises(ValidationError):
            parse_real_form({"matrix": [[1.0, 0.3], [0.1, 1.0]]})

    @pytest.mark.parametrize("parse", [parse_form, parse_real_form])
    def test_empty_first_row_names_the_row(self, parse):
        with pytest.raises(ValidationError) as info:
            parse({"matrix": [[], []]}, "form")
        assert info.value.path == "form.matrix[0]"


class TestEmbeddingAndCertificates:
    def test_embedding_dict_contents(self):
        group = catalog("klein")
        shape = ShapeDescriptor(group, SymmetricForm.diagonal([2, 3]))
        embedding = embed_group(group, shape)
        integral, scale = integralize(embedding)
        payload = embedding_to_dict(integral, scale)
        assert payload["scale"] == 2
        assert payload["v_inf"] == ["0", "0", "1", "1"]
        assert len(payload["images"]) == 2
        assert all(
            all("/" not in x for row in image for x in row)
            for image in payload["images"]
        )

    def test_report_dict(self):
        group = catalog("torus-2")
        embedding = embed_group(group, ShapeDescriptor(group, SymmetricForm.identity(2)))
        payload = report_to_dict(verify_embedding(embedding))
        assert payload["overall"] is True
        assert payload["generators"][0]["form_preserved"] is True
        assert payload["generators"][0]["nilpotency_degree"] == 3

    def test_matrix_group_input_and_certificate(self):
        lam = {"n": 2, "generators": [[["1", "1"], ["0", "1"]], [["-1", "0"], ["0", "-1"]]]}
        gam = {"n": 2, "generators": [[["1", "1"], ["0", "1"]]]}
        group_input = build_matrix_group_input(lam, gam)
        payload = certificate_to_dict(good_prime(group_input))
        assert payload["prime"] == 5
        assert payload["bad_primes"]["2"]
        # one entry per cyclotomic factor: Phi_2, Phi_3, Phi_4 and Phi_6
        texts = [p["text"] for p in payload["torsion_polynomials"]]
        assert texts == ["t + 1", "t^2 + t + 1", "t^2 + 1", "t^2 - t + 1"]
        assert all(e["distinct"] for e in payload["residue_evidence"])

    def test_matrix_group_degree_mismatch(self):
        lam = {"n": 2, "generators": [[["1", "0"], ["0", "1"]]]}
        gam = {"n": 3, "generators": []}
        with pytest.raises(ValidationError):
            build_matrix_group_input(lam, gam)


# Coprime odd numbers of 4,300 digits each: every input entry built from
# them prints, but products of the two do not.
BIG_D = 10**4299 + 1
BIG_E = 10**4299 + 3


class TestOutputDigitLimit:
    """Exact results of accepted input can outgrow what CPython prints; the
    error names the output field instead."""

    def test_averaged_form(self):
        # the third-turn average divides 1/(8 10**4299) by 3 and 6
        tiny = F(1, 8 * 10**4299)
        form = SymmetricForm.diagonal([tiny, tiny, 1])
        averaged = theta_average(form, holonomy(catalog("third-turn")))
        with pytest.raises(ValidationError, match="more than 4300 digits") as info:
            form_to_dict(averaged)
        assert info.value.path == "form.matrix"

    def test_group_translation(self):
        group = BieberbachGroup([AffineMap.translation_by([F(1, BIG_D * BIG_E)])])
        with pytest.raises(ValidationError, match="more than 4300 digits") as info:
            shape_to_dict(ShapeDescriptor(group, SymmetricForm.identity(1)))
        assert info.value.path == "shape.generators[0].translation"

    def test_integralization_scale(self):
        # c = 2 D E clears the denominators of t = 1/D and B_K t = 1/(D E),
        # while every image entry stays within the limit
        group = BieberbachGroup([AffineMap.translation_by([F(1, BIG_D)])])
        shape = ShapeDescriptor(group, SymmetricForm([[F(1, BIG_E)]]))
        integral, scale = integralize(embed_group(group, shape))
        assert scale == 2 * BIG_D * BIG_E
        with pytest.raises(ValidationError, match="more than 4300 digits") as info:
            embedding_to_dict(integral, scale)
        assert info.value.path == "embedding.scale"
