"""JSON encoding and decoding for groups, forms, shapes, embeddings, and
certificates.

Rationals travel as strings like ``"3/4"`` (plain integers also accepted)
so files stay exact; decimal numbers are accepted only in approximation
targets, each read as the exact value of its double. Parse errors carry
the path of the offending field.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Any, Callable, Sequence

from .bieberbach import AffineMap, BieberbachGroup
from .errors import ValidationError
from .exactlin import Matrix, SymmetricForm
from .lorentz import GeneratorChecks, LorentzEmbedding, VerificationReport
from .selberg import MatrixGroupInput, SelbergCertificate
from .shapes import ShapeDescriptor


#: Largest decimal exponent a numeral string may carry. ``Fraction("1e9999999")``
#: builds ``10**9999999``, so the exponent is bounded before the string is
#: parsed; 4300 is CPython's own limit on the digits of a numeral.
MAX_EXPONENT = 4300

# An exact rational is accepted only if its numerator and denominator have
# at most MAX_EXPONENT digits, so that it prints within CPython's limit.
_DIGIT_BOUND = 10**MAX_EXPONENT
_TOO_MANY_DIGITS = f"numerator or denominator has more than {MAX_EXPONENT} digits"

_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _parse_fraction(value: str, path: str, kind: str) -> Fraction:
    exponent = _EXPONENT.search(value)
    try:
        too_large = exponent is not None and abs(int(exponent[1])) > MAX_EXPONENT
    except ValueError:  # an exponent longer than CPython's numeral limit
        too_large = True
    if too_large:
        raise ValidationError(path, f"decimal exponent exceeds {MAX_EXPONENT} in size")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(path, f"not a {kind}: {value!r}") from None


def _exact(value: Any, path: str, kind: str) -> Fraction:
    """An integer or a numeral string as an exact rational of at most
    ``MAX_EXPONENT`` digits; ``kind`` names what was expected."""
    if isinstance(value, bool):
        raise ValidationError(path, f"expected a {kind}, got a boolean")
    if isinstance(value, int):
        result = Fraction(value)
    elif isinstance(value, str):
        result = _parse_fraction(value, path, kind)
    else:
        raise ValidationError(path, f"expected a {kind}, got {type(value).__name__}")
    if abs(result.numerator) >= _DIGIT_BOUND or result.denominator >= _DIGIT_BOUND:
        raise ValidationError(path, _TOO_MANY_DIGITS)
    return result


def parse_rational(value: Any, path: str) -> Fraction:
    if isinstance(value, float):
        raise ValidationError(
            path, "decimal input is not accepted here; use a \"p/q\" string"
        )
    return _exact(value, path, "rational")


def _target_entry(value: Any, path: str) -> Fraction | float:
    """A JSON float as the exact value of its double, returned as is when
    it is not finite; anything else exactly, as by :func:`parse_rational`."""
    if isinstance(value, float):
        return Fraction(value) if math.isfinite(value) else value
    return _exact(value, path, "number")


def _expect_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(path, f"expected a list, got {type(value).__name__}")
    return value


def _expect_dict(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, f"expected an integer, got {type(value).__name__}")
    return value


def vector_to_list(v: Sequence[Fraction], path: str) -> list[str]:
    """Exact rationals as text, for the output field ``path``."""
    try:
        return [str(x) for x in v]
    except ValueError:  # CPython's limit on the digits of an integer string
        raise ValidationError(path, _TOO_MANY_DIGITS) from None


def matrix_to_lists(m: Matrix, path: str) -> list[list[str]]:
    return [vector_to_list(row, path) for row in m.entries]


def parse_vector(data: Any, path: str) -> tuple[Fraction, ...]:
    items = _expect_list(data, path)
    return tuple(parse_rational(x, f"{path}[{i}]") for i, x in enumerate(items))


def parse_rows(data: Any, path: str, parse_entry: Callable[[Any, str], Any]) -> list[list]:
    """A nonempty list of nonempty equal-length rows, each entry read by ``parse_entry``."""
    rows = _expect_list(data, path)
    if not rows:
        raise ValidationError(path, "matrix must not be empty")
    parsed = [
        [parse_entry(x, f"{path}[{i}][{j}]") for j, x in enumerate(_expect_list(row, f"{path}[{i}]"))]
        for i, row in enumerate(rows)
    ]
    width = len(parsed[0])
    if not width:
        raise ValidationError(f"{path}[0]", "matrix rows must not be empty")
    for i, row in enumerate(parsed):
        if len(row) != width:
            raise ValidationError(f"{path}[{i}]", "matrix rows have unequal lengths")
    return parsed


def parse_matrix(data: Any, path: str) -> Matrix:
    return Matrix(parse_rows(data, path, parse_rational))


# ---------------------------------------------------------------------------
# Groups and shapes
# ---------------------------------------------------------------------------


def group_to_dict(group: BieberbachGroup, path: str = "group") -> dict:
    prefix = f"{path}.generators"
    return {
        "dim": group.dim,
        "name": group.name,
        "generators": [
            {
                "linear": matrix_to_lists(g.linear, f"{prefix}[{i}].linear"),
                "translation": vector_to_list(g.translation, f"{prefix}[{i}].translation"),
            }
            for i, g in enumerate(group.generators)
        ],
    }


def parse_group(data: Any, path: str = "") -> BieberbachGroup:
    root = path or "group"
    obj = _expect_dict(data, root)
    if "dim" not in obj:
        raise ValidationError(f"{root}.dim", "missing required field")
    dim = _expect_int(obj["dim"], f"{root}.dim")
    if dim < 1:
        raise ValidationError(f"{root}.dim", "dimension must be positive")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise ValidationError(f"{root}.name", "name must be a string")
    if "generators" not in obj:
        raise ValidationError(f"{root}.generators", "missing required field")
    gens_data = _expect_list(obj["generators"], f"{root}.generators")
    if not gens_data:
        raise ValidationError(f"{root}.generators", "at least one generator is required")
    generators = []
    for i, item in enumerate(gens_data):
        gpath = f"{root}.generators[{i}]"
        entry = _expect_dict(item, gpath)
        if "linear" not in entry:
            raise ValidationError(f"{gpath}.linear", "missing required field")
        if "translation" not in entry:
            raise ValidationError(f"{gpath}.translation", "missing required field")
        linear = parse_matrix(entry["linear"], f"{gpath}.linear")
        translation = parse_vector(entry["translation"], f"{gpath}.translation")
        if linear.rows != dim or linear.cols != dim:
            raise ValidationError(f"{gpath}.linear", f"expected a {dim}x{dim} matrix")
        if len(translation) != dim:
            raise ValidationError(
                f"{gpath}.translation", f"expected a vector of length {dim}"
            )
        try:
            generators.append(AffineMap(linear, translation))
        except ValueError as exc:
            raise ValidationError(f"{gpath}.linear", str(exc)) from None
    return BieberbachGroup(generators, name=name)


def form_to_dict(form: SymmetricForm) -> dict:
    return {"dim": form.dim, "matrix": matrix_to_lists(form.matrix, "form.matrix")}


def _matrix_field(data: Any, path: str, parse_entry: Callable[[Any, str], Any]) -> list[list]:
    """The rows of an object's ``"matrix"``, checked against its optional ``"dim"``."""
    obj = _expect_dict(data, path)
    if "matrix" not in obj:
        raise ValidationError(f"{path}.matrix", "missing required field")
    rows = parse_rows(obj["matrix"], f"{path}.matrix", parse_entry)
    if "dim" in obj:
        dim = _expect_int(obj["dim"], f"{path}.dim")
        if len(rows) != dim:
            raise ValidationError(
                f"{path}.matrix", f"matrix size {len(rows)} does not match dim {dim}"
            )
    return rows


def parse_form(data: Any, path: str = "form") -> SymmetricForm:
    matrix = Matrix(_matrix_field(data, path, parse_rational))
    if not matrix.is_symmetric():
        raise ValidationError(f"{path}.matrix", "matrix is not symmetric")
    return SymmetricForm(matrix)


def parse_real_form(data: Any, path: str = "target") -> SymmetricForm:
    """A target, read exactly: a string or integer entry as a rational, a
    decimal one as the exact value of its double. Entries within a relative
    1e-9 of their mirror image, decided exactly, are made symmetric from
    the upper triangle."""
    entries = _matrix_field(data, path, _target_entry)
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise ValidationError(f"{path}.matrix", "a real form needs a square matrix")
    if not all(isinstance(x, Fraction) for row in entries for x in row):
        raise ValidationError(f"{path}.matrix", "entries must be finite numbers")
    for i in range(n):
        for j in range(i + 1, n):
            if 10**9 * abs(entries[i][j] - entries[j][i]) > max(1, abs(entries[i][j])):
                raise ValidationError(
                    f"{path}.matrix", f"entries ({i},{j}) and ({j},{i}) are not symmetric"
                )
            entries[j][i] = entries[i][j]
    return SymmetricForm(entries)


def shape_to_dict(shape: ShapeDescriptor) -> dict:
    out = group_to_dict(shape.group, "shape")
    out["form"] = matrix_to_lists(shape.form.matrix, "shape.form")
    return out


# ---------------------------------------------------------------------------
# Embeddings and verification reports
# ---------------------------------------------------------------------------


def embedding_to_dict(embedding: LorentzEmbedding, scale: int | None = None) -> dict:
    model = embedding.model
    out = {
        "dim": model.n,
        "base_form": matrix_to_lists(model.base_form.matrix, "embedding.base_form"),
        "model_form": matrix_to_lists(model.model_form.matrix, "embedding.model_form"),
        "v_inf": vector_to_list(model.v_inf, "embedding.v_inf"),
        "v_0": vector_to_list(model.v_0, "embedding.v_0"),
        "group": group_to_dict(embedding.group, "embedding.group"),
        "images": [
            matrix_to_lists(m, f"embedding.images[{i}]") for i, m in enumerate(embedding.images)
        ],
    }
    if scale is not None:
        if scale >= _DIGIT_BOUND:  # JSON prints it as a bare integer
            raise ValidationError("embedding.scale", _TOO_MANY_DIGITS)
        out["scale"] = scale
    return out


def report_to_dict(report: VerificationReport) -> dict:
    """Each generator's checks keyed by ``GeneratorChecks.__slots__``, in order."""
    return {
        "generators": [
            {name: getattr(c, name) for name in GeneratorChecks.__slots__}
            for c in report.per_generator
        ],
        "overall": report.overall,
    }


# ---------------------------------------------------------------------------
# Congruence inputs and certificates
# ---------------------------------------------------------------------------


def parse_matrix_group(data: Any, path: str = "group") -> tuple[int, list[Matrix]]:
    """Parse ``{"n": int, "generators": [[[rational]]]}``."""
    obj = _expect_dict(data, path)
    if "n" not in obj:
        raise ValidationError(f"{path}.n", "missing required field")
    n = _expect_int(obj["n"], f"{path}.n")
    if "generators" not in obj:
        raise ValidationError(f"{path}.generators", "missing required field")
    items = _expect_list(obj["generators"], f"{path}.generators")
    matrices = []
    for i, item in enumerate(items):
        m = parse_matrix(item, f"{path}.generators[{i}]")
        if m.rows != n or m.cols != n:
            raise ValidationError(
                f"{path}.generators[{i}]", f"expected an {n}x{n} matrix"
            )
        matrices.append(m)
    return n, matrices


def build_matrix_group_input(
    lambda_data: Any, gamma_data: Any
) -> MatrixGroupInput:
    n_lambda, lambda_gens = parse_matrix_group(lambda_data, "lambda")
    n_gamma, gamma_gens = parse_matrix_group(gamma_data, "gamma")
    if n_lambda != n_gamma:
        raise ValidationError("gamma.n", f"degree {n_gamma} does not match lambda degree {n_lambda}")
    try:
        return MatrixGroupInput(n_lambda, lambda_gens, gamma_gens)
    except ValueError as exc:
        raise ValidationError("lambda.generators", str(exc)) from None


def certificate_to_dict(certificate: SelbergCertificate) -> dict:
    return {
        "n": certificate.n,
        "prime": certificate.prime,
        "bad_primes": {str(p): list(reasons) for p, reasons in certificate.bad_primes},
        "torsion_polynomials": [
            {"coefficients": [str(c) for c in p.coeffs], "text": str(p)}
            for p in certificate.torsion_polys
        ],
        "residue_evidence": [
            {
                "polynomial": str(e.polynomial),
                "polynomial_mod_q": list(e.polynomial_mod_q),
                "unipotent_mod_q": list(e.unipotent_mod_q),
                "distinct": e.distinct,
            }
            for e in certificate.residue_evidence
        ],
    }
