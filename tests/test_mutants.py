"""Every exact check is load-bearing: a table of mutants and their killers.

Each mutant names a function of the package, an exact substring of its
source and a replacement for it, and one small in-process killer. The
test applies the edit to ``inspect.getsource`` of the function, compiles
the result into the module's namespace (``monkeypatch`` restores the
original afterwards) and requires that the killer returns True without
the mutant and False under it. A killer calls a library check and reads
its result or its typed error, never an ``assert`` inside the library, so
the table means the same under ``python -O``. A substring that is no
longer found, or found more than once, fails the test as a stale mutant:
a refactor must update the table.
"""

from __future__ import annotations

import __future__
import importlib
import inspect
from fractions import Fraction as F
from typing import Callable, NamedTuple

import pytest

from flatcusps import bieberbach, exactlin, lorentz, selberg, shapes
from flatcusps.bieberbach import AffineMap, BieberbachGroup, catalog, holonomy
from flatcusps.errors import NotFormIsometry
from flatcusps.exactlin import Matrix, SymmetricForm
from flatcusps.selberg import MatrixGroupInput, SelbergCertificate
from flatcusps.shapes import ShapeDescriptor


class Mutant(NamedTuple):
    name: str
    module: str
    function: str
    find: str
    replace: str
    killer: Callable[[], bool]


def _verdict(generators, q, length):
    """``verify_certificate`` on the group of ``generators`` at a forced q."""
    group_input = MatrixGroupInput(generators[0].rows, generators)
    certificate = SelbergCertificate(group_input.n, q, (), {}, ())
    return selberg.verify_certificate(group_input, certificate, length)


# an order-3 rotation conjugated by diag(2, 1): den 2, and 2 = -1 modulo 3
_ROTATION_OVER_TWO = Matrix([[0, -2], [F(1, 2), -1]])

# r has order 6 and does not collapse modulo 3, but r^2 (Phi_3 = (t - 1)^2
# modulo 3) does, and only the word r r, which repeats its first letter,
# reaches it
_SIXTH_TURN = Matrix([[1, -1], [1, 0]])

# the Sanov pair generates a free group: its 17 words of length at most 2 are
# distinct, as many as the bound B(2), but only 13 start at their least letter
_SANOV = [Matrix([[1, 2], [0, 1]]), Matrix([[1, 0], [2, 1]])]


def _refused(generators, q, length, cap):
    """Whether ``verify_certificate`` refuses the ball at ``MAX_WORD_BALL = cap``
    with its ``ValueError``, rather than returning a verdict."""
    saved, selberg.MAX_WORD_BALL = selberg.MAX_WORD_BALL, cap
    try:
        _verdict(generators, q, length)
    except ValueError as exc:
        return f"MAX_WORD_BALL = {cap} elements" in str(exc)
    finally:
        selberg.MAX_WORD_BALL = saved
    return False


def _integral_embedding_error(group, diagonal):
    """The type of the error ``_integral_embedding`` raises for a group at a
    diagonal form, or None when it returns."""
    shape = ShapeDescriptor(group, SymmetricForm.diagonal(diagonal))
    try:
        lorentz._integral_embedding(group, shape)
    except ValueError as exc:  # every typed error of the package
        return type(exc)
    return None


# a quarter turn with fractional entries, an isometry of diag(4, 1, 1)
_FRACTIONAL_QUARTER_TURN = BieberbachGroup([
    AffineMap.translation_by([F(1, 2), F(1, 2), 0]),
    AffineMap.translation_by([0, 1, 0]),
    AffineMap(Matrix([[0, F(-1, 2), 0], [2, 0, 0], [0, 0, 1]]), [0, 0, F(1, 4)]),
])

# the isometry refusal of _integral_embedding and its call of the builder,
# whose first check refuses a fractional linear part, as they stand in its
# source; the isometry verdicts are read off the parts table
_ISOMETRY_CHECK = """\
    if not all(isometry for _, _, isometry in table):
        raise NotFormIsometry("linear part does not preserve the base form")
"""
_BUILD = """\
    images, c = _integral_images(group.generators, table, (1, 1))
"""


def _entry_points_return(group, diagonal):
    """Whether ``_integral_embedding`` and ``integralize(embed_group(...))``
    each return, rather than raise a typed error, for a group at a diagonal
    form."""
    shape = ShapeDescriptor(group, SymmetricForm.diagonal(diagonal))

    def returns(build):
        try:
            build()
        except ValueError:  # every typed error of the package
            return False
        return True

    return (
        returns(lambda: lorentz._integral_embedding(group, shape)),
        returns(lambda: lorentz.integralize(lorentz.embed_group(group, shape))),
    )


def _scaled_integralize_error(factor):
    """The type of the error ``integralize`` raises for the torus-1 image
    ``T(factor)`` at the form [[1]], or None when it returns: the shared
    scale is ``factor``, not 1."""
    group = catalog("torus-1")
    model = lorentz.LorentzModel(SymmetricForm.identity(1))
    image = lorentz.embed_affine(AffineMap.translation_by([factor]), model)
    try:
        lorentz.integralize(lorentz.LorentzEmbedding(model, group, [image]))
    except ValueError as exc:  # every typed error of the package
        return type(exc)
    return None


def _chain_verdict(group, diagonal, integral):
    """Whether ``verify_embedding`` passes ``embed_group`` at a diagonal
    form, integralized first when ``integral``."""
    shape = ShapeDescriptor(group, SymmetricForm.diagonal(diagonal))
    embedding = lorentz.embed_group(group, shape)
    if integral:
        embedding, _ = lorentz.integralize(embedding)
    return lorentz.verify_embedding(embedding).overall


def _embed_error(group, diagonal):
    """The type of the error ``embed_group`` raises for a group at a
    diagonal form, or None when it returns."""
    try:
        lorentz.embed_group(group, ShapeDescriptor(group, SymmetricForm.diagonal(diagonal)))
    except ValueError as exc:  # every typed error of the package
        return type(exc)
    return None


# (-I, (1/2, 0)) squares to the identity: the norm of <-I> is 0
_HALF_SHIFTED_HALF_TURN = BieberbachGroup([
    AffineMap(Matrix.diagonal([-1, -1]), [F(1, 2), 0]),
    AffineMap.translation_by([1, 0]),
    AffineMap.translation_by([0, 1]),
])


MUTANTS = [
    Mutant(
        # modulo 3 the rotation's e2(N) = den^2 = 4 = C(2, 2) den^2, but not
        # C(2, 2) den = 2: the mutant clears a counterexample of order 3
        "second-screen-den-not-squared",
        "selberg", "verify_certificate",
        "pairs * den * den", "pairs * den",
        lambda: _verdict([_ROTATION_OVER_TWO], 3, 1) is False,
    ),
    Mutant(
        # -I, the negation of the word I, is a counterexample modulo 2; at
        # +tr it would read I's trace n, which the screen clears
        "negation-judged-at-plus-trace",
        "selberg", "verify_certificate",
        "cleared(-trace - n * den)", "cleared(trace - n * den)",
        lambda: _verdict([-Matrix.identity(2)], 2, 1) is False,
    ),
    Mutant(
        # t^2 - 7t + 1 = (t - 1)^2 modulo 5 on an element of infinite order
        "power-test-dropped",
        "selberg", "verify_certificate",
        "and element ** order == identity", "and True",
        lambda: _verdict([Matrix([[6, 1], [5, 1]])], 5, 1) is True,
    ),
    Mutant(
        # 3 divides the denominator of diag(3, 1)'s inverse; every element
        # of the ball would pass on its trace
        "denominator-refusal-dropped",
        "selberg", "verify_certificate",
        "return False  # reduction modulo q is undefined", "pass  # ",
        lambda: _verdict([Matrix.diagonal([3, 1])], 3, 1) is False,
    ),
    Mutant(
        # modulo 4, (t + 1)^2 = (t - 1)^2 and -I has order 2; 4 is no prime
        "prime-test-dropped",
        "selberg", "verify_certificate",
        "if not is_prime(q):", "if False:",
        lambda: _verdict([-Matrix.identity(2)], 4, 1) is False,
    ),
    Mutant(
        # a word that starts at its least letter may append that letter again
        "verifier-skips-repeated-first-letter",
        "selberg", "verify_certificate",
        "i if ball is None and not length", "i + 1 if ball is None and not length",
        lambda: _verdict([_SIXTH_TURN], 3, 2) is False,
    ),
    Mutant(
        # above the bound every word is searched, so the cap counts the
        # whole ball: 17 elements refused at 16, where 13 would pass
        "verifier-prunes-past-the-cap",
        "selberg", "verify_certificate",
        "ball = None if bound <= MAX_WORD_BALL else {identity}", "ball = None",
        lambda: _refused(_SANOV, 5, 2, 16) is True,
    ),
    Mutant(
        # diag(1, 0) has leading minors 1 and 0: semidefinite, not definite.
        # __wrapped__ decides afresh: the memo would answer from before the
        # mutant, and would keep the mutant's verdict after it
        "definiteness-ignores-zeros",
        "exactlin", "_leading_minors_positive",
        "if d <= 0:", "if d < 0:",
        lambda: exactlin.is_positive_definite.__wrapped__(SymmetricForm.diagonal([1, 0])) is False,
    ),
    Mutant(
        # [[0, 1/2], [2, 0]] preserves diag(4, 1), with den 2
        "isometry-scaled-by-den-once",
        "exactlin", "preserves_form",
        "a.den * a.den", "a.den",
        lambda: exactlin.preserves_form(
            Matrix([[0, F(1, 2)], [2, 0]]), Matrix.diagonal([4, 1])
        ) is True,
    ),
    Mutant(
        # row 0 of the product is -1 (1, 0) + 2 (3, 1) = (5, 2); skipping the
        # negative entry leaves 2 (3, 1) = (6, 2)
        "product-skips-negative-entries",
        "exactlin", "_sparse_product",
        "if x:", "if x > 0:",
        lambda: Matrix([[-1, 2], [0, 1]]) * Matrix([[1, 0], [3, 1]]) == Matrix([[5, 2], [3, 1]]),
    ),
    Mutant(
        # torus-1 at the form [[1]]: h = 1/2 at c = 1, so c doubles to 2.
        # The mutant is killed only when both entry points fail under it,
        # which they do because they share one rule
        "integral-embedding-no-doubling",
        "lorentz", "_integral_images",
        "c *= 2", "c *= 1",
        lambda: _entry_points_return(catalog("torus-1"), [1]) != (False, False),
    ),
    Mutant(
        # torus-1 at [[1/3]]: k^T A = 1/3 asks for c = 3 before the doubling
        "integral-embedding-scale-without-kA",
        "lorentz", "_integral_images",
        "ka_den // math.gcd(ka_den, ka_gcd)", "1",
        lambda: _integral_embedding_error(catalog("torus-1"), [F(1, 3)]) is None,
    ),
    Mutant(
        "integral-embedding-no-fractional-check",
        "lorentz", "_integral_images",
        "if not all(g.linear.is_integral() for g in generators):", "if False:",
        lambda: _integral_embedding_error(_FRACTIONAL_QUARTER_TURN, [4, 1, 1]) is ValueError,
    ),
    Mutant(
        # the quarter turn does not preserve the identity form: the isometry
        # check comes first, as in integralize(embed_group(...))
        "integral-embedding-checks-out-of-order",
        "lorentz", "_integral_embedding",
        _ISOMETRY_CHECK + _BUILD, _BUILD + _ISOMETRY_CHECK,
        lambda: _integral_embedding_error(_FRACTIONAL_QUARTER_TURN, [1, 1, 1]) is NotFormIsometry,
    ),
    Mutant(
        # T(3/2) at [[1]] has the shared scale 3/2 (unreduced, 12/8): c is 4,
        # but read over the denominators of t and k^T A alone it is 2, where
        # (2 s)^2 h = 9/2 leaves a remainder
        "integral-images-scale-without-s-den",
        "lorentz", "_integral_images",
        "w_den, ka_den = s_den * g.den, s_den * k_den", "w_den, ka_den = g.den, k_den",
        lambda: _scaled_integralize_error(F(3, 2)) is None,
    ),
    Mutant(
        # torus-1 at [[1]] integralizes at c = 2, where h = 1/2 becomes
        # c^2 h = 2; at c h = 1 the corner no longer decodes
        "decode-h-scaled-by-c",
        "lorentz", "_decodes",
        "c_num * c_num * h_num, c_den * c_den * h_den", "c_num * h_num, c_den * h_den",
        lambda: _chain_verdict(catalog("torus-1"), [1], integral=True) is True,
    ),
    Mutant(
        # torus-1 at [[1/3]]: the image has den 6 and t = 1, so the shared
        # scale is the unreduced (6, 6); k^T A = 1/3 must be read over 6 * 3
        "decode-kA-without-c-den",
        "lorentz", "_decodes",
        "ka_den = c_den * k_den * a.den", "ka_den = k_den * a.den",
        lambda: _chain_verdict(catalog("torus-1"), [F(1, 3)], integral=False) is True,
    ),
    Mutant(
        # the quarter turn of axes 0 and 1 does not preserve diag(1, 2, 3);
        # a table that calls every A an isometry embeds it anyway
        "parts-table-isometry-verdict",
        "lorentz", "_generator_parts",
        "isometry = preserves_form(a, model.base_form.matrix)", "isometry = True",
        lambda: _embed_error(catalog("quarter-turn"), [1, 2, 3]) is NotFormIsometry,
    ),
    Mutant(
        # N = I + h for h = -I is 0, so N t = 0 lies in N L for every t
        "torsion-norm-not-summed",
        "bieberbach", "is_torsion_free",
        "norm, power = norm + power, power * h", "norm, power = norm, power * h",
        lambda: bieberbach.is_torsion_free(_HALF_SHIFTED_HALF_TURN) is False,
    ),
    Mutant(
        # 3/2 lies halfway between 1 and 2, the convergent and the
        # semiconvergent at bound 1; the tie goes to the convergent, as in
        # limit_denominator
        "ladder-walk-tie-to-semiconvergent",
        "shapes", "_limit_denominators",
        "2 * d * q <= den", "2 * d * q < den",
        lambda: shapes.rationalize(
            SymmetricForm([[F(3, 2)]]), holonomy(catalog("torus-1")), 1
        ).form == SymmetricForm([[1]]),
    ),
    Mutant(
        # (4, 9) = 2 (2, 0) + 3 (0, 3); clearing must subtract the basis rows
        "integer-solution-adds-the-basis-row",
        "exactlin", "has_integer_solution",
        "rest = [x - q * y", "rest = [x + q * y",
        lambda: exactlin.has_integer_solution([[2, 0], [0, 3]], [4, 9]) is True,
    ),
]


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_is_killed(mutant, monkeypatch):
    assert mutant.killer() is True
    module = importlib.import_module(f"flatcusps.{mutant.module}")
    original = getattr(module, mutant.function)
    source = inspect.getsource(original)
    if source.count(mutant.find) != 1:
        pytest.fail(
            f"stale mutant {mutant.name}: {mutant.find!r} occurs "
            f"{source.count(mutant.find)} times in {mutant.module}.{mutant.function}"
        )
    code = compile(
        source.replace(mutant.find, mutant.replace),
        module.__file__,
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    monkeypatch.setattr(module, mutant.function, original)  # put back after the test
    exec(code, vars(module))
    assert getattr(module, mutant.function) is not original
    assert mutant.killer() is False
